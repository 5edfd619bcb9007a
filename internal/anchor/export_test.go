package anchor

// The external test package reaches the shape checks through these: it
// imports internal/workloads, which imports this package through
// internal/backend, so it cannot live inside package anchor.
var (
	CheckUnified = checkUnified
	ShapeOptions = shapeOptions
	ShapeName    = shapeName
)
