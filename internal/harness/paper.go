package harness

import (
	"fmt"
	"io"
)

// Section is one part of cmd/paper's output. Its Name selects it on
// cmd/paper's command line and names its generated block in
// EXPERIMENTS.md, which holds the text Render returns at DefaultSeed.
type Section struct {
	Name   string // "table1" … "table4", "figure7", "figure8", "claims", "lazy"
	Extra  bool   // left out of cmd/paper's default run; printed only when asked for
	Render func(seed int64) (string, error)
}

// PaperSections is cmd/paper's output in print order: the paper's tables,
// figures and headline claims, then the lazy-TM extension.
var PaperSections = []Section{
	{Name: "table1", Render: rendered(Table1, FormatTable1)},
	{Name: "table2", Render: func(int64) (string, error) { return Table2(), nil }},
	{Name: "table3", Render: rendered(Table3, FormatTable3)},
	{Name: "table4", Render: rendered(Table4, FormatTable4)},
	{Name: "figure7", Render: rendered(Figure7, FormatFigure7)},
	{Name: "figure8", Render: rendered(Figure8, FormatFigure8)},
	{Name: "claims", Render: rendered(Claims, FormatClaims)},
	{Name: "lazy", Extra: true, Render: rendered(FigureLazy, FormatFigureLazy)},
}

// rendered composes a generator with its formatter.
func rendered[T any](gen func(int64) (T, error), format func(T) string) func(int64) (string, error) {
	return func(seed int64) (string, error) {
		v, err := gen(seed)
		if err != nil {
			return "", err
		}
		return format(v), nil
	}
}

// WritePaper writes, in order, each section pick accepts as cmd/paper
// prints it: its text and then a newline. It stops at the first error,
// after the sections before it are written.
func WritePaper(w io.Writer, seed int64, pick func(Section) bool) error {
	for _, s := range PaperSections {
		if !pick(s) {
			continue
		}
		text, err := s.Render(seed)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w, text); err != nil {
			return err
		}
	}
	return nil
}

// DefaultRun picks the sections cmd/paper prints when asked for none.
func DefaultRun(s Section) bool { return !s.Extra }
