package workloads

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/oracle"
	"repro/internal/prog"
	"repro/internal/simds"
)

// labyrinth: STAMP's maze router (Lee's algorithm). Each transaction
// routes one wire: it privatizes the grid with nontransactional reads
// (standing in for STAMP's early release), computes a shortest path on
// the snapshot, then transactionally validates and claims the path's
// cells. Transactions are long and write-heavy, so aborts are expensive
// (Table 4: 3.47 aborts/commit, S = 1.9 at 16 threads).

const (
	labX, labY, labZ = 16, 16, 2
	labRoutes        = 96
)

func init() { register("labyrinth", labRoutes, buildLabyrinth) }

func buildLabyrinth() *Workload {
	mod := prog.NewModule("labyrinth")
	g := simds.DeclareGrid(mod, labX, labY, labZ)
	// The grid is a module global bound into both blocks' root calls, as
	// claim and release share the one grid at run time.
	gGrid := mod.Global("grid")
	root := mod.NewFunc("route_path", "gridPtr")
	root.Entry().Call(g.FnClaim, gGrid)
	ab := mod.Atomic("route_path", root)
	relRoot := mod.NewFunc("ripup_path", "gridPtr")
	relRoot.Entry().Call(g.FnRelease, gGrid)
	abRel := mod.Atomic("ripup_path", relRoot)
	mod.MustFinalize()

	var base, cells mem.Addr
	var routed, failed []int
	return &Workload{
		Name:        "labyrinth",
		Description: fmt.Sprintf("maze routing on a %dx%dx%d grid", labX, labY, labZ),
		Contention:  "high",
		Mod:         mod,
		Setup: func(m *htm.Machine, seed int64) {
			base = simds.NewGrid(m, g)
			cells = simds.Cells(m, base)
			routed = make([]int, m.Config().Cores)
			failed = make([]int, m.Config().Cores)
		},
		Body: func(rt backend.Runtime, tid, threads, ops int, seed int64) func(*htm.Core) {
			rng := threadRNG(seed, tid)
			return func(c *htm.Core) {
				th := rt.Thread(c.ID())
				buf := make([]uint64, labX*labY*labZ)
				owner := uint64(tid + 1)
				var held []mem.Addr
				// Hoisted body closures: see kmeans for why in-loop
				// literals cost one heap allocation per op.
				var prev, path []mem.Addr
				var sy, dy, z int
				ok := false
				relBody := func(tc simds.Ctx) {
					g.ReleasePath(tc, base, prev)
					tc.Op(labRel{path: prev, owner: owner})
				}
				routeBody := func(tc simds.Ctx) {
					ok = false
					g.Snapshot(tc, cells, buf)
					path = bfsPath(g, cells, buf, 0, sy, labX-1, dy, z)
					tc.Compute(800) // wavefront expansion
					if path == nil {
						tc.Op(labClaim{owner: owner})
						return
					}
					// Validation holds the path in the read set
					// through the traceback (the conflict window).
					ok = g.ClaimPath(tc, base, path, owner, 2500)
					tc.Op(labClaim{path: path, owner: owner, ok: ok})
				}
				for i := 0; i < ops; i++ {
					// Rip up the previous wire first (rip-up and re-route),
					// so free space stays available and contention comes
					// from concurrent routing, not from a full maze.
					if held != nil {
						prev = held
						th.Atomic(abRel, relBody)
						held = nil
					}
					// Wires run edge to edge, so concurrent paths cross in
					// the middle of the maze and contend there.
					sy, dy = rng.Intn(labY), rng.Intn(labY)
					z = rng.Intn(labZ)
					ok = false
					for attempt := 0; attempt < 6 && !ok; attempt++ {
						th.Atomic(ab, routeBody)
						if !ok {
							c.Compute(300)
						}
					}
					if ok {
						routed[tid]++
						held = path
					} else {
						failed[tid]++
					}
				}
			}
		},
		Verify: func(m *htm.Machine, threads, totalOps int) error {
			r, f := 0, 0
			for i := range routed {
				r += routed[i]
				f += failed[i]
			}
			if r+f != totalOps {
				return fmt.Errorf("routed %d + failed %d != %d attempts", r, f, totalOps)
			}
			if r == 0 {
				return fmt.Errorf("no wire ever routed")
			}
			// Claimed cells must carry valid owner ids.
			for z := 0; z < labZ; z++ {
				for y := 0; y < labY; y++ {
					for x := 0; x < labX; x++ {
						o := g.CellOwner(m, base, x, y, z)
						if o > uint64(threads) {
							return fmt.Errorf("cell (%d,%d,%d) has bogus owner %d", x, y, z, o)
						}
					}
				}
			}
			return nil
		},
		RefModel: func(m *htm.Machine, seed int64) oracle.RefModel {
			return &labModel{m: m, g: g, base: base, owners: make(map[mem.Addr]uint64)}
		},
	}
}

// Tags for the two labyrinth atomic blocks. A nil path with ok=false
// means the BFS found no route on the (nontransactional) snapshot — the
// snapshot may be stale, so the model does not second-guess it.
type labClaim struct {
	path  []mem.Addr
	owner uint64
	ok    bool
}
type labRel struct {
	path  []mem.Addr
	owner uint64
}

// labModel tracks sequential grid ownership. A successful claim must have
// found every path cell free at its serialization point; a failed claim
// with a path must have hit at least one occupied cell; a release must
// free only cells the releasing wire owns.
type labModel struct {
	m      *htm.Machine
	g      *simds.Grid
	base   mem.Addr
	owners map[mem.Addr]uint64
}

func (md *labModel) Step(tag any) error {
	switch op := tag.(type) {
	case labClaim:
		if op.ok {
			for _, cell := range op.path {
				if o := md.owners[cell]; o != 0 {
					return fmt.Errorf("claim by %d succeeded over cell %#x owned by %d",
						op.owner, uint64(cell), o)
				}
			}
			for _, cell := range op.path {
				md.owners[cell] = op.owner
			}
			return nil
		}
		if op.path != nil {
			for _, cell := range op.path {
				if md.owners[cell] != 0 {
					return nil
				}
			}
			return fmt.Errorf("claim by %d failed though every path cell is free", op.owner)
		}
	case labRel:
		for _, cell := range op.path {
			if o := md.owners[cell]; o != op.owner {
				return fmt.Errorf("release by %d of cell %#x owned by %d", op.owner, uint64(cell), o)
			}
		}
		for _, cell := range op.path {
			md.owners[cell] = 0
		}
	default:
		return fmt.Errorf("labyrinth: unexpected tag %T", tag)
	}
	return nil
}

func (md *labModel) Finish() error {
	for z := 0; z < labZ; z++ {
		for y := 0; y < labY; y++ {
			for x := 0; x < labX; x++ {
				got := md.g.CellOwner(md.m, md.base, x, y, z)
				want := md.owners[md.g.CellAddr(simds.Cells(md.m, md.base), x, y, z)]
				if got != want {
					return fmt.Errorf("final cell (%d,%d,%d) owner = %d, sequential model says %d",
						x, y, z, got, want)
				}
			}
		}
	}
	return nil
}

// bfsPath finds a free path from (sx,sy) to (dx,dy) on layer z of the
// snapshot, returning cell addresses or nil. It is intentionally a plain
// Go BFS: the real work is modeled by the Compute call at the call site,
// while the snapshot reads already paid their nontransactional latency.
func bfsPath(g *simds.Grid, base mem.Addr, snap []uint64, sx, sy, dx, dy, z int) []mem.Addr {
	idx := func(x, y int) int { return (z*g.Y+y)*g.X + x }
	if snap[idx(sx, sy)] != 0 || snap[idx(dx, dy)] != 0 {
		return nil
	}
	prev := make([]int, len(snap))
	for i := range prev {
		prev[i] = -1
	}
	queue := []int{idx(sx, sy)}
	prev[idx(sx, sy)] = idx(sx, sy)
	found := false
	for len(queue) > 0 && !found {
		cur := queue[0]
		queue = queue[1:]
		cx := cur % g.X
		cy := (cur / g.X) % g.Y
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nx, ny := cx+d[0], cy+d[1]
			if nx < 0 || ny < 0 || nx >= g.X || ny >= g.Y {
				continue
			}
			ni := idx(nx, ny)
			if prev[ni] != -1 || snap[ni] != 0 {
				continue
			}
			prev[ni] = cur
			if nx == dx && ny == dy {
				found = true
				break
			}
			queue = append(queue, ni)
		}
	}
	if !found {
		return nil
	}
	var path []mem.Addr
	for cur := idx(dx, dy); ; cur = prev[cur] {
		x := cur % g.X
		y := (cur / g.X) % g.Y
		path = append(path, g.CellAddr(base, x, y, z))
		if prev[cur] == cur {
			break
		}
	}
	return path
}
