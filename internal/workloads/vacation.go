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

// vacation: STAMP's travel reservation system. Each transaction makes a
// reservation: several red-black-tree lookups across the car/room/flight
// tables, one quantity update, and occasionally a customer-record
// insert. Trees are large and keys scatter, so contention is moderate
// (Table 1: wasted work exists but speedup is already 9.7); the paper
// uses vacation to show staggered transactions do not slow down what
// already scales.

const (
	vacRelations = 128 // entries per reservation table
	vacTables    = 3   // cars, rooms, flights
)

func init() { register("vacation", 2400, buildVacation) }

func buildVacation() *Workload {
	mod := prog.NewModule("vacation")
	rb := simds.DeclareRBTree(mod)

	resRoot := mod.NewFunc("make_reservation", "tablePtr", "customerPtr")
	resRoot.Entry().Call(rb.FnLookup, resRoot.Param(0))
	resRoot.Entry().Call(rb.FnLookup, resRoot.Param(0))
	resRoot.Entry().Call(rb.FnUpdate, resRoot.Param(0))
	abReserve := mod.Atomic("make_reservation", resRoot)

	custRoot := mod.NewFunc("add_customer", "customerPtr", "record")
	custRoot.Entry().Call(rb.FnInsert, custRoot.Param(0), custRoot.Param(1))
	abCustomer := mod.Atomic("add_customer", custRoot)

	qryRoot := mod.NewFunc("query_tables", "tablePtr")
	qryRoot.Entry().Call(rb.FnLookup, qryRoot.Param(0))
	abQuery := mod.Atomic("query_tables", qryRoot)
	mod.MustFinalize()

	var tables [vacTables]mem.Addr
	var customers mem.Addr
	return &Workload{
		Name:        "vacation",
		Description: fmt.Sprintf("reservations over %d-entry red-black trees", vacRelations),
		Contention:  "med",
		Mod:         mod,
		Setup: func(m *htm.Machine, seed int64) {
			keys := make([]uint64, vacRelations)
			for i := range keys {
				keys[i] = uint64(i*2 + 2)
			}
			for t := range tables {
				tables[t] = simds.NewRBTree(m.Alloc)
				simds.SeedRBTree(m, tables[t], keys, func(k uint64) uint64 { return 100 })
			}
			customers = simds.NewRBTree(m.Alloc)
			ckeys := make([]uint64, 256)
			for i := range ckeys {
				ckeys[i] = uint64(1000 + i*400)
			}
			simds.SeedRBTree(m, customers, ckeys, func(k uint64) uint64 { return 0 })
		},
		Body: func(rt backend.Runtime, tid, threads, ops int, seed int64) func(*htm.Core) {
			rng := threadRNG(seed, tid)
			return func(c *htm.Core) {
				th := rt.Thread(c.ID())
				al := c.Machine().Alloc
				// Hoisted body closures: see kmeans for why in-loop
				// literals cost one heap allocation per op.
				var ti int
				var tb, node mem.Addr
				var k1, k2, key, k uint64
				reserveBody := func(tc simds.Ctx) {
					v1, _ := rb.Lookup(tc, tb, k1)
					tc.Compute(120)
					rb.Lookup(tc, tb, k2)
					tc.Compute(120)
					rb.Update(tc, tb, k1, ^uint64(0)) // -1 seat/room
					tc.Op(vacRes{table: ti, key: k1, before: v1})
				}
				customerBody := func(tc simds.Ctx) {
					ins := rb.Insert(tc, customers, key, uint64(tid), node)
					tc.Op(vacCust{key: key, tid: uint64(tid), inserted: ins})
				}
				queryBody := func(tc simds.Ctx) {
					v, found := rb.Lookup(tc, tb, k)
					tc.Compute(200)
					tc.Op(vacQry{table: ti, key: k, val: v, found: found})
				}
				for i := 0; i < ops; i++ {
					r := rng.Intn(100)
					switch {
					case r < 80: // make a reservation
						ti = rng.Intn(vacTables)
						tb = tables[ti]
						k1 = uint64(rng.Intn(vacRelations))*2 + 2
						k2 = uint64(rng.Intn(vacRelations))*2 + 2
						th.Atomic(abReserve, reserveBody)
					case r < 90: // register a customer
						node = al.AllocLines(1)
						key = uint64(1000 + rng.Intn(100000))
						th.Atomic(abCustomer, customerBody)
					default: // price queries
						ti = rng.Intn(vacTables)
						tb = tables[ti]
						k = uint64(rng.Intn(vacRelations))*2 + 2
						th.Atomic(abQuery, queryBody)
					}
					c.Compute(150)
				}
			}
		},
		Verify: func(m *htm.Machine, threads, totalOps int) error {
			for t := range tables {
				if !simds.RBDepthOK(m, tables[t]) {
					return fmt.Errorf("table %d violates red-black invariants", t)
				}
				if got := len(simds.RBKeys(m, tables[t])); got != vacRelations {
					return fmt.Errorf("table %d has %d keys, want %d", t, got, vacRelations)
				}
			}
			if !simds.RBDepthOK(m, customers) {
				return fmt.Errorf("customer tree violates red-black invariants")
			}
			return nil
		},
		RefModel: func(m *htm.Machine, seed int64) oracle.RefModel {
			md := &vacModel{m: m, rb: rb, rtables: tables, rcustomers: customers,
				customers: make(map[uint64]uint64, 512)}
			for t := range md.tables {
				md.tables[t] = make(map[uint64]uint64, vacRelations)
				for i := 0; i < vacRelations; i++ {
					md.tables[t][uint64(i*2+2)] = 100
				}
			}
			for i := 0; i < 256; i++ {
				md.customers[uint64(1000+i*400)] = 0
			}
			return md
		},
	}
}

// Tags for the three vacation atomic blocks. The reservation tag carries
// the quantity the transaction read before decrementing — lost updates
// between two reservations of the same slot surface as a skewed before.
type vacRes struct {
	table  int
	key    uint64
	before uint64
}
type vacCust struct {
	key      uint64
	tid      uint64
	inserted bool
}
type vacQry struct {
	table int
	key   uint64
	val   uint64
	found bool
}

// vacModel is the sequential reservation system: one Go map per
// reservation table plus the customer map.
type vacModel struct {
	m          *htm.Machine
	rb         *simds.RBTree
	rtables    [vacTables]mem.Addr
	rcustomers mem.Addr
	tables     [vacTables]map[uint64]uint64
	customers  map[uint64]uint64
}

func (md *vacModel) Step(tag any) error {
	switch op := tag.(type) {
	case vacRes:
		want, present := md.tables[op.table][op.key]
		if !present {
			return fmt.Errorf("reservation touched key %d absent from table %d", op.key, op.table)
		}
		if op.before != want {
			return fmt.Errorf("reservation of table %d key %d read quantity %d, sequential model says %d",
				op.table, op.key, op.before, want)
		}
		md.tables[op.table][op.key] = want - 1
	case vacCust:
		_, present := md.customers[op.key]
		if op.inserted != !present {
			return fmt.Errorf("add_customer(%d) = %v, sequential model says %v", op.key, op.inserted, !present)
		}
		if op.inserted {
			md.customers[op.key] = op.tid
		}
	case vacQry:
		val, present := md.tables[op.table][op.key]
		if op.found != present {
			return fmt.Errorf("query of table %d key %d found = %v, sequential model says %v",
				op.table, op.key, op.found, present)
		}
		if present && op.val != val {
			return fmt.Errorf("query of table %d key %d = %d, sequential model says %d",
				op.table, op.key, op.val, val)
		}
	default:
		return fmt.Errorf("vacation: unexpected tag %T", tag)
	}
	return nil
}

func (md *vacModel) Finish() error {
	for t := range md.tables {
		if err := rbMatches(md.m, md.rb, md.rtables[t], md.tables[t]); err != nil {
			return fmt.Errorf("table %d: %w", t, err)
		}
	}
	if err := rbMatches(md.m, md.rb, md.rcustomers, md.customers); err != nil {
		return fmt.Errorf("customers: %w", err)
	}
	return nil
}

// rbMatches compares a real red-black tree against a model map.
func rbMatches(m *htm.Machine, rb *simds.RBTree, tree mem.Addr, want map[uint64]uint64) error {
	keys := simds.RBKeys(m, tree)
	if len(keys) != len(want) {
		return fmt.Errorf("final tree has %d keys, model has %d", len(keys), len(want))
	}
	for _, k := range keys {
		wv, ok := want[k]
		if !ok {
			return fmt.Errorf("final tree holds key %d the model does not", k)
		}
		if gv, _ := rb.Lookup(simds.Direct(m), tree, k); gv != wv {
			return fmt.Errorf("final tree[%d] = %d, model has %d", k, gv, wv)
		}
	}
	return nil
}
