package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/anchor"
	"repro/internal/backend"
	"repro/internal/harness"
	"repro/internal/htm"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/sched"
	"repro/internal/stagger"
	"repro/internal/workloads"
)

// cellName is the spec string a cell is known by in digests and traces.
func cellName(rc harness.RunConfig) string {
	name := fmt.Sprintf("%s/%s/t%d/s%d/ops%d", rc.Benchmark, rc.Backend, rc.Threads, rc.Seed, rc.TotalOps)
	if rc.Sched != "" {
		name += fmt.Sprintf("/%s@%d", rc.Sched, rc.SchedSeed)
	}
	return name
}

// events is the number of simulated memory events a run retired: the
// unit host time is divided by.
func events(s *htm.Stats) uint64 { return s.Loads + s.Stores + s.NTLoads + s.NTStores }

// staged is what one staged cell produced and what it cost the host.
type staged struct {
	res           *harness.Result
	payloadBytes  int
	runNS, cellNS int64 // Machine.RunChecked alone, and the whole cell
}

// stagedCell runs one cell the way harness.RunCtx does, but performs the
// stages itself through each package's public functions so that a span
// can sit on every layer boundary: workloads.Get, anchor.Compile,
// htm.New, the backend constructor, Setup, Body, Machine.RunChecked,
// Verify, and (what the service adds per computed cell) obs.Snapshot +
// JSON. It covers the RunConfig fields the benchmark's cells use; the
// staged_equals_run check compares its htm.Stats with harness.Run's so
// the copy cannot drift from the original unnoticed.
func stagedCell(tr *tracer, rc harness.RunConfig) (st staged, err error) {
	cellStart := time.Now()
	cell := tr.begin("cell", cellName(rc))
	defer func() {
		tr.end(cell)
		st.cellNS = int64(time.Since(cellStart))
	}()
	stage := func(name string, f func()) {
		id := tr.begin(name, "")
		f()
		tr.end(id)
	}

	var w *workloads.Workload
	stage("workloads.get", func() { w, err = workloads.Get(rc.Benchmark) })
	if err != nil {
		return st, err
	}
	if rc.TotalOps == 0 {
		rc.TotalOps = w.TotalOps
	}
	if rc.Seed == 0 {
		rc.Seed = 42
	}
	if rc.SchedSeed == 0 {
		rc.SchedSeed = rc.Seed
	}
	bk, err := backend.Get(rc.Backend)
	if err != nil {
		return st, err
	}
	if bk.Software {
		rc.Mode = stagger.ModeHTM
	} else {
		rc.Mode = stagger.ResolveMode(rc.Backend, rc.Mode)
	}
	mcfg := htm.DefaultConfig()
	mcfg.HardwareCPC = rc.Mode == stagger.ModeStaggeredHW
	mcfg.Seed = rc.Seed
	if rc.WatchdogTrace != 0 {
		mcfg.WatchdogTrace = rc.WatchdogTrace
	}
	if bk.PrepareMachine != nil {
		bk.PrepareMachine(&mcfg, backend.Options{})
	}

	aopts := anchor.DefaultOptions()
	aopts.PCBits = mcfg.PCTagBits
	var comp *anchor.Compiled
	stage("anchor.compile", func() { comp = anchor.Compile(w.Mod, aopts) })

	var mach *htm.Machine
	stage("htm.new", func() { mach = htm.New(mcfg) })

	var recorder *sched.Recorder
	if rc.Sched != "" {
		stage("sched.new", func() {
			var spec sched.Spec
			if spec, err = sched.Parse(rc.Sched); err != nil {
				return
			}
			var s htm.Scheduler
			if s, err = spec.New(rc.SchedSeed, mcfg.Cores); err != nil {
				return
			}
			if rc.Record {
				recorder = sched.NewRecorder(s)
				s = recorder
			}
			mach.SetScheduler(s)
		})
		if err != nil {
			return st, err
		}
	}

	var brt backend.Runtime
	stage("backend.new", func() {
		brt, err = bk.New(mach, comp, backend.Options{StaggerConfig: stagger.DefaultConfig(rc.Mode)})
	})
	if err != nil {
		return st, err
	}

	stage("workloads.setup", func() { w.Setup(mach, rc.Seed) })

	var chk *oracle.Checker
	var model oracle.RefModel
	if rc.Oracle {
		stage("oracle.new", func() {
			if w.RefModel != nil {
				model = w.RefModel(mach, rc.Seed)
			}
			chk = oracle.New(mach.Mem.Snapshot(), model)
			mach.SetObserver(chk)
		})
	}

	bodies := make([]func(*htm.Core), rc.Threads)
	stage("workloads.body", func() {
		for tid := range bodies {
			n := rc.TotalOps / rc.Threads
			if tid < rc.TotalOps%rc.Threads {
				n++
			}
			bodies[tid] = w.Body(brt, tid, rc.Threads, n, rc.Seed)
		}
	})

	stage("htm.run", func() {
		runStart := time.Now()
		err = mach.RunChecked(bodies)
		st.runNS = int64(time.Since(runStart))
	})
	if err != nil {
		return st, fmt.Errorf("%s: %w", cellName(rc), err)
	}

	res := &harness.Result{
		Config:         rc,
		NumABs:         len(w.Mod.Atomics),
		TotalOps:       rc.TotalOps,
		StaticAccesses: comp.StaticAccesses,
		StaticAnchors:  comp.StaticAnchors,
		Compiled:       comp,
	}
	stage("htm.stats", func() { res.Stats = mach.Stats() })
	stage("workloads.verify", func() { res.VerifyErr = w.Verify(mach, rc.Threads, rc.TotalOps) })
	if u, ok := brt.(interface{ Unwrap() *stagger.Runtime }); ok {
		stage("stagger.attribution", func() {
			rt := u.Unwrap()
			res.Metrics = rt.Metrics
			res.LA, res.LP = rt.Locality()
			res.ConfAddrs = rt.ConflictAddrs()
			res.ConfPCs = rt.ConflictPCs()
			res.ConfPairs = rt.ConflictPairs()
			res.PerAB = rt.PerAB()
		})
	}
	if recorder != nil {
		res.SchedPicks = recorder.Picks()
	}
	if chk != nil {
		stage("oracle.final", func() {
			chk.FinalCheck(mach.Mem)
			res.OracleCommits = chk.Commits()
			res.OracleErr = chk.Err()
			if f, ok := model.(oracle.Finisher); ok && res.OracleErr == nil {
				if ferr := f.Finish(); ferr != nil {
					res.OracleErr = fmt.Errorf("oracle: final model check: %w", ferr)
				}
			}
		})
	}

	stage("obs.snapshot_json", func() {
		var b []byte
		b, err = json.MarshalIndent(obs.Snapshot(res), "", "  ")
		st.payloadBytes = len(b)
	})
	if err != nil {
		return st, err
	}
	st.res = res
	return st, nil
}
