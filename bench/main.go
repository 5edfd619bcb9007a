// Command bench is the repository's performance ledger: five workloads,
// the end-to-end metrics a user of the simulator or of staggerd waits for
// or pays, and a traced run that prices every package underneath them.
// README.md in this directory is the manual; ../BENCHMARK.json is the
// contract the driver holds later changes to.
//
//	bash bench/run.sh -workload seq-t1            # one workload, end-to-end metrics
//	bash bench/run.sh -workload seq-t1 -trace     # the same workload, per-layer metrics
//	bash bench/run.sh                             # every workload, one process each
//
// The last line of standard output is the driver's result object; the
// indented report before it carries sample counts, checks and the host.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// workloadDef is one entry of BENCHMARK.json's workloads.
type workloadDef struct {
	name string
	why  string
	run  func(*run) error
}

var workloadDefs = []workloadDef{
	{wlPaper, "cmd/paper's whole sequence in-process: dominated by 16-thread cells, where token scheduling is about half the host time", runPaper},
	{wlSeq, "one thread, three backends: no handoffs, so the memory model, tx tables, stagger runtime and workload bodies are the whole cost", runSeq},
	{wlExplore, "600 tiny recorded, oracle-checked PCT schedules: the scheduler hook, the oracle and per-cell fixed cost at their highest share", runExplore},
	{wlCold, "never-seen sweeps through the in-process daemon over HTTP: admission, journal, compute, 12 store puts per job, result streaming", runCold},
	{wlWarm, "the same specs again, served from the store: no compute, so journal, store reads, JSON, HTTP and the job table are the whole cost", runWarm},
}

// report is the full result of one workload run.
type report struct {
	Workload  string            `json:"workload"`
	Why       string            `json:"why"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Smoke     bool              `json:"smoke,omitempty"`
	Passes    int               `json:"passes"`
	Noisy     bool              `json:"noisy"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailShare float64           `json:"fail_share"`
	FirstFail string            `json:"first_failure,omitempty"`
	Error     string            `json:"error,omitempty"`
	Metrics   map[string]sample `json:"metrics"`
	Tails     map[string]tail   `json:"tails,omitempty"`
	PassS     []float64         `json:"pass_s_each,omitempty"`   // every timed pass, in order
	CalibMS   []float64         `json:"calib_ms_each,omitempty"` // the calibration before each
	Checks    []check           `json:"checks"`
	TraceFile string            `json:"trace_file,omitempty"`
	Host      hostInfo          `json:"host"`
}

// result is the driver's result object, the last line of standard output.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractSample `json:"metrics"`
}

func main() {
	started := time.Now()
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workload := fs.String("workload", "", "run one workload (default: each workload in its own process)")
	seed := fs.Int64("seed", 42, "seed every cell and job seed derives from")
	seconds := fs.Int("seconds", 10, "timed seconds a run aims for; turned into a whole number of passes")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics and bench/out/trace-<workload>.json")
	smoke := fs.Bool("smoke", false, "sizes ~20x smaller, for tests; the numbers mean nothing")
	fs.Parse(normalizeArgs(os.Args[1:]))
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		os.Exit(2)
	}

	if *workload == "" {
		os.Exit(runAll(*seed, *seconds, *trace, *smoke))
	}
	var def *workloadDef
	for i := range workloadDefs {
		if workloadDefs[i].name == *workload {
			def = &workloadDefs[i]
		}
	}
	if def == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	r := newRun(*def, *seed, *seconds, *trace, *smoke, started)
	if r.trace {
		r.tr = newTracer()
	}
	os.Exit(emit(r.conclude(def.run(r))))
}

// normalizeArgs lets -trace be given bare (a person) or with a value (the
// driver appends "--trace 0" or "--trace 1"): a 0/1/true/false right
// after it is folded into -trace=<value>.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				a += "=" + args[i+1]
				i++
			}
		}
		out = append(out, a)
	}
	return out
}

// conclude turns a finished run into its full report and, when the run
// completed, the driver's result object. A run is correct when it
// completed, attempted something, failed nothing and passed every check.
func (r *run) conclude(runErr error) (report, *result) {
	r.finishHost()
	rep := report{Workload: r.workload, Why: r.why, Seed: r.seed, Trace: r.trace, Smoke: r.smoke, Passes: len(r.passS),
		Noisy: r.noisy(), Attempted: r.attempted, Failed: r.failed, FirstFail: r.firstFail,
		Metrics: r.metrics, Tails: r.tails, PassS: r.passS, CalibMS: r.calibMS, Checks: r.checks, Host: host(".")}
	if r.attempted > 0 {
		rep.FailShare = float64(r.failed) / float64(r.attempted)
	}

	defs := endToEnd
	if r.trace {
		defs = perLayer
		if runErr == nil {
			r.tr.adopt()
			rep.TraceFile = filepath.Join(r.outDir, "trace-"+r.workload+".json")
			if err := r.tr.write(rep.TraceFile, r.workload, r.seed); err != nil {
				runErr = fmt.Errorf("write trace: %w", err)
			}
		}
	}
	var listed map[string]contractSample
	if runErr == nil {
		listed, runErr = contractMetrics(defs, r.workload, r.metrics)
	}
	if runErr != nil {
		// No result: the driver must not mistake a broken run for a
		// measurement.
		rep.Error = runErr.Error()
		return rep, nil
	}
	res := &result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: listed}
	for _, c := range r.checks {
		res.Correct = res.Correct && c.OK
	}
	return rep, res
}

// emit prints the report, then the result as the last line, and returns
// the exit code: non-zero unless the run completed and was correct.
func emit(rep report, res *result) int {
	printJSON(rep, true)
	if res == nil {
		fmt.Fprintln(os.Stderr, "bench:", rep.Error)
		return 1
	}
	printJSON(res, false)
	if !res.Correct {
		return 1
	}
	return 0
}

func printJSON(v any, indent bool) {
	var b []byte
	var err error
	if indent {
		b, err = json.MarshalIndent(v, "", "  ")
	} else {
		b, err = json.Marshal(v)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: encode report:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// runAll re-executes this binary once per workload, so that peak_rss_mb
// is per workload, and prints the merged report.
func runAll(seed int64, seconds int, trace, smoke bool) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	merged := map[string]json.RawMessage{}
	for _, def := range workloadDefs {
		args := []string{"-workload", def.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			fmt.Sprintf("-trace=%t", trace), fmt.Sprintf("-smoke=%t", smoke)}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		cmd.Env = append(os.Environ(), fmt.Sprintf("BENCH_EXEC_NS=%d", time.Now().UnixNano()))
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", def.name, err)
			code = 1
		}
		// The child prints its indented report, then (on a completed run)
		// the one-line result; the report is everything up to the closing
		// brace at the start of a line.
		if end := bytes.Index(out, []byte("\n}\n")); end >= 0 {
			merged[def.name] = json.RawMessage(out[:end+2])
		}
	}
	printJSON(merged, true)
	return code
}
