package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/harness"
	"repro/internal/obs"
)

// Handler returns the service's HTTP surface:
//
//	GET    /healthz              liveness (200 while the process runs)
//	GET    /readyz               readiness (503 once drain begins)
//	GET    /metrics              service + store counters, JSON
//	POST   /jobs                 submit a JobSpec -> 202 {id}
//	GET    /jobs                 list job statuses
//	GET    /jobs/{id}            one job's status
//	DELETE /jobs/{id}            cancel a job
//	GET    /jobs/{id}/result     all cell payloads of a done job
//	GET    /jobs/{id}/cells/{n}  one cell payload, exact stored bytes
//	GET    /jobs/{id}/trace      Perfetto trace of one cell (?cell=n)
//	POST   /drain                begin graceful drain
//
// Overload answers are load-shedding by design: 429 (queue full) and
// 503 (draining) both carry Retry-After instead of queuing the request.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Jobs())
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Job(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, "no such job")
			return
		}
		writeJSON(w, http.StatusOK, j.Status())
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.CancelJob(r.PathValue("id")); err != nil {
			writeErr(w, http.StatusNotFound, err.Error())
			return
		}
		w.WriteHeader(http.StatusAccepted)
	})
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/cells/{n}", s.handleCell)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("POST /drain", func(w http.ResponseWriter, r *http.Request) {
		s.BeginDrain()
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintln(w, "draining")
	})
	return mux
}

// maxSpecBytes bounds a POST /jobs body. A 512-cell job spec is under
// 100 KB, so the limit only ever refuses input no client of this service
// produces.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	if err == nil {
		if _, tail := dec.Token(); tail != io.EOF { // one spec is the whole body
			err = errors.New("data after the spec")
		}
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("job spec exceeds the %d-byte limit", tooBig.Limit))
			return
		}
		writeErr(w, http.StatusBadRequest, "bad job spec: "+err.Error())
		return
	}
	j, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeErr(w, http.StatusServiceUnavailable, err.Error())
		return
	case errors.Is(err, ErrJournal):
		// The journal wedges until a restart repairs it; tell the client to
		// come back once the supervisor has cycled the daemon.
		w.Header().Set("Retry-After", "5")
		writeErr(w, http.StatusServiceUnavailable, err.Error())
		return
	case errors.Is(err, ErrIdemConflict):
		writeErr(w, http.StatusConflict, err.Error())
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	st := j.Status()
	w.Header().Set("Location", "/jobs/"+j.ID())
	writeJSON(w, http.StatusAccepted, st)
}

// jobForRead resolves a job and maps its state to an HTTP answer for the
// result-bearing endpoints: 404 unknown, 202+Retry-After while pending,
// 410 canceled, 500 failed, nil error when done.
func (s *Server) jobForRead(w http.ResponseWriter, id string) (*Job, bool) {
	j, ok := s.Job(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return nil, false
	}
	st := j.Status()
	switch st.State {
	case JobDone:
		return j, true
	case JobQueued, JobRunning:
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusAccepted, "job "+st.State)
	case JobCanceled:
		writeErr(w, http.StatusGone, "job canceled: "+st.Error)
	default:
		writeErr(w, http.StatusInternalServerError, "job failed: "+st.Error)
	}
	return nil, false
}

// handleResult serves every cell payload of a done job as a JSON array,
// one cell per line. The payloads are compact JSON without a trailing
// newline, written verbatim — the exact bytes the durable store holds —
// so the response is byte-identical across daemons and restarts. The
// body is never assembled: its length is summed for the header, and the
// payloads stream out through a pooled buffer in a few large writes.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobForRead(w, r.PathValue("id"))
	if !ok {
		return
	}
	payloads, err := s.payloads(r.Context(), j, 0, len(j.plan.keys))
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	size := len("[\n\n]\n") + len(",\n")*max(len(payloads)-1, 0)
	for _, p := range payloads {
		size += len(p)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(size))
	bw := resultWriters.Get().(*bufio.Writer)
	bw.Reset(w)
	bw.WriteString("[\n")
	for i, p := range payloads {
		if i > 0 {
			bw.WriteString(",\n")
		}
		bw.Write(p)
	}
	bw.WriteString("\n]\n")
	bw.Flush()
	bw.Reset(nil)
	resultWriters.Put(bw)
}

// resultWriters recycles handleResult's write buffers: 64 KiB takes a
// 12-cell body in about one write, where writing each payload straight
// to the response costs the connection a write per payload.
var resultWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64<<10) }}

func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobForRead(w, r.PathValue("id"))
	if !ok {
		return
	}
	cells := len(j.plan.keys)
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil || n < 0 || n >= cells {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("cell index outside [0,%d)", cells))
		return
	}
	p, err := s.payloads(r.Context(), j, n, n+1)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(p[0])))
	w.Write(p[0])
}

// handleTrace serves a Perfetto (Chrome trace-event) timeline for one
// cell of a done job by deterministically re-running it with extended
// tracing enabled. Traces are large and rarely wanted, so they are
// computed on demand and not stored; every stored payload is a function
// of its cell's spec alone, so the re-run is faithful to the recorded
// result, chaos cells included.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobForRead(w, r.PathValue("id"))
	if !ok {
		return
	}
	n := 0
	if v := r.URL.Query().Get("cell"); v != "" {
		var err error
		if n, err = strconv.Atoi(v); err != nil {
			writeErr(w, http.StatusBadRequest, "bad cell index")
			return
		}
	}
	if n < 0 || n >= len(j.plan.cells) {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("cell index outside [0,%d)", len(j.plan.cells)))
		return
	}
	rc := j.plan.cells[n]
	rc.TraceN = -1
	res, err := harness.RunCtx(r.Context(), rc)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "trace re-run: "+err.Error())
		return
	}
	meta, err := obs.TraceMetaOf(res.Config)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "trace re-run: "+err.Error())
		return
	}
	meta.Extra = map[string]string{
		"job":    j.ID(),
		"cell":   strconv.Itoa(n),
		"source": "staggerd deterministic re-run",
	}
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteTrace(w, meta, res.Trace); err != nil {
		s.cfg.Logf("staggerd: trace write: %v", err)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
