// Command staggerctl is the client for staggerd: submit jobs, poll
// them, and fetch results, metrics, and traces over the daemon's
// HTTP+JSON API.
//
//	staggerctl -addr HOST:PORT submit SPEC-JSON|@file|-   # -> job id
//	staggerctl -addr HOST:PORT status JOB
//	staggerctl -addr HOST:PORT wait JOB                   # poll until terminal
//	staggerctl -addr HOST:PORT result JOB
//	staggerctl -addr HOST:PORT cell JOB N                 # one cell, exact stored bytes
//	staggerctl -addr HOST:PORT trace JOB N                # Perfetto timeline JSON
//	staggerctl -addr HOST:PORT cancel JOB
//	staggerctl -addr HOST:PORT jobs | metrics | health | drain
//
// The spec is staggerd's JobSpec JSON, passed through verbatim. Cells
// pick a concurrency-control backend with the "backend" field and
// sweeps cross a "backends" axis; both are validated at submit time:
//
//	staggerctl -addr :8080 submit '{"cells":[{"bench":"kmeans","backend":"occ","oracle":true}]}'
//	staggerctl -addr :8080 submit '{"benchmarks":["intruder"],"backends":["htm","occ","limited"]}'
//
// The exit code is 0 on success, 1 on any HTTP or job-level failure
// (wait exits 1 if the job ends failed or canceled), so shell scripts
// can chain verbs with && safely; cmd/staggerd's tests drive the verbs
// against the real daemon.
//
// Read-only verbs (status, wait, result, cell, trace, jobs, metrics,
// health) retry connection-level failures — refused dials, connections
// severed by a dying daemon — with capped exponential backoff for
// -reconnect: a daemon that crashed and is being restarted by its
// supervisor recovers its journal and answers again, so a polling
// client should ride through the restart window instead of failing the
// pipeline. Mutating verbs never auto-retry.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"
)

func main() {
	addr := flag.String("addr", os.Getenv("STAGGERD_ADDR"), "daemon address host:port (or $STAGGERD_ADDR)")
	interval := flag.Duration("poll", 200*time.Millisecond, "wait: polling interval")
	timeout := flag.Duration("timeout", 10*time.Minute, "wait: give up after this long")
	reconnect := flag.Duration("reconnect", 15*time.Second, "read verbs: keep retrying refused connections this long (0 = fail fast)")
	flag.Parse()
	if *addr == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: staggerctl -addr HOST:PORT VERB [ARGS] (see package doc)")
		os.Exit(2)
	}
	c := client{base: "http://" + *addr, reconnect: *reconnect}

	verb, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch verb {
	case "submit":
		err = c.submit(args)
	case "status":
		err = c.getJSON("/jobs/"+one(args, "job id"), os.Stdout)
	case "wait":
		err = c.wait(one(args, "job id"), *interval, *timeout)
	case "result":
		err = c.getJSON("/jobs/"+one(args, "job id")+"/result", os.Stdout)
	case "cell":
		if len(args) != 2 {
			fail("cell needs JOB and N")
		}
		err = c.getJSON("/jobs/"+args[0]+"/cells/"+args[1], os.Stdout)
	case "trace":
		if len(args) != 2 {
			fail("trace needs JOB and N")
		}
		err = c.getJSON("/jobs/"+args[0]+"/trace?cell="+args[1], os.Stdout)
	case "cancel":
		err = c.do("DELETE", "/jobs/"+one(args, "job id"), nil, io.Discard)
	case "jobs":
		err = c.getJSON("/jobs", os.Stdout)
	case "metrics":
		err = c.getJSON("/metrics", os.Stdout)
	case "health":
		err = c.getJSON("/healthz", os.Stdout)
	case "drain":
		err = c.do("POST", "/drain", nil, os.Stdout)
	default:
		fail("unknown verb " + verb)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "staggerctl:", err)
		os.Exit(1)
	}
}

func one(args []string, what string) string {
	if len(args) != 1 {
		fail("need exactly one " + what)
	}
	return args[0]
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "staggerctl:", msg)
	os.Exit(2)
}

type client struct {
	base      string
	reconnect time.Duration
}

// do performs one request and copies the body to out; non-2xx answers
// become errors carrying the server's JSON error message.
func (c client) do(method, path string, body io.Reader, out io.Writer) error {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(b)))
	}
	_, err = io.Copy(out, resp.Body)
	return err
}

// retryable reports whether err is a connection-level failure from
// before any response bytes arrived — a refused dial, or a connection
// the daemon's death severed mid-request (reset, unexpected EOF). Those
// all surface as *url.Error from Client.Do, so nothing has been copied
// to out yet and a retry cannot duplicate output; errors while reading
// a response body arrive unwrapped and are never retried. HTTP-level
// answers (any status code) are never retried either.
func retryable(err error) bool {
	var ue *url.Error
	if !errors.As(err, &ue) {
		return false
	}
	var oe *net.OpError
	return errors.As(err, &oe) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// getJSON is the read path: side-effect-free GETs, so retrying across a
// daemon restart is always safe. Connection failures back off
// exponentially (100ms doubling to a 2s cap) until the -reconnect
// budget runs out; nothing has been written to out when one happens, so
// a retry never duplicates output.
func (c client) getJSON(path string, out io.Writer) error {
	const backoffCap = 2 * time.Second
	delay := 100 * time.Millisecond
	deadline := time.Now().Add(c.reconnect)
	for {
		err := c.do("GET", path, nil, out)
		if err == nil || !retryable(err) || !time.Now().Before(deadline) {
			return err
		}
		fmt.Fprintf(os.Stderr, "staggerctl: %v; retrying in %v\n", err, delay)
		time.Sleep(delay)
		if delay *= 2; delay > backoffCap {
			delay = backoffCap
		}
	}
}

// submit reads the job spec from the argument ('-' or @file for
// indirection), posts it, prints the accepted job's id on stdout.
func (c client) submit(args []string) error {
	raw := one(args, "job spec (JSON, @file, or -)")
	var spec []byte
	var err error
	switch {
	case raw == "-":
		spec, err = io.ReadAll(os.Stdin)
	case strings.HasPrefix(raw, "@"):
		spec, err = os.ReadFile(raw[1:])
	default:
		spec = []byte(raw)
	}
	if err != nil {
		return err
	}
	var buf strings.Builder
	if err := c.do("POST", "/jobs", strings.NewReader(string(spec)), &buf); err != nil {
		return err
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &st); err != nil {
		return fmt.Errorf("bad submit response: %w", err)
	}
	fmt.Println(st.ID)
	return nil
}

// wait polls the job until it reaches a terminal state, printing the
// final status JSON; failed or canceled jobs exit nonzero via error.
func (c client) wait(id string, interval, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var buf strings.Builder
		if err := c.getJSON("/jobs/"+id, &buf); err != nil {
			return err
		}
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(buf.String()), &st); err != nil {
			return fmt.Errorf("bad status: %w", err)
		}
		switch st.State {
		case "done":
			fmt.Print(buf.String())
			return nil
		case "failed", "canceled":
			fmt.Print(buf.String())
			return fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s still %s after %v", id, st.State, timeout)
		}
		time.Sleep(interval)
	}
}
