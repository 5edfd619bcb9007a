package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// A GET passes only on 200: the 202 a pending job's result, cell or
// trace answers carries an error object, not a payload, so it must fail
// the verb with nothing written to out.
func TestGetJSONRequires200(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/jobs/job-000001/result" {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintln(w, `{"error":"job queued"}`)
			return
		}
		fmt.Fprint(w, "[\n{\"key\":\"k\"}\n]\n")
	}))
	defer srv.Close()
	c := client{base: srv.URL}

	var out strings.Builder
	err := c.getJSON("/jobs/job-000001/result", &out)
	if err == nil || !strings.Contains(err.Error(), "job queued") {
		t.Fatalf("202 answer: err %v, want an error carrying the server's message", err)
	}
	if out.Len() != 0 {
		t.Fatalf("202 answer wrote %q to out, want nothing", out.String())
	}
	if err := c.getJSON("/jobs/job-000002/result", &out); err != nil {
		t.Fatalf("200 answer: %v", err)
	}
	if got := out.String(); got != "[\n{\"key\":\"k\"}\n]\n" {
		t.Fatalf("200 answer wrote %q", got)
	}
}
