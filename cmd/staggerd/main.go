// Command staggerd is the simulation daemon: the HTTP+JSON service of
// internal/service behind a listener, signals, and flags. It accepts
// jobs of cells (spelled run, sweep or chaos), executes them on a
// bounded worker pool, persists every cell result in the crash-safe
// store under -store (required), and drains gracefully on SIGTERM/SIGINT:
// readiness flips immediately, in-flight jobs get -grace to finish,
// then they are cancelled and the process exits cleanly.
//
// Typical use:
//
//	staggerd -addr 127.0.0.1:8423 -store /var/lib/staggerd &
//	staggerctl -addr 127.0.0.1:8423 submit '{"cells":[{"bench":"list-hi"}]}'
//
// With -addr ending in :0 the kernel picks a free port; -addr-file
// publishes the bound address for scripts and tests (the daemon harness
// in this package's tests uses it to avoid port races).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/vfs"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8423", "listen address (port 0 = kernel-assigned)")
		addrFile   = flag.String("addr-file", "", "write the bound address to this file once listening")
		storeDir   = flag.String("store", "", "durable result store and job journal directory (required)")
		queueDepth = flag.Int("queue", 8, "admission queue depth (full queue sheds with 429)")
		jobWorkers = flag.Int("jobs", 2, "concurrently executing jobs")
		runWorkers = flag.Int("run-workers", 0, "per-job sweep parallelism (0 = all cores)")
		jobTimeout = flag.Duration("job-timeout", 5*time.Minute, "per-job wall-clock deadline")
		grace      = flag.Duration("grace", 10*time.Second, "drain grace before in-flight jobs are cancelled")
		maxCells   = flag.Int("max-cells", 512, "largest allowed job expansion")
		failpoints = flag.String("failpoints", "", "disk failpoint spec, e.g. 'sync:jobs.wal=crash@2' (crash-harness use only)")
	)
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	log.SetPrefix("staggerd: ")
	if *storeDir == "" {
		log.Fatal("-store is required: every result is kept in a durable store")
	}

	if *runWorkers > 0 {
		harness.SetWorkers(*runWorkers)
	}
	// The disk-fault harness: failpoints wrap the store and journal
	// filesystem, and a crash failpoint kills the process for real —
	// exit 137, the same as SIGKILL — so recovery is exercised against a
	// genuinely dead daemon, not a simulated one.
	var fsys vfs.FS
	if *failpoints != "" {
		fp, err := chaos.ParseFailpoints(*failpoints)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("failpoints armed: %s", *failpoints)
		fsys = &vfs.FaultFS{Base: vfs.OS, FP: fp, OnCrash: func() {
			log.Printf("failpoint crash: dying now")
			os.Exit(137)
		}}
	}
	srv, err := service.New(service.Config{
		JobWorkers: *jobWorkers,
		QueueDepth: *queueDepth,
		JobTimeout: *jobTimeout,
		Grace:      *grace,
		MaxCells:   *maxCells,
		StoreDir:   *storeDir,
		FS:         fsys,
		Logf:       log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("listening on %s", bound)

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		log.Printf("%v: draining", s)
	case err := <-serveErr:
		log.Fatalf("serve: %v", err)
	}

	// Drain order matters: flip readiness and stop admission first, keep
	// serving HTTP so clients can poll their jobs to completion, then
	// close the listener once the pool has stopped.
	srv.BeginDrain()
	<-srv.Drained()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	m := srv.Metrics()
	fmt.Printf("staggerd: drained clean: %d done, %d failed, %d canceled, %d shed\n",
		m.Done, m.Failed, m.Canceled, m.ShedFull+m.ShedDraining)
}
