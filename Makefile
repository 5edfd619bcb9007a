GO ?= go

.PHONY: help ci vet verify-static conflict-verify build test explore-smoke \
	paper race-equivalence bench bench-smoke docs-verify docs \
	daemon-smoke crash-smoke

# help lists every target with its one-line purpose (the `##` comment on
# the target line). Run `make help` when lost.
help:
	@grep -E '^[a-z][a-z-]*:.*##' $(MAKEFILE_LIST) | \
		awk -F':.*## ' '{printf "  %-16s %s\n", $$1, $$2}'

# ci is the gate: static checks, full build, full test suite (which
# includes the chaos smoke and the campaign on the paper's runtime), a
# bounded schedule-exploration smoke (adversarial scheduler + oracle),
# the IR-level static verification of every workload, the race-mode
# parallel-sweep equivalence suite, the daemon lifecycle
# smoke, the crash-recovery harness, the generated-docs drift check, and
# the perf ledger's smoke run with its own module's tests.
ci: vet build test explore-smoke verify-static conflict-verify race-equivalence daemon-smoke crash-smoke docs-verify bench-smoke ## full CI gate (all of the below)

# vet layers three static gates: formatting, the standard go vet, and
# the repo's own staggervet analyzers (determinism, ntstore, siteattr,
# errshadow, fsyncpath, ctxdone), self-hosted over the whole
# tree. Any finding exits nonzero and fails the build; an accepted one is
# waived in place with //staggervet:allow, and a stale waiver is a
# finding too.
vet: ## gofmt + go vet + staggervet analyzers (any finding fails)
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/staggervet

# verify-static proves the four IR invariants (anchor scope, lock
# order, coverage, static/dynamic conformance) on all ten workloads.
verify-static: ## IR invariants: anchor scope, lock order, coverage, conformance
	$(GO) run ./cmd/staggersim -verify-static

# conflict-verify is the static conflict-prediction gate: for every
# workload it builds the may-conflict matrix, proves advisory-lock
# sufficiency and precision, and cross-validates the matrix against the
# conflicting site pairs observed dynamically across three seeds.
conflict-verify: ## may-conflict matrix: sufficiency, precision, dynamic containment
	$(GO) run ./cmd/staggersim -verify-conflicts

build: ## go build ./...
	$(GO) build ./...

test: ## go test ./...
	$(GO) test ./...

# daemon-smoke boots the real staggerd on a kernel-assigned port with a
# throwaway store, drives one paper-table job through the HTTP lifecycle
# with staggerctl, proves a resubmission is served byte-identically from
# the durable store, then SIGTERM-drains and requires a clean exit.
daemon-smoke: ## staggerd lifecycle: submit over HTTP, store hit, SIGTERM drain
	GO=$(GO) sh scripts/daemon_smoke.sh

# crash-smoke is the crash-recovery harness: the Go half SIGKILLs the
# real daemon (and crashes it via deterministic disk failpoints) under
# -race, the shell half drives the same scenarios the way a supervisor
# would, including a staggerctl -reconnect waiter riding through a
# restart. Both assert every accepted job reaches a terminal state with
# byte-identical results and that damaged journal tails are quarantined.
# Failure artifacts (journal, store, daemon logs) land in $CRASH_ARTIFACTS.
crash-smoke: ## crash harness: SIGKILL + failpoint recovery, byte-identical results
	$(GO) test -race ./cmd/staggerd -count=1
	GO=$(GO) sh scripts/crash_smoke.sh

# explore-smoke runs 25 PCT(d=3) schedules per workload through the
# serializability oracle on two representative cells; any violation fails.
# It runs twice, at -workers 1 and -workers 2 — one and two prepared
# cells under the campaign, the only gate outside `go test` that
# exercises them — and the two outputs must be the same bytes.
EXPLORE_SMOKE = $(GO) run ./cmd/staggersim -bench list-hi,kmeans -mode staggered \
	-threads 4 -ops 160 -explore -explore-runs 25 -sched pct:3
explore-smoke: ## 25 adversarial schedules per cell through the oracle, same bytes at -workers 1 and 2
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	{ $(EXPLORE_SMOKE) -workers 1 > "$$d/w1"; s=$$?; cat "$$d/w1"; [ $$s -eq 0 ]; } && \
	$(EXPLORE_SMOKE) -workers 2 > "$$d/w2" && cmp "$$d/w1" "$$d/w2"

# race-equivalence runs the packages whose concurrency the race detector
# strengthens, whole (-short skips only the multi-second regenerations):
# internal/harness for the parallel sweep runner and the determinism-
# equivalence suite (same results and bytes at workers=1 and workers=4),
# internal/service for the lifecycle and recovery tests (drain under a
# live chaos job, cancellation, crash-restart durability, journal replay,
# resumed sweeps), and the journal, store, and fault-injection filesystem
# packages for their goroutine-leak, shutdown, and concurrent append/put
# assertions. No -run pattern: a regex naming a renamed test matches
# nothing and passes.
race-equivalence: ## harness, service, journal, vfs, chaos, store under -race -short
	$(GO) test -race -short -count=1 ./internal/harness ./internal/service \
		./internal/journal ./internal/vfs ./internal/chaos ./internal/store

# docs-verify regenerates the generated documentation sections — the
# EXPERIMENTS.md abort-attribution appendix, its cross-backend arena
# table, and the README.md repo map — and fails if the committed text
# disagrees with the source tree. Run `make docs` after changing the
# simulator, a backend, or package doc comments.
docs-verify: ## fail if generated docs sections drifted from the source
	$(GO) run ./cmd/staggerreport -appendix -backends -repomap -check

docs: ## regenerate the generated docs sections in place
	$(GO) run ./cmd/staggerreport -appendix -backends -repomap -write

# bench runs the performance ledger (bench/README.md): every workload
# of BENCHMARK.json in a fresh process each, end-to-end metrics and
# checks, non-zero exit on any failed operation or check. bench-smoke is
# the same program at sizes ~20x smaller (its numbers mean nothing) plus
# the bench module's own tests, which the root `go test ./...` does not
# descend into.
bench: ## perf ledger: all BENCHMARK.json workloads (bench/README.md)
	bash bench/run.sh

bench-smoke: ## perf ledger at smoke sizes + the bench module's tests
	bash bench/run.sh -smoke
	cd bench && $(GO) test -short ./...

paper: ## regenerate every table and figure of the paper
	$(GO) run ./cmd/paper
