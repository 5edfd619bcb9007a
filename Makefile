GO ?= go

.PHONY: help ci vet build test explore-smoke \
	paper race bench bench-smoke docs-verify docs \
	crash-smoke mutants

# help lists every target with its one-line purpose (the `##` comment on
# the target line). Run `make help` when lost.
help:
	@grep -E '^[a-z][a-z-]*:.*##' $(MAKEFILE_LIST) | \
		awk -F':.*## ' '{printf "  %-16s %s\n", $$1, $$2}'

# ci is the gate: static checks, full build, full test suite (which
# includes the chaos smoke and the campaign on the paper's runtime), a
# bounded schedule-exploration smoke (adversarial scheduler + oracle),
# the whole suite once more under the race detector (the daemon harness
# included), the generated-docs drift check, and the perf ledger's smoke
# run with its own module's tests.
ci: vet build test explore-smoke race docs-verify bench-smoke ## full CI gate (all of the below)

# vet layers two static gates over the whole tree: formatting and the
# standard go vet, run in the root module and again in the bench module,
# which the root `go vet ./...` does not descend into but which imports
# the durable layers. Any finding exits nonzero and fails the build.
vet: ## gofmt + go vet over both modules (any finding fails)
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

build: ## go build ./...
	$(GO) build ./...

# test also runs every BenchmarkHot* kernel once, so a kernel whose
# self-check fails (or that no longer builds) fails the suite.
test: ## go test ./... plus one pass of the htm hot-path kernels
	$(GO) test ./...
	$(GO) test -run '^$$' -bench BenchmarkHot -benchtime 1x ./internal/htm

# crash-smoke is the one daemon harness, cmd/staggerd's tests, under
# -race: the slice of `race` to run by hand after a daemon change. They boot the real staggerd and staggerctl binaries. The
# lifecycle test drives one paper-table job through the staggerctl verbs
# (health, submit, wait, result, metrics), proves a resubmission is
# served byte-identically (within one life, from the held index, without
# a store read), then SIGTERM-drains and requires exit 0. The crash tests
# SIGKILL the daemon (and crash it via deterministic disk failpoints),
# restart it over the same store, and assert that every accepted job
# reaches a terminal state with byte-identical results read back from
# the store, that a staggerctl -reconnect waiter rides through the
# restart, and that a torn journal tail is truncated at boot with no copy
# kept beside the journal.
# A failing scenario prints the daemon's log.
crash-smoke: ## daemon harness: staggerctl lifecycle, SIGTERM drain, SIGKILL + failpoint recovery
	$(GO) test -race ./cmd/staggerd -count=1

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

# race runs every package's tests once under the race detector, whole
# (no -short) and uncached. In one simulation the cores are coroutines
# on a single goroutine, and the cores of internal/htm's engine wake each
# other by calling a coroutine's resume or yield from a goroutine other
# than its body's; around that, the parallel sweep runner, the service
# (drain, cancellation, crash-restart durability, journal replay,
# resumed sweeps), the journal, store and fault-injection filesystem, and
# cmd/staggerd's daemon harness are concurrent. No package list and no
# -run pattern: a package or test added later is covered without an edit.
# internal/harness alone takes 14 min under -race on 2 vCPUs (54 s
# without), past go test's default 10-minute deadline, hence -timeout.
race: ## every package's tests under -race, once, uncached
	$(GO) test -race -count=1 -timeout 30m ./...

# docs-verify regenerates every generated documentation section — in
# EXPERIMENTS.md, each of cmd/paper's sections as the exact text it
# prints, the cross-backend arena table and the abort-attribution
# appendix; in README.md, the repo map — and fails if the committed text
# disagrees with the source tree. Run `make docs` after changing the
# simulator, a backend, or package doc comments.
docs-verify: ## fail if generated docs sections drifted from the source
	$(GO) run ./cmd/staggerreport -check

docs: ## regenerate the generated docs sections in place
	$(GO) run ./cmd/staggerreport -write

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

# mutants is the mutation catalogue (DESIGN.md, "Mutation catalogue"):
# each mutants/*.patch is applied to a throwaway git worktree of HEAD and
# every Gate: line of its preamble must fail there, having passed on the
# clean tree. A patch that no longer applies or builds, or a -run pattern
# that lists no test, fails the run as rot. Not part of ci: it rebuilds
# and re-runs gates once per mutant. `bash scripts/mutants.sh -o DIR
# mutants/017-*.patch` runs one mutant and keeps its logs in DIR.
mutants: ## apply every mutants/*.patch and require each of its gates to fail
	GO=$(GO) bash scripts/mutants.sh

paper: ## regenerate every table and figure of the paper
	$(GO) run ./cmd/paper
