#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there. Everything the build writes — Go's build
# cache included — stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$root/bench"
	GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" XDG_CONFIG_HOME="$build/config" \
		GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
		go build -o "$build/stagger-bench" .
)
cd "$root"
BENCH_EXEC_NS="$(date +%s%N)" exec "$build/stagger-bench" "$@"
