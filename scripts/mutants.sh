#!/usr/bin/env bash
# mutants.sh: proves that the gates catch the defects they exist for.
#
# Each mutants/NNN-name.patch plants one defect. Its preamble, the text
# before the first "diff --git" line (git apply skips it), holds:
#   Defect: what the patch breaks (one line)
#   Source: where the mutation was first recorded (one line)
#   Gate:   a shell command, run from the tree's root (one or more lines)
# Every gate must pass on the clean tree and exit non-zero under the
# mutant.
#
# The clean tree and each mutant get their own detached git worktree of
# HEAD in a temporary directory. Builds share the caller's GOCACHE and run
# with -trimpath, so a worktree rebuilds only what its patch touches.
#
# Rot fails the run as loudly as a surviving mutant:
#   - a patch that no longer applies;
#   - a mutated tree that does not build, or whose gates' test binaries
#     do not compile (a compile error is not a catch);
#   - a go test gate without -timeout (a hang must fail in bounded time);
#   - a go test -run pattern, or one of its |-alternatives, that lists
#     no test on the clean tree (go test -list);
#   - a gate that fails on the clean tree.
#
# Usage: scripts/mutants.sh [-o LOGDIR] [PATCH...]
# With no PATCH, every mutants/*.patch runs. Per-mutant logs go to
# LOGDIR; without -o they go to a temporary directory that is removed
# when every mutant is caught and kept (and named) otherwise. Prints one
# summary line per mutant and the total wall time.
set -u -o pipefail

GO=${GO:-go}
logdir=""
if [ "${1:-}" = "-o" ]; then
    [ $# -ge 2 ] || { echo "usage: $0 [-o LOGDIR] [PATCH...]" >&2; exit 2; }
    logdir=$2
    shift 2
fi

patches=()
for p in "$@"; do
    patches+=("$(realpath "$p")") || exit 2
done
root=$(git rev-parse --show-toplevel) || exit 2
cd "$root" || exit 2
[ $# -gt 0 ] || patches=("$root"/mutants/*.patch)

keep_logs=1
if [ -z "$logdir" ]; then
    logdir=$(mktemp -d)
    keep_logs=0
fi
mkdir -p "$logdir" && logdir=$(cd "$logdir" && pwd) || exit 2

tmp=$(mktemp -d)
cleanup() {
    for wt in "$tmp"/*/; do
        [ -d "$wt" ] && git worktree remove --force "$wt" >/dev/null 2>&1
    done
    git worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

export GOCACHE
GOCACHE=$("$GO" env GOCACHE) || exit 2
export GOFLAGS="-trimpath${GOFLAGS:+ $GOFLAGS}"
# Gates say `go`; this runs them with $GO.
go() { command "$GO" "$@"; }
export GO
export -f go

start=$(date +%s)

# field KEY PATCH prints the values of the preamble's KEY: lines.
field() {
    sed -n '/^diff --git /q; s/^'"$1"': //p' "$2"
}

# gotest_parts GATE sets pattern and pkgs for a `go test` gate, and
# has_timeout; returns 1 for any other command.
gotest_parts() {
    eval "set -- $1"
    [ "${1:-}" = go ] && [ "${2:-}" = test ] || return 1
    shift 2
    pattern="" pkgs=() has_timeout=0
    while [ $# -gt 0 ]; do
        case $1 in
        -run) pattern=$2; shift ;;
        -run=*) pattern=${1#-run=} ;;
        -timeout) has_timeout=1; shift ;;
        -timeout=*) has_timeout=1 ;;
        -count | -p | -skip | -bench | -benchtime | -cpu | -parallel) shift ;;
        -*) ;;
        *) pkgs+=("$1") ;;
        esac
        shift
    done
}

# listed PATTERN PKG prints how many top-level tests PATTERN lists in PKG.
listed() {
    go test -list "$1" "$2" 2>/dev/null | grep -cE '^(Test|Example|Fuzz|Benchmark)'
}

# check_gate GATE LOG checks a gate's shape and runs it on the clean tree;
# prints the reason and returns 1 if it rotted.
check_gate() {
    local gate=$1 log=$2
    if gotest_parts "$gate"; then
        if [ "$has_timeout" = 0 ]; then
            echo "go test gate without -timeout"
            return 1
        fi
        if [ -n "$pattern" ]; then
            local pkg alt any core=${pattern#^}
            core=${core%\$}
            core=${core#(}
            core=${core%)}
            for pkg in "${pkgs[@]}"; do
                if [ "$(listed "$pattern" "$pkg")" = 0 ]; then
                    echo "-run '$pattern' lists no test in $pkg"
                    return 1
                fi
            done
            case $core in *[\(\)\[\]\*\+\?\.]*) core="" ;; esac
            IFS='|' read -ra alts <<<"$core"
            for alt in "${alts[@]}"; do
                any=0
                for pkg in "${pkgs[@]}"; do
                    [ "$(listed "^$alt\$" "$pkg")" != 0 ] && any=1
                done
                if [ "$any" = 0 ]; then
                    echo "-run alternative '$alt' lists no test"
                    return 1
                fi
            done
        fi
    fi
    if ! timeout 900 bash -c "$gate" >>"$log" 2>&1; then
        echo "fails on the clean tree"
        return 1
    fi
}

# build WORKTREE LOG PATCH builds the tree and the gates' test binaries.
build() {
    local wt=$1 log=$2 patch=$3 gate pkgset=()
    while IFS= read -r gate; do
        gotest_parts "$gate" && pkgset+=("${pkgs[@]}")
    done < <(field Gate "$patch")
    (
        cd "$wt" &&
            go build ./... &&
            if [ ${#pkgset[@]} -gt 0 ]; then
                go test -count=1 -run '^$' $(printf '%s\n' "${pkgset[@]}" | sort -u) >/dev/null
            fi
    ) >>"$log" 2>&1
}

caught=0 survived=0 rot=0
say() {
    printf '%-34s %s\n' "$1" "$2"
}

# The clean tree: every distinct gate's shape, listing and pass.
clean=$tmp/clean
git worktree add --detach -q "$clean" HEAD || exit 2
log=$logdir/clean.log
t0=$(date +%s)
if ! (cd "$clean" && go build ./...) >>"$log" 2>&1; then
    say clean "ROT: HEAD does not build (log: $log)"
    exit 1
fi
declare -A seen
valid=()
ngates=0
for patch in "${patches[@]}"; do
    if ! grep -q '^diff --git ' "$patch" || [ -z "$(field Gate "$patch")" ]; then
        say "$(basename "$patch" .patch)" "ROT: no diff or no Gate: line"
        rot=$((rot + 1))
        continue
    fi
    valid+=("$patch")
    while IFS= read -r gate; do
        [ -n "${seen[$gate]:-}" ] && continue
        seen[$gate]=1
        ngates=$((ngates + 1))
        echo "== $gate" >>"$log"
        if ! why=$(cd "$clean" && check_gate "$gate" "$log"); then
            say "$(basename "$patch" .patch)" "ROT: gate '$gate': $why"
            rot=$((rot + 1))
        fi
    done < <(field Gate "$patch")
done
printf '%-34s %d distinct gates checked (%ds)\n' "clean tree" "$ngates" $(($(date +%s) - t0))
git worktree remove --force "$clean"

for patch in "${valid[@]}"; do
    name=$(basename "$patch" .patch)
    log=$logdir/$name.log
    wt=$tmp/$name
    t0=$(date +%s)
    git worktree add --detach -q "$wt" HEAD || exit 2
    if ! git -C "$wt" apply "$patch" >>"$log" 2>&1; then
        say "$name" "ROT: patch does not apply (log: $log)"
        rot=$((rot + 1))
    elif ! build "$wt" "$log" "$patch"; then
        say "$name" "ROT: mutated tree or its gate tests do not build (log: $log)"
        rot=$((rot + 1))
    else
        n=0 missed=""
        while IFS= read -r gate; do
            n=$((n + 1))
            echo "== $gate" >>"$log"
            if (cd "$wt" && timeout 900 bash -c "$gate") >>"$log" 2>&1; then
                missed="$missed $n"
            fi
        done < <(field Gate "$patch")
        if [ -n "$missed" ]; then
            say "$name" "SURVIVED gate(s)$missed of $n (log: $log)"
            survived=$((survived + 1))
        else
            printf '%-34s caught by %d/%d gates (%ds)\n' "$name" "$n" "$n" $(($(date +%s) - t0))
            caught=$((caught + 1))
        fi
    fi
    git worktree remove --force "$wt"
done

wall=$(($(date +%s) - start))
printf 'mutants: %d caught, %d survived, %d rot; wall %dm%02ds\n' \
    "$caught" "$survived" "$rot" $((wall / 60)) $((wall % 60))
if [ "$survived" -gt 0 ] || [ "$rot" -gt 0 ]; then
    echo "logs: $logdir"
    exit 1
fi
[ "$keep_logs" = 1 ] || rm -rf "$logdir"
