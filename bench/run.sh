#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through:
#
#   bash bench/run.sh --workload serve --seed 42 --seconds 15 --trace 0
#
# The Go build cache, the binary and trace output all stay under
# .bench_build/ in the checkout, and the toolchain is kept offline.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/bench" && go build -buildvcs=false -o "$build/bench" .) >&2
# The revision is recorded only when the root is itself a git work tree.
BENCH_GIT_REV=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	BENCH_GIT_REV=$(git -C "$root" rev-parse HEAD)
fi
export BENCH_GIT_REV
cd "$root"
exec "$build/bench" "$@"
