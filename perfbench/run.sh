#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; every
# argument is passed through (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Build cache, binary, temporary files
# and span dumps all stay under $CARGO_TARGET_DIR (default .bench_build)
# inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: run from the repository root: the module sources are missing" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/tmp" "$build/gomodcache"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp TMPDIR=$build/tmp GOMODCACHE=$build/gomodcache
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
export PERFBENCH_OUT=$build
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
