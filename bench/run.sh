#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. The build
# and its caches stay inside the checkout, under .bench_build/.
#
#   bash bench/run.sh --workload dse.paper --seed 1 --seconds 12 --trace 0
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: $(pwd) holds no go.mod and internal/: the benchmark builds the repository's sources" >&2
	exit 2
fi
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
go build -o "$build/sst-bench" ./bench
exec "$build/sst-bench" "$@"
