#!/usr/bin/env bash
# Builds schedd and the schedbench program from the checkout this script
# sits in, then runs schedbench with the given arguments:
#
#   bash schedbench/run.sh --workload http-interactive --seed 1 --seconds 35 --trace 0
#
# Run it from the repository root. Build products, the Go build cache,
# daemon data directories and span files all stay under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/schedd || ! -f schedbench/go.mod ]]; then
	echo "schedbench: run from the repository root (go.mod, cmd/schedd and schedbench/ must exist)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0

# Build outside every timed region and outside setup_s.
go build -o "$out/schedd" ./cmd/schedd
(cd schedbench && go build -o "$out/schedbench" .)

exec "$out/schedbench" -schedd "$out/schedd" -work "$out" "$@"
