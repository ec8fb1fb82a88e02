#!/usr/bin/env bash
# Builds shserved and the svcbench binary from this checkout into
# .bench_build/, then runs one benchmark pass. Run from the repository
# root; every argument is passed to svcbench, e.g.
#
#   bash svcbench/run.sh --workload predict-mix --seed 1 --seconds 30 --trace 0
#
# All build state (Go build cache, temporary files, the go command's
# local telemetry under the user config directory) stays inside
# .bench_build/ so the benchmark reads and writes only its checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/shserved || ! -f svcbench/go.mod ]]; then
	echo "svcbench: run from the repository root (need go.mod, cmd/shserved and svcbench/)" >&2
	exit 2
fi
build=$root/.bench_build
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$build/bin" "$GOTMPDIR"
go build -o "$build/bin/shserved" ./cmd/shserved
(cd svcbench && go build -o "$build/bin/svcbench" .)
exec "$build/bin/svcbench" "$@"
