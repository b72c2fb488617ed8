#!/usr/bin/env bash
# Builds bloomrfd and the benchmark program from the checkout this is run
# in, then runs the program with the given arguments. Run it from the
# repository root:
#
#   bash bench/run.sh --workload point-binary-large --seed 1 --seconds 15 --trace 0
#
# The Go build cache, binaries, data directories, server logs and span
# files all stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/bin/bloomrfd" ./cmd/bloomrfd
(cd bench && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" -bloomrfd "$out/bin/bloomrfd" -work "$out/work" "$@"
