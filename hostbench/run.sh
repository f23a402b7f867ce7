#!/usr/bin/env bash
# Builds the host-cost benchmark from source and runs it with the arguments
# given, from the root of an altoos checkout:
#
#   bash hostbench/run.sh --workload fanin --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, profile)
# stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "hostbench: run from the root of an altoos checkout" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOENV=off

(cd "$root/hostbench" && go build -o "$build/hostbench" .)
exec "$build/hostbench" -scratch "$build" "$@"
