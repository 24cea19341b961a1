#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it. Run from the root
# of a checkout:
#
#   bash pipebench/run.sh --workload solve-twitter --seed 1 --seconds 20 --trace 0
#   bash pipebench/run.sh compare BASE_DIR HEAD_DIR
#
# Everything the build writes (Go build cache, module cache, the binary)
# stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export CGO_ENABLED=0
export TMPDIR="$out/tmp"
export GIT_CONFIG_NOSYSTEM=1
export GIT_CONFIG_GLOBAL=/dev/null

(cd "$here" && go build -o "$out/bin/pipebench" .) >&2
exec "$out/bin/pipebench" "$@"
