#!/usr/bin/env bash
# Builds the cycled daemon and the load generator from the sources of
# this checkout, then runs one benchmark workload:
#
#   bash _perfbench/run.sh --workload warm --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the root of the checkout. Build output goes to stderr; the last line
# of stdout is the result JSON.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	PATH="/usr/local/go/bin:$PATH"
fi
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
# With telemetry on (the default "local" mode), the go command forks a
# detached upload sidecar that can outlive this script. Turn it off in
# the private config directory before the first go command runs.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"

(cd "$root" && go build -o "$out/cycled" ./cmd/cycled) >&2
(cd "$root/_perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" -cycled "$out/cycled" "$@"
