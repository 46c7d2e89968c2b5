#!/bin/sh
# Build the benchmark from source, then run it.  Run from the root of a
# checkout:  sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# See perfbench/NOTES.md for the workloads and metrics.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune-project ]; then
  echo "perfbench: run from the root of a diagres checkout (dune-project, lib/ not found)" >&2
  exit 2
fi
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
build="${CARGO_TARGET_DIR:-.bench_build}"
DUNE_CACHE=disabled dune build --root . --build-dir "$build" --profile release \
  ./perfbench/bin/bench.exe >&2
exec "$build/default/perfbench/bin/bench.exe" "$@"
