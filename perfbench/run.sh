#!/usr/bin/env bash
# Build the FVN benchmark from this checkout's sources and run one
# workload.  Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
#
# The first run builds the repository's libraries (a minute or two);
# later runs reuse the build.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of an FVN checkout" >&2
  exit 2
fi

dune build --root . ./perfbench/fvnbench.exe 1>&2
exec ./_build/default/perfbench/fvnbench.exe "$@"
