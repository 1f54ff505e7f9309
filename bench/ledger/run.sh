#!/bin/sh
# Benchmark entry point.  Builds dgmc_ledger from the sources of the
# checkout it is run from (build output in .bench_build/, no shared dune
# cache), then runs it with the given arguments:
#
#   sh bench/ledger/run.sh --workload W --seed S --seconds N --trace 0|1
#
# Run it from the root of the checkout.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench/ledger/dune ]; then
  echo "run.sh: run from the root of a dgmc checkout (needs dune-project, lib/ and bench/ledger/)" >&2
  exit 2
fi

if command -v dune >/dev/null 2>&1; then dune=dune; else dune="opam exec -- dune"; fi
$dune build --root . --build-dir .bench_build --cache disabled --profile release \
  ./bench/ledger/dgmc_ledger.exe >&2

exec ./.bench_build/default/bench/ledger/dgmc_ledger.exe "$@"
