#!/usr/bin/env bash
# Worker-pool smoke test:
#
#   1. lint preflight (includes the PAR001 worker-closure rule, the
#      PAR002 pool-resource rule and its whole-program twins
#      PAR101/EXC101 — cross-process shared-state writes and resource
#      leaks through helper returns),
#   2. run a small fig09 sweep serially and again with --workers 2 on the
#      supervised pool (--executor pool), byte-compare the artifacts,
#   3. run the pytest suites marked `parallel` or `pool` (excluded from
#      tier-1): the serial≡parallel sweeps, the fault matrix across the
#      process boundary, and the pool chaos matrix (crash/stall/corrupt
#      workers, external kill -9, SIGTERM drain).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== lint preflight =="
python -m repro.lint src

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

sweep=(fig09 --set payload_bits=256 --set runs=3)

echo "== serial reference =="
python -m repro.experiments "${sweep[@]}" --run-dir "$workdir/serial" >/dev/null

echo "== 2-worker pooled run =="
python -m repro.experiments "${sweep[@]}" --workers 2 --executor pool \
    --run-dir "$workdir/pool" >/dev/null

echo "== diff artifact =="
cmp "$workdir/serial/result.pkl" "$workdir/pool/result.pkl"
echo "   pooled artifact is byte-identical to the serial run"

echo "== pytest -m \"parallel or pool\" =="
python -m pytest tests -o addopts="" -m "parallel or pool" -q "$@"

echo "pool smoke test passed"
