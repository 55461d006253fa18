#!/bin/sh
# Pre-merge gate: static analysis clean, docs in sync, then tier-1 and the
# net-marked socket tests pass, a short sim-window benchmark run keeps
# its reply check and its identical-op-counts-every-round check, and a
# short asyncio-sync run keeps the live path's reply check.
# Run from the repo root:  sh tools/check.sh
# Fast mode (analysis + docs + unit tests only, skips integration and net):
#   sh tools/check.sh --fast
set -e

cd "$(dirname "$0")/.."
export PYTHONPATH=src

FAST=0
case "${1:-}" in
    --fast) FAST=1 ;;
    "") ;;
    *) echo "usage: sh tools/check.sh [--fast]" >&2; exit 2 ;;
esac

echo "== repro.analysis (invariant linter) =="
python -m repro.analysis src

echo "== docs (CLI examples + rule tables in sync) =="
python tools/check_docs.py

if [ "$FAST" = 1 ]; then
    echo "== unit + property tests (fast mode) =="
    python -m pytest -x -q tests/unit tests/property
else
    echo "== tier-1 tests (soak + net excluded) =="
    python -m pytest -x -q
    echo "== localhost TCP-socket (net) tests =="
    python -m pytest -q -m net
    echo "== perfbench sim-window smoke (replies + repeatable op counts) =="
    python3 perfbench/run.py --workload sim-window --seed 1 --seconds 3 --trace 0
    echo "== perfbench asyncio-sync smoke (live-path replies) =="
    python3 perfbench/run.py --workload asyncio-sync --seed 1 --seconds 3 --trace 0
fi

echo "== all gates passed =="
