"""CI perf gate: compare fresh bench JSON against the committed baselines.

Usage::

    python benchmarks/check_regression.py \\
        --baseline /tmp/perf-baseline --current benchmarks/results \\
        --tolerance 0.25 incremental_akg incremental_ranking

For every named bench the script loads ``<dir>/<name>.json`` (schema of
``_results.py``) from both directories and fails (exit 1) when the current
``speedup`` ratio has regressed by more than ``--tolerance`` relative to the
baseline.  Ratios — not wall seconds — are compared because they transfer
across machines; wall times are printed for context only.

A comparison is skipped (with a notice, not a failure) when the baseline
records no ``speedup`` (ratio-free benches).

A missing or unparseable baseline file is a FAILURE with regeneration
instructions, never a traceback: a silently absent baseline would turn the
whole gate into a no-op.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


class MissingBaseline(Exception):
    """A named bench has no JSON on one side of the comparison."""


def load(directory: Path, name: str) -> dict:
    path = directory / f"{name}.json"
    if not path.exists():
        raise MissingBaseline(
            f"{name}: no result file at {path}.\n"
            f"  Regenerate it with\n"
            f"      PYTHONPATH=src python benchmarks/bench_{name}.py\n"
            f"  and commit benchmarks/results/{name}.json if this bench "
            f"was newly added to the gate list."
        )
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise MissingBaseline(
            f"{name}: {path} is not valid JSON ({exc}); regenerate it "
            f"with PYTHONPATH=src python benchmarks/bench_{name}.py"
        ) from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path, required=True)
    parser.add_argument("--current", type=Path, required=True)
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional speedup drop (default 0.25)")
    parser.add_argument("benches", nargs="+")
    args = parser.parse_args(argv)

    failures = []
    for name in args.benches:
        try:
            base = load(args.baseline, name)
            cur = load(args.current, name)
        except MissingBaseline as exc:
            print(f"FAIL {exc}")
            failures.append(str(exc).splitlines()[0])
            continue
        base_speedup = base.get("speedup")
        cur_speedup = cur.get("speedup")
        context = (
            f"wall {base.get('wall_s')}s -> {cur.get('wall_s')}s, "
            f"quanta {base.get('quanta')} -> {cur.get('quanta')}"
        )
        if base_speedup is None:
            print(f"SKIP {name}: baseline records no speedup ({context})")
            continue
        if cur_speedup is None:
            failures.append(f"{name}: current run recorded no speedup")
            continue
        floor = base_speedup * (1.0 - args.tolerance)
        verdict = "OK" if cur_speedup >= floor else "REGRESSION"
        print(
            f"{verdict} {name}: speedup {base_speedup:.2f} -> "
            f"{cur_speedup:.2f} (floor {floor:.2f}; {context})"
        )
        if cur_speedup < floor:
            failures.append(
                f"{name}: speedup {cur_speedup:.2f} fell below "
                f"{floor:.2f} (baseline {base_speedup:.2f}, tolerance "
                f"{args.tolerance:.0%})"
            )
    if failures:
        print("\nperf-smoke gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nperf-smoke gate passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
