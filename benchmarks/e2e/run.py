"""The repo's end-to-end benchmark: one command, four workloads.

    python3 benchmarks/e2e/run.py                      # every workload
    python3 benchmarks/e2e/run.py --workload recover --seed 3
    python3 benchmarks/e2e/run.py --workload serve-durable --traced
    python3 benchmarks/e2e/run.py --repeat 10           # spreads vs bounds

A single-workload run prints every metric by name with its unit and ends
with one JSON line (``correct``, ``attempted``, ``failed``, ``metrics``):
the end-to-end metrics, or with ``--trace 1`` the per-layer metrics.  Any
output that differs from the in-process oracle makes the exit code 1.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

from e2e_stats import quartiles, spread, worsening

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seeds every generated input, and nothing else")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length the workloads size themselves for "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also replay in-process under timing proxies "
                             "and report the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the smoke test; never compared")
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="run N full sets and print spread / bound")
    args = parser.parse_args(argv)
    args.trace = 1 if args.traced else args.trace
    return args


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ------------------------------------------------------------- one workload


def fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return f"{value:,}"
    return f"{value:,.4f}" if abs(value) < 100 else f"{value:,.1f}"


def print_result(result: dict, tables) -> None:
    end_to_end, per_layer = tables
    scale = "SMOKE SCALE - not comparable" if result["smoke"] else "full scale"
    print(f"== {result['workload']}  seed={result['seed']}  ({scale})")
    print(f"   correct={result['correct']}  attempted={result['attempted']:,}"
          f"  failed={result['failed']:,}")
    for problem in result["problems"]:
        print(f"   PROBLEM: {problem}")
    print("-- end-to-end, tracing off")
    for name, (unit, better) in end_to_end.items():
        print(f"   {name:<44}{fmt(result['end_to_end'][name]):>14} {unit}"
              f"   ({better} is better)")
    notify = result["samples"].get("notify", {})
    print("-- measured with tracing off, no bound")
    for name, value in result["secondary"].items():
        unit = per_layer[name][0]
        remark = ""
        if name == "e2e.notify_ms_p90":
            remark = (
                f"   (n={notify.get('samples')}; "
                + ("p90 has >= 10 samples beyond it"
                   if notify.get("p90_supported")
                   else "too few samples for a p90"
                   + (f"; highest supported is p{notify['highest_supported']}"
                      if notify.get("highest_supported") else ""))
                + ")"
            )
        print(f"   {name:<44}{fmt(value):>14} {unit}{remark}")
    late = result["samples"].get("gen_late_ms")
    if late:
        print(f"   {'gen.late_ms p99 / max':<44}"
              f"{late['p99']:>8.3f} /{late['max']:>7.3f} ms"
              f"   ({late['frames']} paced frames)")
    if result["per_layer"] is None:
        return
    print("-- per layer, from the traced in-process replay")
    for name, (unit, _better) in per_layer.items():
        if name in result["secondary"]:
            continue
        print(f"   {name:<44}{fmt(result['per_layer'][name]):>14} {unit}")
    wall = result["waterfall_wall"]
    rows = result["waterfall"]
    print(f"-- waterfall: self seconds per layer vs the untraced wall "
          f"({wall:.4f} s)")
    for name, seconds in sorted(rows.items(), key=lambda kv: -kv[1]):
        print(f"   {name:<44}{seconds:>14.4f} s {seconds / wall:>8.1%}")
    total = sum(rows.values())
    print(f"   {'sum':<44}{total:>14.4f} s {total / wall:>8.1%}")
    print(f"   probes_missing: {', '.join(result['probes_missing']) or 'none'}")
    print(f"   spans: {result['span_file']}")


def result_line(result: dict, tables) -> str:
    end_to_end, per_layer = tables
    if result["per_layer"] is None:
        values, units = result["end_to_end"], end_to_end
    else:
        values, units = result["per_layer"], per_layer
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": units[name][0]}
            for name in units
        },
    })


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import e2e_workloads as workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result = workloads.run_workload(args.workload, args)
    except workloads.BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    tables = (workloads.END_TO_END, workloads.PER_LAYER)
    print_result(result, tables)
    print(result_line(result, tables), flush=True)
    return 0 if result["correct"] else 1


# ------------------------------------------------------- sets of workloads


def child_command(args, workload: str, seed: int, trace: int) -> list:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    return command


def run_child(args, workload: str, seed: int, trace: int, quiet: bool):
    """One workload in a fresh process; returns (exit code, result line)."""
    proc = subprocess.run(
        child_command(args, workload, seed, trace),
        stdout=subprocess.PIPE, text=True, timeout=900,
    )
    lines = proc.stdout.splitlines()
    if not quiet:
        print("\n".join(lines[:-1]))
    try:
        parsed = json.loads(lines[-1]) if lines else None
    except ValueError:
        parsed = None
    return proc.returncode, parsed


def run_all(args, names) -> int:
    worst = 0
    for workload in names:
        code, _ = run_child(args, workload, args.seed, args.trace, quiet=False)
        worst = max(worst, code)
        print()
    return worst


def run_repeat(args, names, contract: dict) -> int:
    """N full sets, alternating the invocation order; spread against bound."""
    metrics = {m["name"]: m for m in contract["end_to_end"]}
    values = {w: {m: [] for m in metrics} for w in names}
    worst = 0
    for index in range(args.repeat):
        order = names if index % 2 == 0 else list(reversed(names))
        for workload in order:
            started = time.perf_counter()
            code, parsed = run_child(
                args, workload, args.seed + index, 0, quiet=True
            )
            worst = max(worst, code)
            took = time.perf_counter() - started
            print(f"set {index + 1}/{args.repeat}  {workload:<16} "
                  f"exit={code}  {took:6.1f} s", flush=True)
            if parsed is None:
                continue
            for name in metrics:
                values[workload][name].append(parsed["metrics"][name]["value"])
    label = "SMOKE SCALE - not comparable; " if args.smoke else ""
    print(f"\n{label}{args.repeat} sets, seeds {args.seed}.."
          f"{args.seed + args.repeat - 1}; spread = (q3 - q1) / median")
    print(f"{'workload':<16}{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}{'s/b':>6}  halves  verdict")
    for workload in names:
        for name, metric in metrics.items():
            series = values[workload][name]
            if len(series) < 2:
                print(f"{workload:<16}{name:<16}  too few runs")
                continue
            q1, median, q3 = quartiles(series)
            share = spread(series)
            bound = metric["bound"]
            half = len(series) // 2
            drift = worsening(
                sorted(series[:half])[half // 2],
                sorted(series[half:])[(len(series) - half) // 2],
                metric["better"],
            )
            # setup_s is held to its bound on the drift between the halves
            # only: its spread follows the seed's trace, not the code.
            resolved = (name == "setup_s" or share <= bound) and drift <= bound
            print(f"{workload:<16}{name:<16}{median:>12.4f}{q1:>12.4f}"
                  f"{q3:>12.4f}{share:>9.3f}{bound:>7.3f}"
                  f"{share / bound if bound else float('inf'):>6.2f}"
                  f"{drift:>+8.3f}  {'PASS' if resolved else 'UNRESOLVED'}")
            print(f"{'':<32}runs: " + " ".join(f"{v:.4g}" for v in series))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing (the "
              f"benchmark runs from a checkout of the whole repository)",
              file=sys.stderr)
        return 2
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    if args.workload is not None and not args.repeat:
        return run_one(args)
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None:
        names = [args.workload]
    if args.repeat:
        return run_repeat(args, names, contract)
    return run_all(args, names)


if __name__ == "__main__":
    sys.exit(main())
