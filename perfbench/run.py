"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints a human-readable report, then
as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The full report, with provenance and saturation
evidence, is written to ``.perfbench/results/``.  Exits non-zero
without a result line when the checkout has no ``src/repro`` to run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="paper_bench",
                        help="repro.scale preset of the store (default "
                             "paper_bench; the self-test uses tiny)")
    return parser.parse_args(argv)


def declared_metrics(trace: bool) -> dict[str, str]:
    """``name -> unit`` of the metrics ``BENCHMARK.json`` declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(report: dict, declared: dict[str, str]) -> dict:
    """The machine-readable result line: declared metrics, in their units."""
    metrics = report["metrics"]
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not produced: {', '.join(missing)}")
    for name, unit in declared.items():
        if metrics[name][1] != unit:
            raise RuntimeError(f"{name} measured in {metrics[name][1]}, "
                               f"declared in {unit}")
    failed = report["result"]["failed"]
    return {"correct": failed == 0,
            "attempted": report["result"]["attempted"],
            "failed": failed,
            "metrics": {name: {"value": float(metrics[name][0]), "unit": unit}
                        for name, unit in declared.items()}}


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench

    declared = declared_metrics(bool(args.trace))
    report = bench.run(ROOT, args.workload, args.seed, args.seconds,
                       bool(args.trace), args.scale)
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=2, default=str)
                                + "\n", encoding="utf-8")
    for metric, (value, unit) in sorted(report["metrics"].items()):
        print(f"{metric:<36} {value:>14.6g} {unit}")
    phase = report["phase"]
    print(f"reads: {phase['reads']}  client_cpu_frac "
          f"{phase['client_cpu_frac']:.3f}  host_idle_frac "
          f"{phase['host_idle_frac']:.3f}  host_speed "
          f"{phase['reference']['host_speed']:.3f}  report: "
          f".perfbench/results/{name}")
    print(json.dumps(result_line(report, declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
