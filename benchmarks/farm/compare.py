#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the BENCHMARK.json bounds.

    python3 benchmarks/farm/compare.py A.jsonl B.jsonl

Each file is a set of runs: the lines ``run.py --out FILE`` appended,
one per workload run.  For every workload × end-to-end metric the table
gives each set's median and quartiles, the disagreement of B's median
with A's (positive = worse, in the metric's own direction), each set's
own spread (quartile distance over median), and a verdict:

``ok``          B is not worse than A by more than the bound
``REGRESSION``  B is worse than A by more than the bound
``unresolved``  a set's own spread is wider than the bound, so a
                disagreement of this size cannot be told from noise

Exit code 1 when any row is a REGRESSION.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def load(path: str | Path) -> dict[str, dict[str, list[float]]]:
    """``workload -> metric -> values`` of the untraced runs in a set."""
    runs: dict[str, dict[str, list[float]]] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        run = json.loads(line)
        if run.get("traced"):
            continue
        by_metric = runs.setdefault(run["workload"], {})
        for name, value in run["metrics"].items():
            by_metric.setdefault(name, []).append(value)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(a: dict, b: dict) -> list[dict]:
    """One row per workload × end-to-end metric present in both sets."""
    rows = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            va = a.get(workload, {}).get(name)
            vb = b.get(workload, {}).get(name)
            if not va or not vb:
                continue
            a1, am, a3 = quartiles(va)
            b1, bm, b3 = quartiles(vb)
            change = (bm - am) / am
            worse = change if metric["better"] == "lower" else -change
            spread = max((a3 - a1) / am, (b3 - b1) / bm)
            if worse > metric["bound"]:
                verdict = "REGRESSION"
            elif spread > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "n": (len(va), len(vb)),
                "a": (a1, am, a3), "b": (b1, bm, b3),
                "worse": worse, "spread": spread,
                "bound": metric["bound"], "verdict": verdict,
            })
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<18}{'metric':<20}{'A q1/median/q3':>34}"
        f"{'B q1/median/q3':>34}{'worse':>9}{'spread':>8}{'bound':>7}  verdict"
    ]
    for r in rows:
        def trio(t):
            return "/".join(f"{v:.4g}" for v in t)

        lines.append(
            f"{r['workload']:<18}{r['metric']:<20}{trio(r['a']):>34}{trio(r['b']):>34}"
            f"{r['worse']:>+9.2%}{r['spread']:>8.2%}{r['bound']:>7.0%}  {r['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(load(argv[0]), load(argv[1]))
    print(render(rows))
    return 1 if any(r["verdict"] == "REGRESSION" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
