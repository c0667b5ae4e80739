#!/usr/bin/env python3
"""benchmarks/farm: the wall-clock ledger of the live task farm.

    python3 benchmarks/farm/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE]

Runs the named workload (all four when omitted), checks every result,
and prints every metric by name with its unit.  Untraced, a workload is
``R = 3`` repetitions on fresh stacks and each end-to-end metric is
their median; traced (``--trace 1``, or its alias ``--traced``), it is
one untraced and one traced repetition plus layer probes, and the
per-layer metrics are printed.  ``--seconds`` scales the item counts
(``S / run_seconds``); the work of a run is fixed by its arguments.

With ``--workload`` the last line of stdout is the result object the
benchmark contract prescribes::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

See README.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"benchmarks/farm: the program under test is not at {SRC}")
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402

import stack  # noqa: E402
from workloads import WORKLOADS, Rep, Workload  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())

#: A calibration probe this much slower than the fastest probe of the
#: invocation marks the machine as disturbed.  The probe's own A/A
#: spread on a quiet box is 3-4 % (README, "noise guard").
DISTURBED_RATIO = 1.10


# ---------------------------------------------------------------------------
# noise guard
# ---------------------------------------------------------------------------


def _calibration_loop() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    vec = np.arange(100_000, dtype=np.float64)
    for _ in range(15):
        vec = np.sqrt(vec * vec + 1.0)
    return (time.perf_counter() - start) * 1e3


def calibrate() -> float:
    """A fixed ~0.2 s of pure-Python + numpy work; returns the fastest
    of its sixteen ~12 ms sub-loops in ms (a speed state lasts seconds,
    a scheduler blip one sub-loop).  Never used to normalise a metric —
    only to tell whether the machine was disturbed around a repetition."""
    return min(_calibration_loop() for _ in range(16))


class NoiseGuard:
    """Calibration probes around every repetition.

    A repetition next to a probe more than 10 % slower than the fastest
    probe of the invocation is counted as disturbed.  It is reported,
    not re-run: the repetitions of an invocation, and so its
    ``attempted``, are the same on every run.
    """

    def __init__(self):
        self.probes: list[float] = []

    def probe(self) -> float:
        self.probes.append(calibrate())
        return self.probes[-1]

    def disturbed(self, probes: list[float]) -> int:
        """How many of *probes* (one per repetition: the slower of the
        two around it) are slow against the whole invocation."""
        return sum(p > DISTURBED_RATIO * min(self.probes) for p in probes)


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------


def _git_sha() -> str:
    head = REPO / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (REPO / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown"  # the driver's checkout is not a git repository


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def envelope(seed: int, seconds: float, repetitions: int) -> dict:
    return {
        "git": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "fs": stack.fs_type(HERE),
        "seed": seed,
        "seconds": seconds,
        "R": repetitions,
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


class IncorrectResult(Exception):
    """A correctness check failed; carries the reasons."""


def _checked(workload: Workload, rep: Rep, sizes: dict) -> Rep:
    bad = workload.check(rep, sizes)
    if bad:
        raise IncorrectResult(f"{workload.name}: " + "; ".join(bad))
    return rep


def _guarded_rep(workload, work, seed, sizes, traced, guard) -> tuple[Rep, float]:
    """One repetition between two probes; returns it with the slower
    of the two."""
    before = guard.probes[-1]
    rep = _checked(workload, workload.repetition(work, seed, sizes, traced), sizes)
    after = guard.probe()
    return rep, max(before, after)


def _same_digest(workload: Workload, reps: list[Rep]) -> None:
    digests = {workload.digest(rep) for rep in reps}
    if len(digests) > 1:
        raise IncorrectResult(
            f"{workload.name}: result digest differs between repetitions: {digests}"
        )


def warm_up(workload: Workload, work: Path, sizes: dict, guard: NoiseGuard) -> None:
    """Byte-compile the program and the benchmark, then one throw-away
    start, so whichever side runs first does not pay for ``.pyc`` files
    and a cold page cache."""
    for tree in (SRC, HERE):
        compileall.compile_dir(str(tree), quiet=2, workers=1)
    workload.warm(work, sizes)
    guard.probe()


def run_untraced(workload: Workload, work: Path, seed: int, sizes: dict, guard) -> dict:
    """``R`` repetitions; every end-to-end value is their median."""
    warm_up(workload, work, sizes, guard)
    runs = [
        _guarded_rep(workload, work, seed, sizes, False, guard)
        for _ in range(workload.repetitions)
    ]
    reps = [rep for rep, _probe in runs]
    _same_digest(workload, reps)
    setups = [rep.setup_s for rep in reps]
    for _ in range(workload.setup_only_cycles):
        setups.append(
            workload.repetition(work, seed, sizes, False, setup_only=True).setup_s
        )
    median = statistics.median
    return {
        "metrics": {
            "makespan_s": median(r.makespan_s for r in reps),
            "items_per_s": median(r.items / r.makespan_s for r in reps),
            "farm_cpu_s": median(r.farm_cpu_s for r in reps),
            "server_peak_rss_mb": median(r.server_peak_rss_mb for r in reps),
            "setup_s": median(setups),
        },
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "reps": [
            {
                "makespan_s": r.makespan_s,
                "farm_cpu_s": r.farm_cpu_s,
                "server_peak_rss_mb": r.server_peak_rss_mb,
                "setup_s": r.setup_s,
            }
            for r in reps
        ],
        "setup_samples": len(setups),
        "items": reps[0].items,
        "disturbed_reps": guard.disturbed([probe for _rep, probe in runs]),
        "calib_ms": guard.probes,
    }


def run_traced(workload: Workload, work: Path, seed: int, sizes: dict, guard) -> dict:
    """One untraced and one traced repetition, then the layer probes."""
    import layers

    warm_up(workload, work, sizes, guard)
    plain, plain_probe = _guarded_rep(workload, work, seed, sizes, False, guard)
    traced, traced_probe = _guarded_rep(workload, work, seed, sizes, True, guard)
    _same_digest(workload, [plain, traced])
    disturbed = guard.disturbed([plain_probe, traced_probe])
    values, bad = layers.per_layer(
        workload, work, seed, sizes, plain, traced, guard.probes, disturbed
    )
    if bad:
        raise IncorrectResult(f"{workload.name}: " + "; ".join(bad))
    return {
        "metrics": values,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "items": traced.items,
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = WORKLOADS[name]
    sizes = workload.sizes(seconds / SPEC["run_seconds"])
    started = time.monotonic()
    guard = NoiseGuard()
    work = stack.make_workdir()
    try:
        runner = run_traced if traced else run_untraced
        out = runner(workload, work, seed, sizes, guard)
    finally:
        stack.remove_workdir(work)
    out.update(
        workload=name,
        traced=traced,
        sizes=sizes,
        wall_s=time.monotonic() - started,
        envelope=envelope(seed, seconds, workload.repetitions),
    )
    return out


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _units(traced: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if traced else "end_to_end"]}


def result_line(out: dict) -> str:
    units = _units(out["traced"])
    return json.dumps(
        {
            "correct": True,
            "attempted": max(1, out["attempted"]),
            "failed": out["failed"],
            "metrics": {
                name: {"value": out["metrics"][name], "unit": unit}
                for name, unit in units.items()
            },
        }
    )


def print_table(out: dict) -> None:
    units = _units(out["traced"])
    kind = "per-layer (traced pass)" if out["traced"] else "end-to-end (median of R)"
    print(f"== {out['workload']}  {kind}  sizes={out['sizes']}  "
          f"items={out['items']}  wall={out['wall_s']:.1f}s")
    for name, unit in units.items():
        print(f"  {name:<40} {out['metrics'][name]:>16.6g} {unit}")
    print(f"  operations attempted={out['attempted']} failed={out['failed']}")
    if not out["traced"]:
        lo = min(r["makespan_s"] for r in out["reps"])
        hi = max(r["makespan_s"] for r in out["reps"])
        print(f"  makespan_s min/max over repetitions {lo:.4f}/{hi:.4f}; "
              f"setup_s over {out['setup_samples']} samples; "
              f"disturbed repetitions {out['disturbed_reps']}; "
              f"calibration ms {[round(p, 1) for p in out['calib_ms']]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="nominal measured seconds; item counts scale with "
                             f"it (default {SPEC['run_seconds']}, selfcheck 1.2)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1 = traced pass: print the per-layer metrics")
    parser.add_argument("--traced", action="store_true", help="alias of --trace 1")
    parser.add_argument("--out", type=Path, default=None,
                        help="append one JSON line per workload run (a set of runs "
                             "for compare.py)")
    args = parser.parse_args(argv)
    if args.traced and args.trace == 0:
        parser.error("--traced contradicts --trace 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    traced = bool(args.trace or args.traced)
    stack.install_signal_handlers()

    names = [args.workload] if args.workload else [w["name"] for w in SPEC["workloads"]]
    last = None
    for name in names:
        try:
            out = run_workload(name, args.seed, args.seconds, traced)
        except IncorrectResult as exc:
            print(f"INCORRECT: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({"envelope": {**out["envelope"], "wall_s": out["wall_s"]}}))
        print_table(out)
        if args.out is not None:
            with open(args.out, "a") as fh:
                fh.write(json.dumps(out) + "\n")
        last = out
    if args.workload:
        print(result_line(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
