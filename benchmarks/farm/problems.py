"""The benchmark's own problems and seeded input builders.

Everything a server or donor subprocess must unpickle lives here (the
harness puts this directory on their ``PYTHONPATH``), so classes pickle
as ``problems.X`` — never as ``__main__.X``, and never from ``tests/``.

* :class:`RangeSumDataManager` / :class:`RangeSumAlgorithm` — the
  trivially parallel problem of the two ``farm_*`` workloads: every
  unit is one integer, so the farm's own per-unit cost is all there is.
* :class:`GateDataManager` / :class:`SleepAlgorithm` — the gate job the
  live workloads run first (see README "gate protocol").
* :func:`dsearch_inputs` / :func:`dprml_inputs` — seeded DSEARCH and
  DPRml inputs taking only a seed and a size.
"""

from __future__ import annotations

import importlib
import time
from typing import Any

import numpy as np

from repro.core.problem import Algorithm, DataManager
from repro.core.workunit import UnitPayload, WorkResult


class RangeSumDataManager(DataManager):
    """Sum the integers ``offset .. offset+n-1`` in units of
    ``unit_items`` (whatever the server's granularity policy offers)."""

    def __init__(self, n: int, offset: int = 0, unit_items: int = 1):
        self.n = n
        self.offset = offset
        self.unit_items = unit_items
        self._next = 0
        self._total = 0
        self._done_items = 0
        self.units = 0

    @property
    def expected(self) -> int:
        return self.n * self.offset + self.n * (self.n - 1) // 2

    def total_items(self) -> int:
        return self.n

    def next_unit(self, max_items: int) -> UnitPayload | None:
        if self._next >= self.n:
            return None
        lo = self._next
        hi = min(self.n, lo + min(max_items, self.unit_items))
        self._next = hi
        return UnitPayload(
            payload=(self.offset + lo, self.offset + hi),
            items=hi - lo,
            input_bytes=16,
        )

    def handle_result(self, result: WorkResult) -> None:
        self._total += result.value
        self._done_items += result.items
        self.units += 1

    def is_complete(self) -> bool:
        return self._done_items >= self.n

    def final_result(self) -> tuple[int, int]:
        """``(sum, units folded)``."""
        return self._total, self.units


class RangeSumAlgorithm(Algorithm):
    def compute(self, payload: Any) -> int:
        lo, hi = payload
        return sum(range(lo, hi))

    def cost(self, payload: Any) -> float:
        lo, hi = payload
        return float(hi - lo)


class GateDataManager(DataManager):
    """Hands out sleep units until ``donors`` distinct donors have each
    returned one and at least ``min_units`` are back, then drains.

    While the gate runs, the real job waits behind it in the tenant's
    admission queue (``max_running = 1``).  The ``submit_result`` that
    completes the gate promotes the real job, so that job starts with
    every donor spawned, imported, connected, registered and busy —
    not somewhere in its interpreter start-up or idle back-off.
    ``max_units`` bounds the gate when a donor never shows up; the
    harness then fails the repetition (:meth:`final_result` reports
    who was seen).
    """

    def __init__(self, donors: int, min_units: int, max_units: int):
        self.donors = donors
        self.min_units = min_units
        self.max_units = max_units
        self._issued = 0
        self._done = 0
        self._seen: list[str] = []

    def _open(self) -> bool:
        if self._issued >= self.max_units:
            return False
        return len(self._seen) < self.donors or self._done < self.min_units

    def next_unit(self, max_items: int) -> UnitPayload | None:
        if not self._open():
            return None
        self._issued += 1
        return UnitPayload(payload=self._issued, items=1, input_bytes=8)

    def handle_result(self, result: WorkResult) -> None:
        self._done += 1
        if result.donor_id not in self._seen:
            self._seen.append(result.donor_id)

    def is_complete(self) -> bool:
        return not self._open() and self._done >= self._issued

    def final_result(self) -> dict:
        return {"units": self._done, "donors": list(self._seen)}


class SleepAlgorithm(Algorithm):
    """One gate unit: sleep, burn no CPU.

    The first unit a donor computes also imports *preload* — the
    modules of the application the real job will ship.  Deployed donors
    are long-lived and have them loaded; a donor spawned a second ago
    would otherwise pay numpy/scipy imports inside the job it is timed
    on.
    """

    def __init__(self, seconds: float, preload: tuple[str, ...] = ()):
        self.seconds = seconds
        self.preload = preload

    def compute(self, payload: Any) -> int:
        for name in self.preload:
            importlib.import_module(name)
        time.sleep(self.seconds)
        return payload


# ---------------------------------------------------------------------------
# seeded application inputs
# ---------------------------------------------------------------------------

QUERY_LENGTH = 300
HOMOLOGS_PER_QUERY = 2
TOP_HITS = 10
#: The *shape* of a workload (sequence lengths, tree) is part of its
#: definition and does not follow ``--seed``; the *content* (residues,
#: mutations, evolved sites) does.  Ten seeds then give ten different
#: inputs of the same amount of work, so what varies between runs is the
#: machine, not the job.
SHAPE_SEED = 2005


def dsearch_inputs(seed: int, database_size: int, queries: int = 4):
    """A seeded DSEARCH search: ``(database, queries, planted)``.

    *queries* random 300-nt DNA queries against *database_size*
    sequences whose lengths follow the repo's usual right-skewed gamma
    profile (fixed by :data:`SHAPE_SEED`), with two mutated copies of
    every query planted at evenly spaced positions.  ``planted`` maps
    query id -> homolog ids.
    """
    from repro.bio.seq.alphabet import DNA
    from repro.bio.seq.generate import mutate_sequence, random_sequence
    from repro.util.rng import spawn_rng

    shape = spawn_rng(SHAPE_SEED, "bench-dsearch-lengths")
    lengths = 50 + shape.gamma(2.0, (QUERY_LENGTH - 50) / 2.0, size=database_size)
    rng = spawn_rng(seed, "bench-dsearch")
    query_seqs = [
        random_sequence(f"q{i}", QUERY_LENGTH, DNA, rng) for i in range(queries)
    ]
    database = [
        random_sequence(f"decoy{i:05d}", int(lengths[i]), DNA, rng)
        for i in range(database_size)
    ]
    planted: dict[str, list[str]] = {}
    homologs = [
        (query, j) for query in query_seqs for j in range(HOMOLOGS_PER_QUERY)
    ]
    stride = database_size // (len(homologs) + 1)
    for slot, (query, j) in enumerate(homologs, start=1):
        hom = mutate_sequence(
            query, rng, substitution_rate=0.12, new_id=f"{query.seq_id}-hom{j}"
        )
        database[slot * stride] = hom
        planted.setdefault(query.seq_id, []).append(hom.seq_id)
    return database, query_seqs, planted


def dprml_inputs(seed: int, taxa: int, sites: int):
    """A seeded DPRml dataset: *sites* positions evolved under HKY85
    down a Yule tree of *taxa* leaves (the tree is fixed by
    :data:`SHAPE_SEED`), plus the matching config."""
    from repro.apps.dprml import DPRmlConfig
    from repro.bio.phylo.simulate import random_yule_tree, simulate_alignment

    config = DPRmlConfig(model="hky85", kappa=2.5, freqs=(0.3, 0.2, 0.2, 0.3))
    tree = random_yule_tree(taxa, seed=SHAPE_SEED, mean_branch=0.12)
    alignment = simulate_alignment(
        tree, config.substitution_model(), sites=sites, seed=seed
    )
    return alignment, config


def range_offset(seed: int) -> int:
    """Seeded start of the range the ``farm_*`` workloads sum: the
    inputs follow the seed while the amount of work does not."""
    return int(np.random.default_rng(seed).integers(0, 1_000_000))
