"""Batched multi-subject alignment: one DP row-sweep per *bucket*.

The scalar kernel (:mod:`repro.bio.align.kernels`) already vectorises
each DP row across the subject's columns, but for the short-to-mid
length sequences a real FASTA database is full of, a row is only a few
hundred elements and Python/NumPy dispatch overhead dominates.  This
module applies the inter-sequence SIMD idea used by striped aligners:
pack many subjects into a length-bucketed, padded ``(n_subjects,
width)`` tensor and sweep the Gotoh recurrence **across the whole
bucket at once**, so each NumPy row operation scores hundreds of
subjects instead of one.

Correctness of padding
    Affine-gap DP information flows strictly left-to-right within a
    row (the lazy-E prefix scan) and top-to-bottom between rows, so a
    cell ``(i, j)`` never reads a column ``> j``.  Padding columns sit
    to the *right* of every subject's last real column and therefore
    cannot influence real scores: global scores are gathered at each
    subject's own final column, and local row-maxima are taken under a
    per-subject validity mask.  The batched sweep performs the scalar
    kernel's additions on the shared column prefix, and its maxima
    (the lazy-E scan included) are exact in any order, so batched
    scores are bit-identical to scalar scores, not merely close.

Exact integer sweeps
    Integer schemes (DNA 5/-4/-10/-1, BLOSUM62) sweep in the narrowest
    integer dtype whose range provably holds every value the sweep can
    compute (:func:`sweep_dtype`); integer arithmetic is then exact, so
    the float64 scores it returns equal the float64 sweep's bit for
    bit.  An int16 row operation moves a quarter of the bytes.

Stacked queries
    Every equal-length query of a unit (and each one's reverse
    complement) rides the variant axis of one sweep per bucket, so a
    bucket is swept once per query length instead of once per query.

Bucketing
    Subjects are sorted by length and grouped greedily so that padding
    waste ``1 - effective/padded`` stays below a configurable cap — one
    10 kb subject lands in its own bucket instead of inflating the
    padding of hundreds of short ones.  Buckets also cap the subject
    count so working-set memory stays bounded.

Fallback rules
    Packing decisions (:func:`plan_buckets`) and the batched-vs-scalar
    choice (:func:`use_batched`) depend only on sequence *lengths*, so
    :meth:`DSearchAlgorithm.cost` can charge exactly the cells the
    donor will fill.  A bucket falls back to the scalar reference
    kernels when it is too small to amortise anything (a single
    subject), or — for banded alignment, where the batched engine fills
    the full padded matrix rather than just the band — when the band
    window is so much narrower than the bucket that full-width sweeping
    would outweigh the vectorisation win.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence as PySequence

import numpy as np

from repro.bio.align.kernels import NEG
from repro.bio.align.scoring import ScoringScheme
from repro.bio.seq.sequence import Sequence

#: Maximum tolerated padding waste ``1 - effective/padded`` per bucket.
DEFAULT_WASTE_CAP = 0.25

#: Maximum subjects per bucket (bounds the working set: state arrays are
#: ``O(n_subjects × width)`` per swept variant).
DEFAULT_MAX_BUCKET = 256

#: Buckets below this size gain nothing from batching.
MIN_BATCH_SUBJECTS = 2

#: Size cap of one state array of a sweep: a bucket's stacked variants
#: are swept in chunks of at most this many bytes of ``variants ×
#: subjects × (width + 1)`` cells (at least one variant), so the working
#: set (ten such arrays) stays bounded however many queries a unit has.
MAX_SWEEP_BYTES = 1 << 20

#: Banded buckets batch only when full padded cells stay within this
#: factor of the banded cost model (the batched engine sweeps full
#: rows; a narrow band over long subjects is better off scalar).
BANDED_BATCH_FACTOR = 1.35


@dataclass(frozen=True)
class BucketPlan:
    """Membership of one length bucket, decided from lengths alone.

    ``indices`` point back into the original subject list; ``width`` is
    the padded (maximum) length.  The plan is all
    :meth:`~repro.apps.dsearch.algorithm.DSearchAlgorithm.cost` needs,
    so the simulator's cost model and the donor's actual work agree
    without materialising any tensors.
    """

    indices: tuple[int, ...]
    lengths: tuple[int, ...]
    width: int

    @property
    def size(self) -> int:
        return len(self.indices)

    def padded_cells(self, rows: int) -> int:
        """DP cells the batched engine fills for *rows* query rows."""
        return rows * self.size * self.width

    def effective_cells(self, rows: int) -> int:
        """DP cells a perfectly packed (waste-free) sweep would fill."""
        return rows * sum(self.lengths)


def plan_buckets(
    lengths: PySequence[int],
    waste_cap: float = DEFAULT_WASTE_CAP,
    max_bucket: int = DEFAULT_MAX_BUCKET,
) -> list[BucketPlan]:
    """Greedy length bucketing with a padding-waste cap.

    Subjects are visited in (length, index) order; a bucket closes when
    admitting the next (longer) subject would push padding waste above
    *waste_cap* or the bucket above *max_bucket* subjects.  Deterministic
    in the input lengths, so server-side cost accounting and donor-side
    execution always agree on the packing.
    """
    if not (0.0 <= waste_cap < 1.0):
        raise ValueError("waste_cap must be in [0, 1)")
    if max_bucket < 1:
        raise ValueError("max_bucket must be >= 1")
    order = sorted(range(len(lengths)), key=lambda i: (lengths[i], i))
    plans: list[BucketPlan] = []
    cur: list[int] = []
    cur_sum = 0
    for i in order:
        length = lengths[i]
        if cur:
            padded = length * (len(cur) + 1)
            waste = padded - (cur_sum + length)
            if len(cur) >= max_bucket or waste > waste_cap * padded:
                plans.append(_close(cur, lengths))
                cur, cur_sum = [], 0
        cur.append(i)
        cur_sum += length
    if cur:
        plans.append(_close(cur, lengths))
    return plans


def _close(members: list[int], lengths: PySequence[int]) -> BucketPlan:
    bucket_lengths = tuple(lengths[i] for i in members)
    return BucketPlan(tuple(members), bucket_lengths, max(bucket_lengths))


def banded_model_cells(m: int, lengths: PySequence[int], band: int) -> float:
    """Cells the banded cost model charges for one *m*-row query.

    Matches the scalar kernels' semantics: the band is widened per pair
    to ``|m − len|`` so the terminal cell stays reachable, and a band
    wider than the matrix degenerates to the full ``m × len`` sweep.
    """
    total = 0.0
    for length in lengths:
        band_j = max(band, abs(m - length))
        total += min(m * length, (2 * band_j + 1) * max(m, length))
    return total


def use_batched(plan: BucketPlan, m: int, algorithm: str, band: int) -> bool:
    """Whether the batched engine should score this (query, bucket).

    Depends only on lengths and configuration, so the server's cost
    model can replay the same decision the donor will make.
    """
    if plan.size < MIN_BATCH_SUBJECTS:
        return False
    if algorithm == "banded":
        return plan.padded_cells(m) <= BANDED_BATCH_FACTOR * banded_model_cells(
            m, plan.lengths, band
        )
    return True


def sweep_dtype(
    scheme: ScoringScheme, m: int, width: int, banded: bool = False
) -> tuple[np.dtype, float]:
    """The narrowest dtype in which an *m*-row sweep over *width* columns
    is exact, and the ``NEG`` sentinel to use in it.

    Integer arithmetic is exact while nothing overflows, so for an
    integer scheme the sweep only needs a range bound.  With ``K`` the
    largest change one DP step can make (``max(|S|, |open| + |extend|)``),
    every real value — a path score over at most ``m + width`` steps,
    plus the ``|extend|·j`` shift of the E scan and one ``open`` — lies
    within ``±span``.  The sentinel sits below that:

    * unbanded, ``NEG`` only seeds row 0 of ``F`` and loses the first
      ``max`` it meets, so ``NEG = −(span + 1)`` suffices;
    * banded, masked cells re-feed ``H + S`` and ``F`` (which falls by
      ``|extend|`` every row), so a sentinel-derived value can rise by
      up to ``span`` and drift down by ``(m + 2)·K``:
      ``NEG = −(2·span + 1)`` keeps it below every real value and
      ``NEG − (m + 2)·K`` must still fit.

    int16 when all of that fits, else int32; non-integer schemes (and
    anything wider) sweep in float64 with the float ``NEG``.
    """
    go, ge = abs(scheme.gap_open), abs(scheme.gap_extend)
    values = np.append(scheme.matrix.ravel(), [go, ge])
    if not (np.all(np.isfinite(values)) and np.array_equal(values, np.round(values))):
        return np.dtype(np.float64), NEG
    step = int(max(np.abs(scheme.matrix).max(), go + ge))
    span = (m + width) * step + width * int(ge) + int(go)
    if banded:
        neg = -(2 * span + 1)
        floor = neg - (m + 2) * step
    else:
        neg = floor = -(span + 1)
    for dtype in (np.int16, np.int32):
        if floor >= np.iinfo(dtype).min:
            return np.dtype(dtype), float(neg)
    return np.dtype(np.float64), NEG


class SubjectBucket:
    """A materialised bucket: the padded residue-code tensor of its members.

    Built once per work unit and shared across every query (and strand
    variant) scored against the slice.  Codes are copied from each
    ``Sequence.codes`` (uint8) — they only index the substitution
    matrix — so sweeping a subject never builds its cached ``icodes``.
    """

    __slots__ = ("plan", "codes", "lengths", "alphabet")

    def __init__(self, plan: BucketPlan, subjects: PySequence[Sequence]):
        members = [subjects[i] for i in plan.indices]
        alphabet = members[0].alphabet
        for seq in members:
            if seq.alphabet != alphabet:
                raise ValueError("bucket mixes alphabets")
            if len(seq) == 0:
                raise ValueError("cannot align empty sequences")
        self.plan = plan
        self.alphabet = alphabet
        self.lengths = np.asarray(plan.lengths, dtype=np.intp)
        codes = np.zeros((plan.size, plan.width), dtype=np.uint8)
        for row, seq in enumerate(members):
            codes[row, : len(seq)] = seq.codes
        self.codes = codes


def batched_scores(
    variants: PySequence[Sequence],
    bucket: SubjectBucket,
    scheme: ScoringScheme,
    local: bool,
    band: int | None = None,
    dtype: np.dtype | type | None = None,
) -> np.ndarray:
    """Score every variant against every subject in one bucket.

    *variants* are equal-length query rows sharing the DP sweep: every
    same-length query of a unit, each with its reverse complement for a
    both-strands search.  Returns a ``(n_variants, n_subjects)`` float64
    score array, bit-identical to the scalar kernels.  With *band* set
    (global only), each subject's band is auto-widened to ``|m − len|``
    exactly as the scalar path does.

    The sweep runs in :func:`sweep_dtype`'s choice; ``dtype=np.float64``
    forces the float sweep, the reference the integer sweeps are
    checked against.
    """
    if not variants:
        raise ValueError("need at least one query variant")
    m = len(variants[0])
    if m == 0:
        raise ValueError("cannot align empty sequences")
    for v in variants:
        if len(v) != m:
            raise ValueError("query variants must share one length")
        if v.alphabet != scheme.alphabet:
            raise ValueError(
                f"scheme {scheme.name!r} is over alphabet "
                f"{scheme.alphabet.name!r}; got query {v.alphabet.name!r}"
            )
    if bucket.alphabet != scheme.alphabet:
        raise ValueError(
            f"scheme {scheme.name!r} is over alphabet {scheme.alphabet.name!r}; "
            f"got subject {bucket.alphabet.name!r}"
        )
    if band is not None and local:
        raise ValueError("banded batching applies to global alignment only")

    n, width = bucket.codes.shape
    if dtype is None:
        dtype, neg = sweep_dtype(scheme, m, width, banded=band is not None)
    elif np.dtype(dtype) == np.float64:
        dtype, neg = np.dtype(np.float64), NEG
    else:
        raise ValueError("only float64 can be forced; integers follow sweep_dtype")
    sweep = _Sweep(bucket, scheme, m, local, band, dtype, neg)
    qcodes = np.stack([v.codes for v in variants])  # (V, m) uint8
    scores = np.empty((len(variants), n))
    per_chunk = max(1, MAX_SWEEP_BYTES // (dtype.itemsize * n * (width + 1)))
    for lo in range(0, len(variants), per_chunk):
        scores[lo : lo + per_chunk] = sweep.run(qcodes[lo : lo + per_chunk])
    return scores


class _Sweep:
    """Everything about one (bucket, query length, dtype) sweep that does
    not depend on the queries: built once, run per chunk of variants.

    State arrays are laid out ``(width + 1, variants, subjects)``: the
    column axis is outermost, so every row operation — the E scan's
    steps included — is one contiguous vector op over all variants ×
    subjects of a column.
    """

    def __init__(self, bucket, scheme, m, local, band, dtype, neg):
        n, width = bucket.codes.shape
        self.m, self.width, self.local, self.dtype = m, width, local, dtype
        self.neg = dtype.type(neg)
        self.go = dtype.type(scheme.gap_open)
        self.ge = dtype.type(scheme.gap_extend)
        self.lengths = bucket.lengths
        self.matrix = scheme.matrix.astype(dtype)
        self.codes = np.ascontiguousarray(bucket.codes.T)  # (W, n)
        # Per-bucket substitution precompute: sheet[j, c, s] scores query
        # code c against subject s's residue j, so each row's
        # substitution term is one gather along the code axis instead of
        # an elementwise matrix lookup.  Skipped for huge buckets
        # (long-subject buckets) to bound memory.
        if self.matrix.shape[0] * n * width <= 40_000_000:
            self.sheet = np.ascontiguousarray(
                self.matrix[:, self.codes].transpose(1, 0, 2)
            )  # (W, A+1, n)
        else:
            self.sheet = None
        self.ge_j = (np.arange(width + 1) * scheme.gap_extend).astype(dtype)
        # Band mask, once per bucket: a cell (i, j) of subject s is
        # outside iff |j − i| > band_s, so row i's mask is the window
        # [m − i, m − i + width] of a table indexed by j − i + m.
        if band is not None:
            band_j = np.maximum(band, np.abs(m - bucket.lengths))
            offset = np.abs(np.arange(-m, width + 1))
            self.outside = (offset[:, None] > band_j[None, :])[:, None, :]
        else:
            self.outside = None

    def _mask(self, H: np.ndarray, i: int) -> None:
        if self.outside is not None:
            start = self.m - i
            np.copyto(H, self.neg, where=self.outside[start : start + self.width + 1])

    def run(self, qcodes: np.ndarray) -> np.ndarray:
        """Sweep one chunk of variants; returns ``(variants, subjects)``."""
        m, width, local, dtype = self.m, self.width, self.local, self.dtype
        go, ge = self.go, self.ge
        nvar = qcodes.shape[0]
        n = self.codes.shape[1]
        shape = (width + 1, nvar, n)
        ge_j = np.broadcast_to(self.ge_j[:, None, None], shape).copy()
        e_base = go + ge_j[1:]
        if local:
            H = np.zeros(shape, dtype)
            # Running cell-wise max over all rows; the best local score
            # is its maximum over each subject's *valid* columns at the
            # end (max is exactly associative, so this equals the scalar
            # row-by-row tracking bit for bit).
            maxH = np.zeros(shape, dtype)
            # max against a zero array, not the scalar 0: numpy's
            # scalar-operand path for small ints is several times slower.
            zero = np.zeros((width, nvar, n), dtype)
        else:
            H = go + ge_j
            H[0] = 0
        F = np.full(shape, self.neg, dtype)
        self._mask(H, 0)

        # Ping-pong row buffers; every per-row temporary is preallocated
        # so the sweep allocates nothing inside the loop.
        Hn = np.empty(shape, dtype)
        tmp = np.empty(shape, dtype)
        c = np.empty(shape, dtype)
        scan = np.empty(shape, dtype)
        sub = np.empty((width, nvar, n), dtype)
        for i in range(1, m + 1):
            # Same recurrence as the scalar gotoh_rows, with a
            # (variants, subjects) batch on the trailing axes.
            np.add(H, go, out=tmp)
            np.maximum(F, tmp, out=F)
            F += ge
            q_i = qcodes[:, i - 1]
            if self.sheet is not None:
                np.take(self.sheet, q_i, axis=1, out=sub)
            else:
                sub[:] = self.matrix[q_i[None, :, None], self.codes[:, None, :]]
            Hn[0] = 0 if local else go + ge * i
            Htmp = Hn[1:]
            np.add(H[:-1], sub, out=Htmp)
            np.maximum(Htmp, F[1:], out=Htmp)
            if local:
                np.maximum(Htmp, zero, out=Htmp)
            # Exact within-row E via the prefix max-scan (lazy-E), swept
            # over the whole bucket at once.
            np.subtract(Hn, ge_j, out=c)
            run = _prefix_max(c, scan)
            E = tmp[1:]
            np.add(e_base, run[:-1], out=E)
            np.maximum(Htmp, E, out=Htmp)
            if local:
                np.maximum(Htmp, zero, out=Htmp)
            self._mask(Hn, i)
            H, Hn = Hn, H
            if local:
                np.maximum(maxH, H, out=maxH)

        if local:
            # Columns beyond a subject's own length must not win its max;
            # local scores are >= 0 and column 0 is always valid.
            valid = np.arange(width + 1)[:, None] <= self.lengths[None, :]
            return np.where(valid[:, None, :], maxH, 0).max(axis=0)
        # Each subject's global score sits at its own final column.
        return H[self.lengths[None, :], np.arange(nvar)[:, None], np.arange(n)[None, :]]


def _prefix_max(c: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Inclusive prefix max of *c* along axis 0, by log-step doubling.

    Each of the ``⌈log2(len)⌉`` steps is one vector op over whole
    columns (``np.maximum.accumulate`` along an axis runs element by
    element).  Max is exact in every dtype, so the result equals the
    sequential scan bit for bit.  *c* and *buf* are both overwritten;
    the returned array is one of them.
    """
    src, dst = c, buf
    k, length = 1, c.shape[0]
    while k < length:
        dst[:k] = src[:k]
        np.maximum(src[k:], src[:-k], out=dst[k:])
        src, dst = dst, src
        k *= 2
    return src
