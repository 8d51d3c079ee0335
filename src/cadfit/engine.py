"""Plan, generate, verify loop with a cross-round candidate queue.

Shapes are compared in a cheap shared embedding: the truncated field
block-mean pooled to a small grid and flattened.  L2 distance in that space
drives candidate selection; the queue carries the best sequences seen across
rounds so one bad generation round cannot lose progress.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidOriginalError, RenderInvalidError, ResolutionMismatchError
from .generator import ExternalGenerator, infill
from .kernel import AttributionGrid, GridSpec, TSDFGrid, attribute, render
from .metrics import MetricsReport, report_for
from .planner import InfluenceEntry, relative_scores, select_segments
from .sequence import (
    ConstructionSequence,
    Granularity,
    SegmentId,
    apply_mask,
    serialize_sequence,
    validate_sequence,
)

ABLATION_MODES = ("plan", "verify", "queue")

# latent grid per axis; a target's resolution must be a multiple of it
POOL_RES = 8
# a best latent distance below EPSILON ends the run
EPSILON = 1e-3
# rounds without a new best latent distance before the run gives up
PATIENCE = 3


# -- latent embedding --------------------------------------------------------


def embed_shape(grid: TSDFGrid) -> np.ndarray:
    """Block-mean pool the grid to POOL_RES per axis and flatten.

    Bit for bit numpy's float64 ``mean(axis=(1, 3, 5))`` over (P, b, P, b, P,
    b) blocks, P = POOL_RES, from one sum over x and two products with a 0/1
    matrix.  Let e = ceil(log2(b^3 tau)) - 30 (frexp's exponent: one more
    when b^3 tau is a power of two).  A float32 v with |v| >= 2^e, or v = 0,
    is a multiple of 2^(e - 23).  If every sample is, a block's partial sums
    are such multiples of magnitude at most b^3 tau <= 2^(e + 30), exact in
    float64 in any order, BLAS and FMA included, so a nonzero block sum is
    numpy's, and both divide it by b^3 once.  Otherwise, or when a block
    sums to zero, numpy's mean is taken, which settles a zero's sign.
    """
    n = grid.spec.resolution
    if n % POOL_RES:
        raise ResolutionMismatchError(f"resolution {n} not divisible by pool {POOL_RES}")
    b = n // POOL_RES
    pool = np.repeat(np.eye(POOL_RES), b, axis=1)  # pool[i, x] = 1 where x // b == i
    sums = grid.values.reshape(POOL_RES, b, n * n).sum(axis=1, dtype=np.float64)  # [i, y, z]
    sums = pool @ (sums.reshape(POOL_RES * n, n) @ pool.T).reshape(POOL_RES, n, POOL_RES)
    mag, tiny = np.abs(grid.values), 2.0 ** (math.frexp(b**3 * grid.spec.tau)[1] - 30)
    if sums.all() and not (mag.min() < tiny and ((mag < tiny) & (mag > 0)).any()):
        return sums.ravel() / b**3
    blocks = grid.values.astype(np.float64).reshape(POOL_RES, b, POOL_RES, b, POOL_RES, b)
    return blocks.mean(axis=(1, 3, 5)).ravel()


def embed_sequence(
    seq: ConstructionSequence, spec: GridSpec, *, base: AttributionGrid | None = None
) -> np.ndarray:
    """Render, reusing ``base``'s bodies, then embed; an unrenderable
    sequence gets the all-inf sentinel, which sits at infinite distance from
    every finite latent, so such a candidate can never win a comparison.
    """
    try:
        grid = render(seq, spec, base=base)
    except RenderInvalidError:
        return np.full(POOL_RES**3, math.inf)
    return embed_shape(grid)


def latent_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b))


# -- priority queue ----------------------------------------------------------


@dataclass(frozen=True)
class QueueEntry:
    seq: ConstructionSequence
    distance: float


class PriorityQueue:
    """Keeps the lowest-distance sequences seen, each at most once (equal
    sequences are those with equal token streams: serialization round-trips)."""

    def __init__(self, capacity: int = 5):
        if capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        self.capacity = capacity
        self._entries: list[QueueEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> tuple[QueueEntry, ...]:
        return tuple(self._entries)

    def push(self, seq: ConstructionSequence, distance: float) -> None:
        if distance < 0 or math.isnan(distance):
            raise ValueError("queue distances must be non-negative")
        if any(e.seq == seq for e in self._entries):
            return
        self._entries.append(QueueEntry(seq, distance))
        # a stable sort keeps ties in insertion order; trimming the tail can
        # never touch the head, so the best entry survives every push
        self._entries.sort(key=lambda e: e.distance)
        del self._entries[self.capacity :]

    def best(self) -> QueueEntry | None:
        return self._entries[0] if self._entries else None

    def best_distance(self) -> float:
        return self._entries[0].distance if self._entries else math.inf

    def digest(self) -> str:
        h = hashlib.sha256()
        for e in self._entries:
            h.update(serialize_sequence(e.seq).encode())
            h.update(f" {e.distance:.17g}\n".encode())
        return h.hexdigest()[:12]


# -- engine configuration and results ----------------------------------------


@dataclass(frozen=True)
class EngineConfig:
    max_rounds: int = 10
    n: int = 8
    queue_capacity: int = 5
    seed: int = 0
    granularity: Granularity = Granularity.PRIMITIVE
    ablate: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "granularity", Granularity(self.granularity))
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if self.n < 0:
            raise ValueError("candidate count cannot be negative")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.ablate is not None and self.ablate not in ABLATION_MODES:
            raise ValueError(f"unknown ablation {self.ablate!r}, expected one of {ABLATION_MODES}")


@dataclass(frozen=True)
class RoundRecord:
    index: int
    influence: tuple[InfluenceEntry, ...]
    selected: tuple[SegmentId, ...]
    distances: tuple[float, ...]
    queue_digest: str
    best_distance: float


@dataclass(frozen=True)
class EditResult:
    final: ConstructionSequence
    trace: tuple[RoundRecord, ...]
    report: MetricsReport
    stop_reason: str

    @property
    def rounds_used(self) -> int:
        return len(self.trace)


def _derived_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def _uniform_influence(iv, rng):
    """Ablation stand-in: forget geometry, score segments at random."""
    entries = []
    for e in iv.entries:
        entries.append(dataclasses.replace(e, m_current=0.0, m_target=float(rng.random())))
    return dataclasses.replace(iv, entries=tuple(entries))


def run(
    original: ConstructionSequence,
    target: TSDFGrid,
    cfg: EngineConfig | None = None,
    endpoint: ExternalGenerator | None = None,
) -> EditResult:
    """Iterate plan, generate, verify until the shapes agree or budget ends.

    Each round masks segments at ``cfg.granularity`` and draws ``cfg.n``
    candidates under a seed derived from ``cfg.seed`` and the round index,
    so rounds explore independently.  ``cfg.ablate`` disables one stage:
    "plan" scores segments uniformly at random, "verify" picks a random
    candidate instead of the embedding argmin, "queue" forgets everything
    but the current round's argmin.

    Before round 1 it rejects an original that fails validation
    (InvalidOriginalError), a target whose resolution is not a multiple of
    POOL_RES (ResolutionMismatchError, from ``embed_shape``, also at
    ``cfg.n == 0``) and, with generation enabled, an original that renders
    empty (RenderInvalidError).

    Each round plans from one attribution of the current sequence; round 1
    reuses the original's, which also gives the starting latent.  Each
    attribution, the candidates' renders and the final report's reuse the
    bodies they share with the latest one (see ``cadfit.kernel``).
    """
    cfg = cfg or EngineConfig()
    problems = validate_sequence(original)
    if problems:
        first = problems[0]
        raise InvalidOriginalError(f"{first.where}: {first.message}")
    target_latent = embed_shape(target)

    if cfg.n == 0:
        report = report_for(original, target, original)
        return EditResult(original, (), report, "generation-disabled")

    spec = target.spec
    queue = PriorityQueue(cfg.queue_capacity)
    # the starting sequence counts as seen, so the loop can never end
    # on something farther from the target than where it began
    ag = attribute(original, spec)
    queue.push(original, latent_distance(embed_shape(ag.grid()), target_latent))

    current = original
    records: list[RoundRecord] = []
    best_seen = queue.best_distance()
    stall = 0
    stop_reason = "max-rounds"

    for r in range(1, cfg.max_rounds + 1):
        if r > 1:
            ag = attribute(current, spec, base=ag)
        iv = relative_scores(ag, target, cfg.granularity)
        if cfg.ablate == "plan":
            iv = _uniform_influence(iv, np.random.default_rng([cfg.seed, r, 1]))
        selected = select_segments(iv)
        if not selected:
            records.append(RoundRecord(r, iv.entries, (), (), queue.digest(), best_seen))
            stop_reason = "empty-mask"
            break

        masked = apply_mask(current, selected)
        seed = _derived_seed(cfg.seed, r, 0)
        cands = infill(masked, cfg.n, seed, endpoint)

        scored = [
            (cand.seq, latent_distance(embed_sequence(cand.seq, spec, base=ag), target_latent))
            for cand in cands
        ]
        distances = tuple(dist for _, dist in scored)
        if cfg.ablate == "queue":
            queue = PriorityQueue(capacity=1)
        for seq, dist in scored:
            queue.push(seq, dist)
        head = queue.best()
        if cfg.ablate == "verify":
            # a random renderable candidate; an unrenderable one would wedge
            # the next round's planning
            rng = np.random.default_rng([cfg.seed, r, 2])
            finite = [seq for seq, dist in scored if math.isfinite(dist)]
            if finite:
                current = finite[int(rng.integers(len(finite)))]
        elif math.isfinite(head.distance):
            current = head.seq

        prev_best = best_seen
        best_seen = min(best_seen, queue.best_distance())
        records.append(RoundRecord(r, iv.entries, selected, distances, queue.digest(), best_seen))

        if best_seen < EPSILON:
            stop_reason = "epsilon"
            break
        stall = 0 if best_seen < prev_best else stall + 1
        if stall >= PATIENCE:
            stop_reason = "patience"
            break

    report = report_for(current, target, original, base=ag)
    return EditResult(current, tuple(records), report, stop_reason)


def run_corpus(triplets, cfg: EngineConfig) -> list[tuple[EngineConfig, EditResult]]:
    """Run every ``cadfit.synth.Triplet`` and return (config, result) pairs
    in index order.  Triplet k runs under ``cfg`` with its own seed, derived
    from ``cfg.seed`` and k, so its result does not depend on the others.
    """
    cfgs = [dataclasses.replace(cfg, seed=_derived_seed(cfg.seed, k)) for k in range(len(triplets))]
    return [(c, run(t.original, t.target, c)) for c, t in zip(cfgs, triplets)]
