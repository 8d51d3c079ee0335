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

from .errors import (
    InvalidOriginalError,
    RenderInvalidError,
    ResolutionMismatchError,
    TargetSpecMismatchError,
)
from .generator import CandidateSet, ExternalGenerator, GenPolicy, external_infill, infill
from .kernel import GridSpec, TSDFGrid, render
from .metrics import DEFAULT_LAMBDA, MetricsReport, report_for
from .planner import InfluenceEntry, PlanConfig, relative_scores, select_segments
from .sequence import (
    ConstructionSequence,
    SegmentId,
    apply_mask,
    serialize_sequence,
    validate_sequence,
)

ABLATION_MODES = ("plan", "verify", "queue")


# -- latent embedding --------------------------------------------------------


def embed_shape(grid: TSDFGrid, pool_res: int = 8) -> np.ndarray:
    """Block-mean pool the grid to pool_res per axis and flatten."""
    n = grid.spec.resolution
    if pool_res < 1 or n % pool_res:
        raise ResolutionMismatchError(f"resolution {n} not divisible by pool {pool_res}")
    b = n // pool_res
    blocks = grid.values.astype(np.float64).reshape(pool_res, b, pool_res, b, pool_res, b)
    return blocks.mean(axis=(1, 3, 5)).ravel()


def embed_sequence(
    seq: ConstructionSequence, spec: GridSpec, pool_res: int = 8, *, bodies: dict | None = None
) -> np.ndarray:
    """Render then embed; an unrenderable sequence gets the all-inf sentinel.

    The sentinel sits at infinite distance from every finite latent, so such
    a candidate can never win a comparison.  ``bodies`` is the run's body
    store, which the render reads.
    """
    try:
        grid = render(seq, spec, bodies=bodies)
    except RenderInvalidError:
        return np.full(pool_res**3, math.inf)
    return embed_shape(grid, pool_res)


def latent_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b))


# -- priority queue ----------------------------------------------------------


@dataclass(frozen=True)
class QueueEntry:
    seq: ConstructionSequence
    latent: np.ndarray
    distance: float
    order: int


class PriorityQueue:
    """Keeps the lowest-distance sequences seen, deduplicated by stream."""

    def __init__(self, capacity: int = 5):
        if capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        self.capacity = capacity
        self._entries: list[QueueEntry] = []
        self._streams: set[str] = set()
        self._counter = 0

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> tuple[QueueEntry, ...]:
        return tuple(self._entries)

    def push(self, seq: ConstructionSequence, latent: np.ndarray, distance: float) -> None:
        if distance < 0 or math.isnan(distance):
            raise ValueError("queue distances must be non-negative")
        stream = serialize_sequence(seq)
        if stream in self._streams:
            return
        entry = QueueEntry(seq, latent, distance, self._counter)
        self._counter += 1
        self._entries.append(entry)
        # stable sort on (distance, insertion order); trimming the tail can
        # never touch the head, so the best entry survives every push
        self._entries.sort(key=lambda e: (e.distance, e.order))
        self._streams.add(stream)
        if len(self._entries) > self.capacity:
            dropped = self._entries.pop()
            self._streams.discard(serialize_sequence(dropped.seq))

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


def _embedded(candidates: CandidateSet, target_latent: np.ndarray, spec: GridSpec, pool_res: int, bodies: dict):
    out = []
    for cand in candidates:
        latent = embed_sequence(cand.seq, spec, pool_res, bodies=bodies)
        out.append((cand.seq, latent, latent_distance(latent, target_latent)))
    return out


# -- engine configuration and results ----------------------------------------


@dataclass(frozen=True)
class EngineConfig:
    max_rounds: int = 10
    n: int = 8
    queue_capacity: int = 5
    pool_res: int = 8
    epsilon: float = 1e-3
    patience: int = 3
    seed: int = 0
    lam: float = DEFAULT_LAMBDA

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if self.n < 0:
            raise ValueError("candidate count cannot be negative")
        if self.pool_res < 1:
            raise ValueError("pool_res must be positive")
        if self.epsilon < 0 or self.patience < 1:
            raise ValueError("epsilon must be non-negative and patience positive")


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
    rounds_used: int
    trace: tuple[RoundRecord, ...]
    report: MetricsReport
    stop_reason: str


def _round_seed(seed: int, round_index: int, lane: int = 0) -> int:
    return int(np.random.SeedSequence([seed, round_index, lane]).generate_state(1)[0])


def _uniform_influence(iv, rng):
    """Ablation stand-in: forget geometry, score segments at random."""
    entries = []
    for e in iv.entries:
        jv = float(rng.random())
        entries.append(dataclasses.replace(e, m_current=0.0, m_target=jv, j=jv))
    return dataclasses.replace(iv, entries=tuple(entries))


def run(
    original: ConstructionSequence,
    target: TSDFGrid,
    cfg: EngineConfig | None = None,
    plan_cfg: PlanConfig | None = None,
    policy: GenPolicy | None = None,
    endpoint: ExternalGenerator | None = None,
    ablate: str | None = None,
) -> EditResult:
    """Iterate plan, generate, verify until the shapes agree or budget ends.

    The config's candidate count and seed override the generation policy's;
    each round derives its own policy seed so rounds explore independently.
    ``ablate`` disables one stage: "plan" scores segments uniformly at
    random, "verify" picks a random candidate instead of the embedding
    argmin, "queue" forgets everything but the current round's argmin.
    With generation enabled, an original that renders empty raises
    RenderInvalidError before the first round.

    The run owns one body store (see ``cadfit.kernel``): each round's
    attribution of the current sequence fills it, and the candidates' and
    the final report's renders reuse the bodies they share with it.
    """
    cfg = cfg or EngineConfig()
    plan_cfg = plan_cfg or PlanConfig()
    policy = policy or GenPolicy()
    if ablate is not None and ablate not in ABLATION_MODES:
        raise ValueError(f"unknown ablation {ablate!r}, expected one of {ABLATION_MODES}")
    problems = validate_sequence(original)
    if problems:
        first = problems[0]
        raise InvalidOriginalError(f"{first.where}: {first.message}")
    if target.spec.resolution % cfg.pool_res:
        raise TargetSpecMismatchError(
            f"target resolution {target.spec.resolution} not divisible by pool {cfg.pool_res}"
        )

    if cfg.n == 0:
        report = report_for(original, target, original, lam=cfg.lam)
        return EditResult(original, 0, (), report, "generation-disabled")

    spec = target.spec
    bodies: dict = {}
    target_latent = embed_shape(target, cfg.pool_res)
    queue = PriorityQueue(cfg.queue_capacity)
    # the starting sequence counts as seen, so the loop can never end
    # on something farther from the target than where it began
    origin_latent = embed_shape(render(original, spec, bodies=bodies), cfg.pool_res)
    queue.push(original, origin_latent, latent_distance(origin_latent, target_latent))

    current = original
    records: list[RoundRecord] = []
    best_seen = queue.best_distance()
    stall = 0
    stop_reason = "max-rounds"
    rounds_used = 0

    for r in range(1, cfg.max_rounds + 1):
        rounds_used = r
        iv = relative_scores(current, target, plan_cfg, bodies=bodies)
        if ablate == "plan":
            iv = _uniform_influence(iv, np.random.default_rng([cfg.seed, r, 1]))
        selected = select_segments(iv, plan_cfg)
        if not selected:
            records.append(RoundRecord(r, iv.entries, (), (), queue.digest(), best_seen))
            stop_reason = "empty-mask"
            break

        masked = apply_mask(current, selected)
        pol = dataclasses.replace(policy, n=cfg.n, seed=_round_seed(cfg.seed, r))
        if endpoint is None:
            cands = infill(masked, pol)
        else:
            cands = external_infill(masked, pol, endpoint)

        scored = _embedded(cands, target_latent, spec, cfg.pool_res, bodies)
        distances = tuple(dist for _, _, dist in scored)
        if ablate == "queue":
            queue = PriorityQueue(capacity=1)
        for seq, latent, dist in scored:
            queue.push(seq, latent, dist)
        head = queue.best()
        if ablate == "verify":
            # a random renderable candidate; an unrenderable one would wedge
            # the next round's planning
            rng = np.random.default_rng([cfg.seed, r, 2])
            finite = [seq for seq, _, dist in scored if math.isfinite(dist)]
            if finite:
                current = finite[int(rng.integers(len(finite)))]
        elif head is not None and math.isfinite(head.distance):
            current = head.seq

        prev_best = best_seen
        best_seen = min(best_seen, queue.best_distance())
        records.append(RoundRecord(r, iv.entries, selected, distances, queue.digest(), best_seen))

        if best_seen < cfg.epsilon:
            stop_reason = "epsilon"
            break
        stall = 0 if best_seen < prev_best else stall + 1
        if stall >= cfg.patience:
            stop_reason = "patience"
            break

    report = report_for(current, target, original, lam=cfg.lam, bodies=bodies)
    return EditResult(current, rounds_used, tuple(records), report, stop_reason)
