"""Masked-span infilling.

The surrogate sampler draws grammar-valid fragments centered on the original
parameters.  An external process speaking the line protocol documented on
``ExternalGenerator`` can replace it; invalid or unavailable responses fall
back to the surrogate so the candidate count never shrinks.
"""

from __future__ import annotations

import dataclasses
import os
import select
import subprocess
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    CadfitError,
    EndpointUnavailableError,
    GeneratorProtocolError,
    GrammarExhaustedError,
)
from .sequence import (
    Arc,
    Circle,
    ConstructionSequence,
    Line,
    Loop,
    MaskedSequence,
    SegmentId,
    SegmentKind,
    Sketch,
    apply_mask,
    chain_vertices,
    parse_sequence,
    validate_sequence,
)

ORIGIN_SURROGATE = "surrogate"
ORIGIN_EXTERNAL = "external"

_RETRIES_PER_CANDIDATE = 64


@dataclass(frozen=True)
class GenPolicy:
    """Sampling knobs for one infill call."""

    n: int = 8
    jitter_sigma: float = 12.0
    p_substitute: float = 0.15
    p_structural: float = 0.10
    p_keep: float = 0.6
    p_wide: float = 0.5
    p_focus: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one candidate per round")
        if not self.jitter_sigma > 0.0:
            raise ValueError("jitter_sigma must be positive")
        for name in ("p_substitute", "p_structural", "p_keep", "p_wide", "p_focus"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability")


@dataclass(frozen=True)
class Candidate:
    """One proposed sequence plus where it came from."""

    seq: ConstructionSequence
    filled: tuple[SegmentId, ...]
    origin: str
    note: str = ""


@dataclass(frozen=True)
class CandidateSet:
    candidates: tuple[Candidate, ...]

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self):
        return iter(self.candidates)


# -- surrogate sampling ------------------------------------------------------


_WIDE_FACTOR = 4.0
_FOCUS_KEEP = 0.93


def _gauss_bin(rng, center: int, sigma: float, lo: int = 0, hi: int = 255) -> int:
    return int(np.clip(round(rng.normal(center, sigma)), lo, hi))


def _num_tok(rng, pol: GenPolicy, center: int, lo: int = 0, hi: int = 255) -> int:
    """One numeric token: usually kept, else jittered, sometimes widely.

    Sparse updates keep most proposals a small Hamming step from the base,
    so a good focal move is not drowned by collateral drift; the wide
    component reaches edits several sigma out that the narrow scale would
    practically never propose.
    """
    if rng.random() < pol.p_keep:
        return int(np.clip(center, lo, hi))
    sigma = pol.jitter_sigma * (_WIDE_FACTOR if rng.random() < pol.p_wide else 1.0)
    return _gauss_bin(rng, center, sigma, lo, hi)


def _sample_chain_prim(rng, prim, pol: GenPolicy):
    end = (
        _num_tok(rng, pol, prim.end[0]),
        _num_tok(rng, pol, prim.end[1]),
    )
    flip = rng.random() < pol.p_substitute
    if isinstance(prim, Line):
        if flip:
            # no sweep to center on and no reason to prefer any bulge depth,
            # so the new arc draws its sweep uniformly over the legal range
            sweep = int(rng.integers(16, 241))
            return Arc(end, sweep, bool(rng.integers(2)))
        return Line(end)
    if flip:
        return Line(end)
    return Arc(end, _num_tok(rng, pol, prim.sweep, 1, 254), prim.ccw)


def _sample_primitive(rng, prim, pol: GenPolicy):
    # a circle stays a circle: it is the sole primitive of its loop and a
    # kind change there is a loop-level move, not a primitive edit
    if isinstance(prim, Circle):
        center = (
            _num_tok(rng, pol, prim.center[0]),
            _num_tok(rng, pol, prim.center[1]),
        )
        return Circle(center, _num_tok(rng, pol, prim.radius, 1, 255))
    return _sample_chain_prim(rng, prim, pol)


def _sample_extrusion(rng, ext, pol: GenPolicy):
    return dataclasses.replace(
        ext,
        orientation=tuple(_num_tok(rng, pol, b) for b in ext.orientation),
        origin=tuple(_num_tok(rng, pol, b) for b in ext.origin),
        scale=_num_tok(rng, pol, ext.scale, 1, 255),
        dist_pos=_num_tok(rng, pol, ext.dist_pos),
        dist_neg=_num_tok(rng, pol, ext.dist_neg),
    )


def _sample_loop(rng, loop: Loop, pol: GenPolicy) -> Loop:
    return Loop(tuple(_sample_primitive(rng, p, pol) for p in loop.primitives))


def _loop_anchor(loop: Loop) -> tuple[int, int]:
    first = loop.primitives[0]
    if isinstance(first, Circle):
        return first.center
    verts = chain_vertices(loop)
    return (
        int(round(sum(v[0] for v in verts) / len(verts))),
        int(round(sum(v[1] for v in verts) / len(verts))),
    )


def _structural_loops(rng, loops: list[Loop], pol: GenPolicy) -> list[Loop]:
    """Add or drop one loop; the outer boundary always stays."""
    if len(loops) > 1 and rng.random() < 0.5:
        drop = 1 + int(rng.integers(len(loops) - 1))
        return loops[:drop] + loops[drop + 1 :]
    ax, ay = _loop_anchor(loops[0])
    hole = Circle(
        (_gauss_bin(rng, ax, pol.jitter_sigma), _gauss_bin(rng, ay, pol.jitter_sigma)),
        _gauss_bin(rng, 18, 6.0, 5, 60),
    )
    return loops + [Loop((hole,))]


def _sample_pair(rng, pair, pol: GenPolicy):
    sketch, ext = pair
    loops = [_sample_loop(rng, lp, pol) for lp in sketch.loops]
    if rng.random() < pol.p_structural:
        loops = _structural_loops(rng, loops, pol)
    return (Sketch(tuple(loops)), _sample_extrusion(rng, ext, pol))


def _resample_masked(masked: MaskedSequence, pol: GenPolicy, rng) -> ConstructionSequence:
    masked_ids = set(masked.ids())
    pairs = []
    for pi, (sketch, ext) in enumerate(masked.base.pairs):
        if SegmentId(pi, SegmentKind.PAIR) in masked_ids:
            pairs.append(_sample_pair(rng, (sketch, ext), pol))
            continue
        loops = []
        for li, loop in enumerate(sketch.loops):
            if SegmentId(pi, SegmentKind.LOOP, li) in masked_ids:
                loops.append(_sample_loop(rng, loop, pol))
                continue
            prims = tuple(
                _sample_primitive(rng, prim, pol)
                if SegmentId(pi, SegmentKind.PRIMITIVE, li, ci) in masked_ids
                else prim
                for ci, prim in enumerate(loop.primitives)
            )
            loops.append(Loop(prims))
        if SegmentId(pi, SegmentKind.EXTRUSION) in masked_ids:
            ext = _sample_extrusion(rng, ext, pol)
        pairs.append((Sketch(tuple(loops)), ext))
    return ConstructionSequence(tuple(pairs))


def _fill_once(masked: MaskedSequence, pol: GenPolicy, rng) -> ConstructionSequence:
    # two proposal temperatures: focused draws move about one numeric token,
    # which is the smallest step the selector can accept without dragging
    # collateral changes along; the rest resample broadly so far values and
    # structure stay reachable
    focused = rng.random() < pol.p_focus
    eff = dataclasses.replace(pol, p_keep=_FOCUS_KEEP) if focused else pol
    for _ in range(_RETRIES_PER_CANDIDATE):
        cand = _resample_masked(masked, eff, rng)
        if focused and cand == masked.base:
            continue  # parroting every masked span proposes nothing
        if not validate_sequence(cand):
            return cand
    raise GrammarExhaustedError(
        f"masked spans admitted no valid fragment in {_RETRIES_PER_CANDIDATE} draws"
    )


def infill(masked: MaskedSequence, policy: GenPolicy) -> CandidateSet:
    """Exactly ``policy.n`` valid candidates, deterministic given the seed.

    Candidate ``k`` draws from its own stream seeded ``[seed, k]``, so the
    set is stable under changes to ``n``.  Zero masked spans short-circuit
    to copies of the base sequence.
    """
    ids = masked.ids()
    if not ids:
        base = Candidate(masked.base, (), ORIGIN_SURROGATE)
        return CandidateSet((base,) * policy.n)
    out = []
    for k in range(policy.n):
        rng = np.random.default_rng([policy.seed, k])
        out.append(Candidate(_fill_once(masked, policy, rng), ids, ORIGIN_SURROGATE))
    return CandidateSet(tuple(out))


# -- external endpoint -------------------------------------------------------


class ExternalGenerator:
    """Client for a spawned infilling process.

    Protocol, line-delimited UTF-8 on stdin/stdout: the request is one line
    ``INFILL <n> <seed>`` followed by one line holding the masked token
    stream; the response is exactly n candidate token streams, one per line,
    then a line ``END``.  The process is kept alive between requests and
    respawned if it died or was closed.
    """

    def __init__(self, command, timeout: float = 30.0):
        self.command = tuple(command)
        if not self.command:
            raise ValueError("external generator needs a command line")
        self.timeout = float(timeout)
        self._proc: subprocess.Popen | None = None
        self._buf = bytearray()

    def __enter__(self) -> "ExternalGenerator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._proc is not None and self._proc.poll() is None:
            self._proc.kill()
            self._proc.wait()
        self._proc = None
        self._buf = bytearray()

    def _ensure(self) -> subprocess.Popen:
        if self._proc is not None and self._proc.poll() is None:
            return self._proc
        self._buf = bytearray()
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
            )
        except OSError as err:
            self._proc = None
            raise EndpointUnavailableError(f"cannot spawn {self.command[0]!r}: {err}") from err
        return self._proc

    def request(self, masked_text: str, n: int, seed: int) -> list[str]:
        """The n response lines, END consumed and checked."""
        proc = self._ensure()
        try:
            proc.stdin.write(f"INFILL {n} {seed}\n{masked_text}\n".encode())
            proc.stdin.flush()
        except (BrokenPipeError, OSError) as err:
            raise EndpointUnavailableError(f"endpoint rejected the request: {err}") from err
        lines = self._read_lines(proc, n + 1)
        if lines[-1].strip() != "END":
            raise GeneratorProtocolError(f"expected END terminator, got {lines[-1]!r}")
        return lines[:-1]

    def _read_lines(self, proc: subprocess.Popen, count: int) -> list[str]:
        deadline = time.monotonic() + self.timeout
        fd = proc.stdout.fileno()
        lines: list[str] = []
        while len(lines) < count:
            nl = self._buf.find(b"\n")
            if nl >= 0:
                lines.append(self._buf[:nl].decode("utf-8", errors="replace"))
                del self._buf[: nl + 1]
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise EndpointUnavailableError(f"endpoint silent past {self.timeout:g}s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise EndpointUnavailableError("endpoint closed the stream mid-response")
            self._buf.extend(chunk)
        return lines


def _accept_external(line: str, masked: MaskedSequence) -> ConstructionSequence | None:
    """Parsed candidate, or None when the line fails any acceptance check."""
    try:
        cand = parse_sequence(line)
    except CadfitError:
        return None
    try:
        remasked = apply_mask(cand, masked.ids())
    except CadfitError:
        return None
    # masking the candidate at the same ids must reproduce the request
    # exactly, or the endpoint touched tokens it was not asked to fill
    if remasked.tokens() != masked.tokens():
        return None
    return cand


def external_infill(
    masked: MaskedSequence, policy: GenPolicy, endpoint: ExternalGenerator
) -> CandidateSet:
    """Candidates from the endpoint, surrogate-backfilled to exactly n.

    An unreachable, silent or protocol-breaking endpoint degrades to the
    full surrogate set with a note in each candidate's provenance, and its
    process is closed so a later request cannot read this one's leftover
    lines.  Garbage lines are dropped one by one.
    """
    ids = masked.ids()
    try:
        lines = endpoint.request(masked.text(), policy.n, policy.seed)
    except (EndpointUnavailableError, GeneratorProtocolError) as err:
        endpoint.close()
        note = f"endpoint failed, surrogate fallback: {err}"
        return CandidateSet(
            tuple(dataclasses.replace(c, note=note) for c in infill(masked, policy))
        )
    kept = []
    for line in lines:
        seq = _accept_external(line, masked)
        if seq is not None:
            kept.append(Candidate(seq, ids, ORIGIN_EXTERNAL))
        if len(kept) == policy.n:
            break
    if len(kept) < policy.n:
        kept.extend(infill(masked, policy).candidates[: policy.n - len(kept)])
    return CandidateSet(tuple(kept))
