"""Masked-span infilling, the generate stage; ``infill`` is its one entry.

The surrogate sampler draws grammar-valid fragments centered on the original
parameters.  Given an endpoint speaking the line protocol documented on
``ExternalGenerator``, ``infill`` puts the candidates it accepts first and
fills the rest from the surrogate; a failed endpoint gives none, so the
surrogate fills them all.  A candidate is its sequence alone.
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
from .quant import BIN_MAX
from .sequence import (
    Arc,
    Circle,
    ConstructionSequence,
    Line,
    Loop,
    MaskedSequence,
    SegmentKind,
    Sketch,
    apply_mask,
    chain_vertices,
    parse_sequence,
    replace_segment,
    validate_sequence,
)

_RETRIES_PER_CANDIDATE = 64
_MAX_LINE_BYTES = 1 << 20  # one endpoint response line; far beyond any candidate


@dataclass(frozen=True)
class Candidate:
    """One proposed sequence.  Which source drew it is not recorded:
    ``infill`` returns the endpoint's candidates first."""

    seq: ConstructionSequence


# -- surrogate sampling ------------------------------------------------------


# Sampling weights.  A numeric token is kept with probability _KEEP
# (_FOCUS_KEEP in the focused draws, a _FOCUS share of candidates), else
# jittered by a normal of _JITTER_SIGMA bins, _WIDE_FACTOR times wider with
# probability _WIDE.  A chain primitive flips kind with probability
# _SUBSTITUTE, and a masked pair adds or drops a loop with _STRUCTURAL.
_JITTER_SIGMA = 12.0
_SUBSTITUTE = 0.15
_STRUCTURAL = 0.10
_KEEP = 0.6
_WIDE = 0.5
_FOCUS = 0.7
_WIDE_FACTOR = 4.0
_FOCUS_KEEP = 0.93


def _gauss_bin(rng, center: int, sigma: float, lo: int = 0, hi: int = BIN_MAX) -> int:
    return min(max(round(rng.normal(center, sigma)), lo), hi)


def _num_tok(rng, keep: float, center: int, lo: int = 0, hi: int = BIN_MAX) -> int:
    """One numeric token: usually kept, else jittered, sometimes widely.

    Sparse updates keep most proposals a small Hamming step from the base,
    so a good focal move is not drowned by collateral drift; the wide
    component reaches edits several sigma out that the narrow scale would
    practically never propose.
    """
    if rng.random() < keep:
        return min(max(center, lo), hi)
    sigma = _JITTER_SIGMA * (_WIDE_FACTOR if rng.random() < _WIDE else 1.0)
    return _gauss_bin(rng, center, sigma, lo, hi)


def _sample_chain_prim(rng, prim, keep: float):
    end = (
        _num_tok(rng, keep, prim.end[0]),
        _num_tok(rng, keep, prim.end[1]),
    )
    flip = rng.random() < _SUBSTITUTE
    if isinstance(prim, Line):
        if flip:
            # no sweep to center on and no reason to prefer any bulge depth,
            # so the new arc draws its sweep uniformly over the legal range
            sweep = int(rng.integers(16, 241))
            return Arc(end, sweep, bool(rng.integers(2)))
        return Line(end)
    if flip:
        return Line(end)
    return Arc(end, _num_tok(rng, keep, prim.sweep, 1, 254), prim.ccw)


def _sample_primitive(rng, prim, keep: float):
    # a circle stays a circle: it is the sole primitive of its loop and a
    # kind change there is a loop-level move, not a primitive edit
    if isinstance(prim, Circle):
        center = (
            _num_tok(rng, keep, prim.center[0]),
            _num_tok(rng, keep, prim.center[1]),
        )
        return Circle(center, _num_tok(rng, keep, prim.radius, lo=1))
    return _sample_chain_prim(rng, prim, keep)


def _sample_extrusion(rng, ext, keep: float):
    return dataclasses.replace(
        ext,
        orientation=tuple(_num_tok(rng, keep, b) for b in ext.orientation),
        origin=tuple(_num_tok(rng, keep, b) for b in ext.origin),
        scale=_num_tok(rng, keep, ext.scale, lo=1),
        dist_pos=_num_tok(rng, keep, ext.dist_pos),
        dist_neg=_num_tok(rng, keep, ext.dist_neg),
    )


def _sample_loop(rng, loop: Loop, keep: float) -> Loop:
    return Loop(tuple(_sample_primitive(rng, p, keep) for p in loop.primitives))


def _loop_anchor(loop: Loop) -> tuple[int, int]:
    first = loop.primitives[0]
    if isinstance(first, Circle):
        return first.center
    verts = chain_vertices(loop)
    return (
        int(round(sum(v[0] for v in verts) / len(verts))),
        int(round(sum(v[1] for v in verts) / len(verts))),
    )


def _structural_loops(rng, loops: list[Loop]) -> list[Loop]:
    """Add or drop one loop; the outer boundary always stays."""
    if len(loops) > 1 and rng.random() < 0.5:
        drop = 1 + int(rng.integers(len(loops) - 1))
        return loops[:drop] + loops[drop + 1 :]
    ax, ay = _loop_anchor(loops[0])
    hole = Circle(
        (_gauss_bin(rng, ax, _JITTER_SIGMA), _gauss_bin(rng, ay, _JITTER_SIGMA)),
        _gauss_bin(rng, 18, 6.0, 5, 60),
    )
    return loops + [Loop((hole,))]


def _sample_pair(rng, pair, keep: float):
    sketch, ext = pair
    loops = [_sample_loop(rng, lp, keep) for lp in sketch.loops]
    if rng.random() < _STRUCTURAL:
        loops = _structural_loops(rng, loops)
    return (Sketch(tuple(loops)), _sample_extrusion(rng, ext, keep))


_SAMPLERS = {
    SegmentKind.PRIMITIVE: _sample_primitive,
    SegmentKind.LOOP: _sample_loop,
    SegmentKind.EXTRUSION: _sample_extrusion,
    SegmentKind.PAIR: _sample_pair,
}


def _resample_masked(masked: MaskedSequence, keep: float, rng) -> ConstructionSequence:
    # the entries are disjoint and sorted by span, so the draws run in
    # document order
    seq = masked.base
    for seg in masked.entries:
        seq = replace_segment(seq, seg.id, _SAMPLERS[seg.id.kind](rng, seg.part, keep))
    return seq


def _fill_once(masked: MaskedSequence, rng) -> ConstructionSequence:
    # two proposal temperatures: focused draws move about one numeric token,
    # which is the smallest step the selector can accept without dragging
    # collateral changes along; the rest resample broadly so far values and
    # structure stay reachable
    focused = rng.random() < _FOCUS
    keep = _FOCUS_KEEP if focused else _KEEP
    for _ in range(_RETRIES_PER_CANDIDATE):
        cand = _resample_masked(masked, keep, rng)
        if focused and cand == masked.base:
            continue  # parroting every masked span proposes nothing
        if not validate_sequence(cand):
            return cand
    raise GrammarExhaustedError(
        f"masked spans admitted no valid fragment in {_RETRIES_PER_CANDIDATE} draws"
    )


def _surrogate(masked: MaskedSequence, count: int, seed: int) -> tuple[Candidate, ...]:
    if not masked.entries:
        return (Candidate(masked.base),) * count
    return tuple(Candidate(_fill_once(masked, np.random.default_rng([seed, k]))) for k in range(count))


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
        """Kill the process if it still runs, reap it and close its pipes."""
        proc, self._proc = self._proc, None
        self._buf = bytearray()
        if proc is None:
            return
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        try:
            proc.stdin.close()
        except OSError:
            pass  # a failed flush to a dead reader; the pipe is closed all the same

    def _ensure(self) -> subprocess.Popen:
        if self._proc is not None and self._proc.poll() is None:
            return self._proc
        self.close()  # a child that died still holds its pipes
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
        """The next ``count`` lines, of which only the last may read END: an
        earlier END is a protocol error at once, as no token stream reads END."""
        deadline = time.monotonic() + self.timeout
        fd = proc.stdout.fileno()
        lines: list[str] = []
        while len(lines) < count:
            nl = self._buf.find(b"\n")
            if nl >= 0:
                lines.append(self._buf[:nl].decode("utf-8", errors="replace"))
                del self._buf[: nl + 1]
                if len(lines) < count and lines[-1].strip() == "END":
                    raise GeneratorProtocolError(f"END after {len(lines) - 1} of {count - 1} candidate lines")
                continue
            if len(self._buf) > _MAX_LINE_BYTES:
                raise GeneratorProtocolError(f"endpoint sent a line over {_MAX_LINE_BYTES} bytes")
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
        remasked = apply_mask(cand, masked.ids())
    except CadfitError:
        return None
    # masking the candidate at the same ids must reproduce the request
    # exactly, or the endpoint touched tokens it was not asked to fill
    if remasked.tokens() != masked.tokens():
        return None
    return cand


def infill(
    masked: MaskedSequence, n: int, seed: int, endpoint: ExternalGenerator | None = None
) -> tuple[Candidate, ...]:
    """Exactly ``n`` valid candidates, deterministic given the seed and the
    endpoint's answers.

    Surrogate candidate ``k`` draws from its own stream seeded ``[seed, k]``,
    so the first ones do not depend on ``n``; zero masked spans give copies
    of the base.  An endpoint's accepted lines come first, in its order, and
    surrogate candidates 0, 1, ... fill the rest; a garbage line is dropped
    alone.  An unreachable, silent or protocol-breaking endpoint counts as
    one that sent no line, and its process is closed so a later request
    cannot read this one's leftovers.
    """
    if n < 1:
        raise ValueError("need at least one candidate per round")
    lines = []
    if endpoint is not None:
        try:
            lines = endpoint.request(masked.text(), n, seed)
        except (EndpointUnavailableError, GeneratorProtocolError):
            endpoint.close()
    accepted = (_accept_external(line, masked) for line in lines)
    kept = tuple(Candidate(seq) for seq in accepted if seq is not None)
    return kept + _surrogate(masked, n - len(kept), seed)
