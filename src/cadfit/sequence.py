"""Construction-sequence data model: grammar, parsing, validation, segments, masking.

A model is an ordered list of (sketch, extrusion) pairs.  Each sketch is a
list of loops; the first loop bounds material and the rest cut holes.  A
loop is a single circle or a closed chain of lines and arcs.  Chain loops
are encoded endpoint-only: primitive i runs from the endpoint of primitive
i-1 to its own endpoint, and the chain starts where the final primitive
ends, so a syntactically complete chain closes by construction.  What can
still go wrong geometrically (zero-length steps, chains too short to bound
area) is reported by :func:`validate_sequence` as closure violations.

Canonical text form, whitespace separated, one token per field::

    SOL                              start of loop
    L  ex ey                         line to endpoint
    A  ex ey sweep ccw               arc to endpoint
    C  cx cy r                       full circle
    E  t p g ox oy oz s d+ d- op ext extrusion parameter block
    SEP                              end of pair
    EOS                              end of sequence
    MASK                             span placeholder in masked streams

Numeric fields are decimal bins 0..255; ``ccw`` is 0|1, ``op`` 0..3 and
``ext`` 0..2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

from .errors import (
    BinRangeError,
    CadfitError,
    OverlappingSegmentsError,
    SequenceSyntaxError,
    StructureError,
    UnknownSegmentError,
)
from .quant import BIN_MAX, check_bin

SOL, SEP, EOS, MASK = "SOL", "SEP", "EOS", "MASK"


def _bin_pair(value) -> tuple[int, int]:
    x, y = value
    return check_bin(x), check_bin(y)


@dataclass(frozen=True)
class Line:
    """Straight chain step ending at ``end``."""

    end: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "end", _bin_pair(self.end))


@dataclass(frozen=True)
class Arc:
    """Circular chain step ending at ``end`` with a sweep angle bin."""

    end: tuple[int, int]
    sweep: int
    ccw: bool

    def __post_init__(self):
        object.__setattr__(self, "end", _bin_pair(self.end))
        check_bin(self.sweep)
        object.__setattr__(self, "ccw", bool(self.ccw))


@dataclass(frozen=True)
class Circle:
    """Full circle; always the sole primitive of its loop."""

    center: tuple[int, int]
    radius: int

    def __post_init__(self):
        object.__setattr__(self, "center", _bin_pair(self.center))
        check_bin(self.radius)


Primitive = Line | Arc | Circle


@dataclass(frozen=True)
class Loop:
    primitives: tuple[Primitive, ...]

    def __post_init__(self):
        prims = tuple(self.primitives)
        if not prims:
            raise StructureError("loop needs at least one primitive")
        object.__setattr__(self, "primitives", prims)


@dataclass(frozen=True)
class Sketch:
    """First loop is the outer profile boundary, later loops are holes."""

    loops: tuple[Loop, ...]

    def __post_init__(self):
        loops = tuple(self.loops)
        if not loops:
            raise StructureError("sketch needs at least one loop")
        object.__setattr__(self, "loops", loops)


class BoolOp(IntEnum):
    NEW = 0
    JOIN = 1
    CUT = 2
    INTERSECT = 3


class Extent(IntEnum):
    ONE_SIDED = 0
    SYMMETRIC = 1
    TWO_SIDED = 2


@dataclass(frozen=True)
class Extrusion:
    """Sketch-plane placement plus the sweep of the profile into a body."""

    orientation: tuple[int, int, int]
    origin: tuple[int, int, int]
    scale: int
    dist_pos: int
    dist_neg: int
    bool_op: BoolOp
    extent: Extent

    def __post_init__(self):
        ori = tuple(check_bin(b) for b in self.orientation)
        org = tuple(check_bin(b) for b in self.origin)
        if len(ori) != 3 or len(org) != 3:
            raise StructureError("orientation and origin take three bins each")
        object.__setattr__(self, "orientation", ori)
        object.__setattr__(self, "origin", org)
        check_bin(self.scale)
        check_bin(self.dist_pos)
        check_bin(self.dist_neg)
        object.__setattr__(self, "bool_op", BoolOp(self.bool_op))
        object.__setattr__(self, "extent", Extent(self.extent))


Pair = tuple[Sketch, Extrusion]


@dataclass(frozen=True)
class ConstructionSequence:
    pairs: tuple[Pair, ...]

    def __post_init__(self):
        pairs = tuple((sk, ex) for sk, ex in self.pairs)
        if not pairs:
            raise StructureError("sequence needs at least one pair")
        object.__setattr__(self, "pairs", pairs)


def chain_vertices(loop: Loop) -> list[tuple[int, int]]:
    """Bin-space vertices visited by a chain loop, start point first.

    The start point is the endpoint of the final primitive; only valid for
    loops made of lines and arcs.
    """
    ends = [p.end for p in loop.primitives]
    return [ends[-1]] + ends[:-1]


# --------------------------------------------------------------------------
# serialization


def primitive_tokens(prim: Primitive) -> list[str]:
    if isinstance(prim, Line):
        return ["L", str(prim.end[0]), str(prim.end[1])]
    if isinstance(prim, Arc):
        return ["A", str(prim.end[0]), str(prim.end[1]), str(prim.sweep), str(int(prim.ccw))]
    return ["C", str(prim.center[0]), str(prim.center[1]), str(prim.radius)]


def extrusion_tokens(ext: Extrusion) -> list[str]:
    fields = (
        list(ext.orientation)
        + list(ext.origin)
        + [ext.scale, ext.dist_pos, ext.dist_neg, int(ext.bool_op), int(ext.extent)]
    )
    return ["E"] + [str(v) for v in fields]


def sequence_tokens(seq: ConstructionSequence) -> list[str]:
    out: list[str] = []
    for sketch, ext in seq.pairs:
        for loop in sketch.loops:
            out.append(SOL)
            for prim in loop.primitives:
                out.extend(primitive_tokens(prim))
        out.extend(extrusion_tokens(ext))
        out.append(SEP)
    out.append(EOS)
    return out


def serialize_sequence(seq: ConstructionSequence) -> str:
    """Canonical single-space text form of ``seq``."""
    return " ".join(sequence_tokens(seq))


# --------------------------------------------------------------------------
# parsing


class _Cursor:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise SequenceSyntaxError("unexpected end of stream")
        self.pos += 1
        return tok

    def take_int(self, what: str, limit: int = BIN_MAX, error: type[CadfitError] = BinRangeError) -> int:
        """The next token as an integer in [0, limit]; a bin by default."""
        tok = self.take()
        try:
            value = int(tok)
        except ValueError:
            raise SequenceSyntaxError(f"{what}: expected an integer, got {tok!r}") from None
        if not 0 <= value <= limit:
            raise error(f"{what}: value {value} outside [0, {limit}]")
        return value


def _parse_primitive(cur: _Cursor) -> Primitive:
    head = cur.take()
    if head == "L":
        return Line((cur.take_int("line ex"), cur.take_int("line ey")))
    if head == "A":
        end = (cur.take_int("arc ex"), cur.take_int("arc ey"))
        sweep = cur.take_int("arc sweep")
        return Arc(end, sweep, cur.take_int("arc ccw", 1, SequenceSyntaxError))
    if head == "C":
        center = (cur.take_int("circle cx"), cur.take_int("circle cy"))
        return Circle(center, cur.take_int("circle r"))
    raise SequenceSyntaxError(f"expected a primitive token, got {head!r}")


def _parse_extrusion(cur: _Cursor) -> Extrusion:
    head = cur.take()
    if head != "E":
        raise StructureError(f"expected extrusion block, got {head!r}")
    names = ["theta", "phi", "gamma", "ox", "oy", "oz", "scale", "dist+", "dist-"]
    bins = [cur.take_int(f"extrusion {n}") for n in names]
    return Extrusion(
        orientation=(bins[0], bins[1], bins[2]),
        origin=(bins[3], bins[4], bins[5]),
        scale=bins[6],
        dist_pos=bins[7],
        dist_neg=bins[8],
        bool_op=cur.take_int("extrusion op", 3, SequenceSyntaxError),
        extent=cur.take_int("extrusion ext", 2, SequenceSyntaxError),
    )


def parse_sequence(text: str) -> ConstructionSequence:
    """Parse a complete token stream and return a validated sequence.

    Accepts any whitespace between tokens, newlines included.  Raises
    SequenceSyntaxError for unknown tokens or arity problems,
    BinRangeError for out-of-range numeric fields and StructureError for
    broken sequence structure.
    """
    tokens = text.split()
    if not tokens:
        raise StructureError("empty stream")
    if MASK in tokens:
        raise SequenceSyntaxError("mask placeholder in a complete stream")
    cur = _Cursor(tokens)
    pairs: list[Pair] = []
    while True:
        tok = cur.peek()
        if tok is None:
            raise StructureError("stream ended without EOS")
        if tok == EOS:
            cur.take()
            break
        loops: list[Loop] = []
        while cur.peek() == SOL:
            cur.take()
            prims: list[Primitive] = []
            while cur.peek() not in (SOL, "E", None):
                if cur.peek() in (SEP, EOS):
                    raise StructureError("loop not followed by an extrusion block")
                prims.append(_parse_primitive(cur))
            loops.append(Loop(tuple(prims)))
        ext = _parse_extrusion(cur)
        sep = cur.take()
        if sep != SEP:
            raise StructureError(f"expected SEP after extrusion, got {sep!r}")
        pairs.append((Sketch(tuple(loops)), ext))
    if cur.peek() is not None:
        raise StructureError("tokens after EOS")
    seq = ConstructionSequence(tuple(pairs))
    problems = validate_sequence(seq)
    if problems:
        first = problems[0]
        msg = f"{first.where}: {first.message}"
        if len(problems) > 1:
            msg += f" (+{len(problems) - 1} more)"
        if first.kind is ViolationKind.RANGE:
            raise BinRangeError(msg)
        raise StructureError(msg)
    return seq


# --------------------------------------------------------------------------
# validation


class ViolationKind(Enum):
    RANGE = "range"
    CLOSURE = "closure"
    STRUCTURE = "structure"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    where: str
    message: str


def _validate_loop(pi: int, li: int, loop: Loop, out: list[Violation]) -> None:
    where = f"p{pi}.l{li}"
    circles = [p for p in loop.primitives if isinstance(p, Circle)]
    if circles:
        if len(loop.primitives) > 1:
            out.append(
                Violation(ViolationKind.STRUCTURE, where, "circle must be the only primitive of its loop")
            )
            return
        circle = circles[0]
        if circle.radius < 1:
            out.append(Violation(ViolationKind.RANGE, f"{where}.c0", "circle radius bin must be positive"))
        return
    for k, prim in enumerate(loop.primitives):
        if isinstance(prim, Arc) and not 1 <= prim.sweep <= 254:
            out.append(
                Violation(
                    ViolationKind.RANGE,
                    f"{where}.c{k}",
                    "arc sweep bin must be in [1, 254]; a full turn is a circle",
                )
            )
    verts = chain_vertices(loop)
    n = len(loop.primitives)
    if n < 2:
        out.append(Violation(ViolationKind.CLOSURE, where, "chain loop needs at least two primitives"))
        return
    if n < 3 and all(isinstance(p, Line) for p in loop.primitives):
        out.append(Violation(ViolationKind.CLOSURE, where, "line-only loop needs at least three lines"))
    for k in range(n):
        if verts[k] == verts[(k + 1) % n]:
            out.append(
                Violation(
                    ViolationKind.CLOSURE,
                    f"{where}.c{k}",
                    "zero-length step: chain revisits its previous vertex",
                )
            )


def validate_sequence(seq: ConstructionSequence) -> list[Violation]:
    """All rule violations in ``seq``, empty when the sequence is valid."""
    out: list[Violation] = []
    first_op = seq.pairs[0][1].bool_op
    if first_op is not BoolOp.NEW:
        out.append(
            Violation(ViolationKind.STRUCTURE, "p0.ext", f"first pair must start a body, got {first_op.name}")
        )
    for pi, (sketch, ext) in enumerate(seq.pairs):
        for li, loop in enumerate(sketch.loops):
            _validate_loop(pi, li, loop, out)
        where = f"p{pi}.ext"
        if ext.scale < 1:
            out.append(Violation(ViolationKind.RANGE, where, "scale bin must be positive"))
        if ext.dist_pos < 1 and ext.dist_neg < 1:
            out.append(Violation(ViolationKind.RANGE, where, "at least one extrusion distance must be positive"))
    return out


# --------------------------------------------------------------------------
# segments


class SegmentKind(Enum):
    PRIMITIVE = "primitive"
    LOOP = "loop"
    EXTRUSION = "extrusion"
    PAIR = "pair"


class Granularity(Enum):
    PRIMITIVE = "primitive"
    LOOP = "loop"
    PAIR = "pair"


@dataclass(frozen=True)
class SegmentId:
    pair: int
    kind: SegmentKind
    loop: int | None = None
    prim: int | None = None

    def label(self) -> str:
        if self.kind is SegmentKind.PRIMITIVE:
            return f"p{self.pair}.l{self.loop}.c{self.prim}"
        if self.kind is SegmentKind.LOOP:
            return f"p{self.pair}.l{self.loop}"
        if self.kind is SegmentKind.EXTRUSION:
            return f"p{self.pair}.ext"
        return f"p{self.pair}"


@dataclass(frozen=True)
class Segment:
    """A segment id, its half-open token span and the part it spans: a
    primitive, a loop, an extrusion or a (sketch, extrusion) pair."""

    id: SegmentId
    span: tuple[int, int]
    part: Primitive | Loop | Extrusion | Pair


def _layout(seq: ConstructionSequence) -> dict[SegmentId, Segment]:
    """Span and part of every segment at every granularity."""
    out: dict[SegmentId, Segment] = {}
    pos = 0
    for pi, pair in enumerate(seq.pairs):
        sketch, ext = pair
        pair_start = pos
        for li, loop in enumerate(sketch.loops):
            loop_start = pos
            pos += 1  # SOL
            for ci, prim in enumerate(loop.primitives):
                width = len(primitive_tokens(prim))
                sid = SegmentId(pi, SegmentKind.PRIMITIVE, li, ci)
                out[sid] = Segment(sid, (pos, pos + width), prim)
                pos += width
            sid = SegmentId(pi, SegmentKind.LOOP, li)
            out[sid] = Segment(sid, (loop_start, pos), loop)
        width = len(extrusion_tokens(ext))
        sid = SegmentId(pi, SegmentKind.EXTRUSION)
        out[sid] = Segment(sid, (pos, pos + width), ext)
        pos += width
        sid = SegmentId(pi, SegmentKind.PAIR)
        out[sid] = Segment(sid, (pair_start, pos), pair)
        pos += 1  # SEP
    return out


def holder(sid: SegmentId, granularity: Granularity) -> SegmentId:
    """The segment at ``granularity`` that holds primitive-granularity ``sid``."""
    if granularity is Granularity.PAIR:
        return SegmentId(sid.pair, SegmentKind.PAIR)
    if granularity is Granularity.LOOP and sid.kind is SegmentKind.PRIMITIVE:
        return SegmentId(sid.pair, SegmentKind.LOOP, sid.loop)
    return sid


def segments(seq: ConstructionSequence, granularity: Granularity = Granularity.PRIMITIVE) -> list[Segment]:
    """Disjoint editable segments of ``seq`` in document order.

    They are the holders of the primitive and extrusion segments, each
    once, in first-seen order, which is document order.  Structural
    markers stay outside the spans, except that loop and pair segments
    carry their own leading SOL tokens; SEP and EOS never belong to any
    segment.
    """
    layout = _layout(seq)
    leaves = (sid for sid in layout if sid.kind in (SegmentKind.PRIMITIVE, SegmentKind.EXTRUSION))
    return [layout[sid] for sid in dict.fromkeys(holder(sid, granularity) for sid in leaves)]


def replace_segment(
    seq: ConstructionSequence, sid: SegmentId, part: Primitive | Loop | Extrusion | Pair
) -> ConstructionSequence:
    """``seq`` with the part that ``sid`` addresses replaced by ``part``."""
    pairs = list(seq.pairs)
    sketch, ext = pairs[sid.pair]
    if sid.kind is SegmentKind.PAIR:
        pairs[sid.pair] = part
    elif sid.kind is SegmentKind.EXTRUSION:
        pairs[sid.pair] = (sketch, part)
    else:
        loops = list(sketch.loops)
        if sid.kind is SegmentKind.PRIMITIVE:
            prims = list(loops[sid.loop].primitives)
            prims[sid.prim] = part
            part = Loop(tuple(prims))
        loops[sid.loop] = part
        pairs[sid.pair] = (Sketch(tuple(loops)), ext)
    return ConstructionSequence(tuple(pairs))


# --------------------------------------------------------------------------
# masking


@dataclass(frozen=True)
class MaskedSequence:
    """A sequence with some segment spans replaced by mask placeholders."""

    base: ConstructionSequence
    entries: tuple[Segment, ...]  # sorted by span start, pairwise disjoint

    def ids(self) -> tuple[SegmentId, ...]:
        return tuple(s.id for s in self.entries)

    def tokens(self) -> list[str]:
        toks = sequence_tokens(self.base)
        for seg in reversed(self.entries):
            lo, hi = seg.span
            toks[lo:hi] = [MASK]
        return toks

    def text(self) -> str:
        return " ".join(self.tokens())


def apply_mask(seq: ConstructionSequence, ids) -> MaskedSequence:
    """Mask the spans of ``ids`` (an iterable of SegmentId) in ``seq``."""
    layout = _layout(seq)
    entries = []
    for sid in ids:
        seg = layout.get(sid)
        if seg is None:
            raise UnknownSegmentError(f"segment {sid.label()} not present in sequence")
        entries.append(seg)
    entries.sort(key=lambda s: s.span)
    for a, b in zip(entries, entries[1:]):
        if b.span[0] < a.span[1]:
            raise OverlappingSegmentsError(f"segments {a.id.label()} and {b.id.label()} overlap")
    return MaskedSequence(seq, tuple(entries))


# --------------------------------------------------------------------------
# edit distance


def token_edit_distance(a: list[str], b: list[str]) -> int:
    """Levenshtein distance between two token lists.

    A shared prefix costs nothing, and neither does reversing both lists, so
    two passes strip the shared prefix, then the shared suffix, before the
    two-row DP, and leave the lists in their order.
    """
    for _ in range(2):
        k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        a, b = a[k:][::-1], b[k:][::-1]
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        for j, y in enumerate(b, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y))
        prev = cur
    return prev[-1]


def edit_distance(a: ConstructionSequence, b: ConstructionSequence) -> int:
    """Token-level edit distance between serialized streams, markers included."""
    return token_edit_distance(sequence_tokens(a), sequence_tokens(b))
