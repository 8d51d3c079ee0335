"""Grammar, masking and edit-distance checks for the sequence core."""

import numpy as np
import pytest

from cadfit.errors import (
    BinRangeError,
    SequenceSyntaxError,
    StructureError,
    UnknownSegmentError,
)
from cadfit.kernel import GridSpec
from cadfit.sequence import (
    Arc,
    BoolOp,
    Circle,
    ConstructionSequence,
    Granularity,
    Line,
    Loop,
    SegmentId,
    SegmentKind,
    Sketch,
    apply_mask,
    edit_distance,
    parse_sequence,
    replace_segment,
    segments,
    sequence_tokens,
    serialize_sequence,
    token_edit_distance,
    validate_sequence,
)
from cadfit.synth import EDIT_CLASSES, mutate, random_renderable, random_sequence

from helpers import circle_pair, extrusion, raises_exactly, square_loop


def one_circle_sequence():
    return ConstructionSequence((circle_pair(),))


def two_pair_sequence():
    return ConstructionSequence(
        (
            (Sketch((square_loop(), Loop((Circle((128, 128), 20),)))), extrusion()),
            circle_pair(op=BoolOp.CUT, cx=100, cy=100, r=30),
        )
    )


# -- independent stream builder: emits token text without the serializer ----


def random_stream(rng):
    """Random grammar-conforming token text, built directly."""
    parts = []
    for _ in range(rng.integers(1, 4)):
        first = not parts
        for _ in range(rng.integers(1, 3)):
            parts.append("SOL")
            if rng.random() < 0.4:
                parts += ["C", str(rng.integers(0, 256)), str(rng.integers(0, 256)), str(rng.integers(1, 256))]
            else:
                nv = int(rng.integers(3, 7))
                pts = _distinct_points(rng, nv)
                for x, y in pts:
                    if rng.random() < 0.3:
                        parts += ["A", str(x), str(y), str(rng.integers(1, 255)), str(rng.integers(0, 2))]
                    else:
                        parts += ["L", str(x), str(y)]
        op = 0 if first else int(rng.integers(0, 4))
        bins = [str(rng.integers(0, 256)) for _ in range(6)]
        parts += (
            ["E"]
            + bins
            + [str(rng.integers(1, 256)), str(rng.integers(1, 256)), str(rng.integers(0, 256))]
            + [str(op), str(rng.integers(0, 3))]
        )
        parts.append("SEP")
    parts.append("EOS")
    return " ".join(parts)


def _distinct_points(rng, nv):
    while True:
        pts = [(int(rng.integers(0, 256)), int(rng.integers(0, 256))) for _ in range(nv)]
        if all(pts[i] != pts[(i + 1) % nv] for i in range(nv)):
            return pts


# -- serialization ----------------------------------------------------------


def test_minimal_sequence_token_count():
    # SOL + 4 circle tokens + 12 extrusion tokens + SEP + EOS
    toks = sequence_tokens(one_circle_sequence())
    assert len(toks) == 19
    assert toks[0] == "SOL" and toks[-2] == "SEP" and toks[-1] == "EOS"


def test_parse_serialize_round_trip_minimal():
    seq = one_circle_sequence()
    text = serialize_sequence(seq)
    assert parse_sequence(text) == seq
    assert serialize_sequence(parse_sequence(text)) == text


def test_round_trip_of_independent_streams():
    rng = np.random.default_rng(7)
    for _ in range(200):
        text = random_stream(rng)
        seq = parse_sequence(text)
        assert serialize_sequence(seq) == text


def test_parse_is_whitespace_insensitive():
    text = serialize_sequence(two_pair_sequence())
    mangled = text.replace(" SEP ", "\nSEP\n\t")
    assert parse_sequence(mangled) == two_pair_sequence()


def test_parse_rejects_missing_eos():
    text = serialize_sequence(one_circle_sequence()).rsplit(" ", 1)[0]
    with pytest.raises(StructureError):
        parse_sequence(text)


def test_parse_rejects_unknown_token():
    with pytest.raises(SequenceSyntaxError):
        parse_sequence("SOL Q 1 2 EOS")


def test_parse_rejects_out_of_range_bin():
    with pytest.raises(BinRangeError):
        parse_sequence("SOL C 300 128 64 E 0 0 0 128 128 128 64 128 0 0 0 SEP EOS")


def test_parse_rejects_empty_sketch():
    with pytest.raises(StructureError):
        parse_sequence("E 0 0 0 128 128 128 64 128 0 0 0 SEP EOS")


def test_parse_rejects_mask_token():
    with pytest.raises(SequenceSyntaxError):
        parse_sequence("SOL MASK E 0 0 0 128 128 128 64 128 0 0 0 SEP EOS")


_EXT = "E 0 0 0 128 128 128 64 128 0 0 0"


@pytest.mark.parametrize(
    "text, kind, message",
    [
        ("EOS", StructureError, "sequence needs at least one pair"),
        (f"SOL {_EXT} SEP EOS", StructureError, "loop needs at least one primitive"),
        (f"{_EXT} SEP EOS", StructureError, "sketch needs at least one loop"),
        (f"L 1 2 {_EXT} SEP EOS", StructureError, "expected extrusion block, got 'L'"),
        (f"SOL C 128 300 64 {_EXT} SEP EOS", BinRangeError, "circle cy: value 300 outside [0, 255]"),
        (
            f"SOL L 10 10 A 200 200 64 7 L 10 200 {_EXT} SEP EOS",
            SequenceSyntaxError,
            "arc ccw: value 7 outside [0, 1]",
        ),
        (
            f"SOL C 128 128 64 L 10 20 {_EXT} SEP EOS",
            StructureError,
            "p0.l0: circle must be the only primitive of its loop",
        ),
        (f"SOL L 10 20 {_EXT} SEP EOS", StructureError, "p0.l0: chain loop needs at least two primitives"),
        (
            "SOL C 128 128 64 E 0 0 0 128 128 128 0 0 0 0 0 SEP EOS",
            BinRangeError,
            "p0.ext: scale bin must be positive (+1 more)",
        ),
    ],
    ids=[
        "no-pairs", "empty-loop", "empty-sketch", "no-sol", "bin-300", "arc-flag-7",
        "circle-with-line", "one-primitive-chain", "zero-scale-and-distances",
    ],
)
def test_parse_names_the_rule_a_stream_breaks(text, kind, message):
    with pytest.raises(kind) as err:
        parse_sequence(text)
    assert type(err.value) is kind
    assert str(err.value) == message


# every part's fields in stream order, spelled out apart from the parser:
# head -> (name in messages, valid values, [(field, largest value, error past it)])
_BIN = (255, BinRangeError)
_PART_FIELDS = {
    "L": ("line", "10 20", [("ex", *_BIN), ("ey", *_BIN)]),
    "A": ("arc", "10 20 64 1", [("ex", *_BIN), ("ey", *_BIN), ("sweep", *_BIN), ("ccw", 1, SequenceSyntaxError)]),
    "C": ("circle", "128 128 64", [("cx", *_BIN), ("cy", *_BIN), ("r", *_BIN)]),
    "E": (
        "extrusion",
        _EXT.split(" ", 1)[1],
        [(f, *_BIN) for f in ("theta", "phi", "gamma", "ox", "oy", "oz", "scale", "dist+", "dist-")]
        + [("op", 3, SequenceSyntaxError), ("ext", 2, SequenceSyntaxError)],
    ),
}


def _field_cases():
    for head, (name, valid, fields) in _PART_FIELDS.items():
        for k, (field, limit, error) in enumerate(fields):
            what = f"{name} {field}"
            yield head, k, "x", SequenceSyntaxError, f"{what}: expected an integer, got 'x'"
            yield head, k, "1.5", SequenceSyntaxError, f"{what}: expected an integer, got '1.5'"
            # a sign, a separator, an Arabic-Indic digit, more digits than int() converts
            for tok in ("+1", "1_0", "\u0661", "9" * 5000):
                yield head, k, tok, SequenceSyntaxError, f"{what}: expected an integer, got {tok!r}"
            yield head, k, str(limit + 1), error, f"{what}: value {limit + 1} outside [0, {limit}]"
            yield head, k, "-1", error, f"{what}: value -1 outside [0, {limit}]"
            yield head, k, None, SequenceSyntaxError, "unexpected end of stream"


@pytest.mark.parametrize(
    "head, k, token, kind, message",
    list(_field_cases()),
    ids=[
        f"{h}-{_PART_FIELDS[h][2][k][0]}-{'cut' if t is None else t if len(t) < 9 else f'{t[0]}x{len(t)}'}"
        for h, k, t, *_ in _field_cases()
    ],
)
def test_parse_names_the_field_a_token_breaks(head, k, token, kind, message):
    """A bad token in field k of a part, or the stream cut after field k."""
    values = _PART_FIELDS[head][1].split()
    before = "SOL C 128 128 64" if head == "E" else "SOL"
    after = "SEP EOS" if head == "E" else f"{_EXT} SEP EOS"
    if token is None:
        text = " ".join([before, head, *values[: k + 1]])
    else:
        values[k] = token
        text = " ".join([before, head, *values, after])
    with pytest.raises(kind) as err:
        parse_sequence(text)
    assert type(err.value) is kind
    assert str(err.value) == message


@pytest.mark.parametrize("placement", [{"orientation": (0, 0)}, {"origin": (128, 128, 128, 128)}])
def test_extrusion_takes_three_bins_for_orientation_and_origin(placement):
    with raises_exactly(StructureError, "orientation and origin take three bins each"):
        extrusion(**placement)


def test_parse_rejects_first_op_not_new():
    text = serialize_sequence(ConstructionSequence((circle_pair(),))).split()
    text[-4] = "1"  # bool_op field of the only extrusion
    with pytest.raises(StructureError):
        parse_sequence(" ".join(text))


# -- validation -------------------------------------------------------------


def test_validate_clean_sequence():
    assert validate_sequence(two_pair_sequence()) == []


def test_validate_flags_zero_radius():
    seq = ConstructionSequence((circle_pair(r=0),))
    problems = validate_sequence(seq)
    assert len(problems) == 1
    assert problems[0].error is BinRangeError
    assert "radius" in problems[0].message


def test_validate_flags_degenerate_three_line_loop():
    # third line repeats the second vertex, so the chain cannot bound area
    loop = Loop((Line((60, 60)), Line((200, 60)), Line((200, 60))))
    seq = ConstructionSequence(((Sketch((loop,)), extrusion()),))
    problems = validate_sequence(seq)
    assert any(p.error is StructureError and "zero-length step" in p.message for p in problems)
    assert any(p.where.startswith("p0.l0") for p in problems)


def test_validate_flags_short_line_loop():
    loop = Loop((Line((60, 60)), Line((200, 60))))
    seq = ConstructionSequence(((Sketch((loop,)), extrusion()),))
    assert any(p.error is StructureError and "three lines" in p.message for p in validate_sequence(seq))


def test_validate_flags_full_turn_arc():
    loop = Loop((Line((60, 60)), Arc((200, 60), 255, True), Line((128, 200))))
    seq = ConstructionSequence(((Sketch((loop,)), extrusion()),))
    assert any(p.error is BinRangeError and "arc sweep" in p.message for p in validate_sequence(seq))


def test_validate_flags_wrong_first_op():
    seq = ConstructionSequence((circle_pair(op=BoolOp.JOIN),))
    problems = validate_sequence(seq)
    assert any(p.error is StructureError and p.where == "p0.ext" for p in problems)


def test_validate_flags_zero_scale_and_distances():
    seq = ConstructionSequence((circle_pair(scale=0, dist_pos=0),))
    kinds = [p.message for p in validate_sequence(seq)]
    assert any("scale" in m for m in kinds)
    assert any("distance" in m for m in kinds)


# -- segments ---------------------------------------------------------------


def test_minimal_sequence_has_two_default_segments():
    segs = segments(one_circle_sequence())
    assert [s.id.kind for s in segs] == [SegmentKind.PRIMITIVE, SegmentKind.EXTRUSION]
    assert segs[0].span == (1, 5)
    assert segs[1].span == (5, 17)


def test_pair_granularity_spans_whole_pair():
    segs = segments(one_circle_sequence(), Granularity.PAIR)
    assert len(segs) == 1
    assert segs[0].span == (0, 17)


def _uncovered(seq, granularity):
    toks = sequence_tokens(seq)
    covered = np.zeros(len(toks), dtype=bool)
    for seg in segments(seq, granularity):
        covered[seg.span[0] : seg.span[1]] = True
    return [toks[i] for i in np.flatnonzero(~covered)]


def test_segment_coverage_against_marker_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        seq = parse_sequence(random_stream(rng))
        assert set(_uncovered(seq, Granularity.PRIMITIVE)) <= {"SOL", "SEP", "EOS"}
        assert set(_uncovered(seq, Granularity.LOOP)) <= {"SEP", "EOS"}
        assert set(_uncovered(seq, Granularity.PAIR)) <= {"SEP", "EOS"}
        # and the spans of one granularity never overlap
        for gran in Granularity:
            segs = segments(seq, gran)
            for a, b in zip(segs, segs[1:]):
                assert a.span[1] <= b.span[0]


def test_segments_in_document_order():
    seq = two_pair_sequence()
    segs = segments(seq)
    starts = [s.span[0] for s in segs]
    assert starts == sorted(starts)
    assert segs[0].id == SegmentId(0, SegmentKind.PRIMITIVE, 0, 0)


def test_replace_segment_puts_a_donor_part_into_exactly_its_span():
    rng = np.random.default_rng(19)
    checked = 0
    for _ in range(20):
        seq, other = random_sequence(rng), random_sequence(rng)
        other_toks = sequence_tokens(other)
        for gran in Granularity:
            donors = segments(other, gran)
            for s in segments(seq, gran):
                assert replace_segment(seq, s.id, s.part) == seq
                same = [d for d in donors if d.id.kind is s.id.kind]
                d = same[int(rng.integers(len(same)))]
                new = replace_segment(seq, s.id, d.part)
                assert apply_mask(new, [s.id]).tokens() == apply_mask(seq, [s.id]).tokens()
                placed = {x.id: x for x in segments(new, gran)}[s.id]
                assert placed.part == d.part
                lo, hi = placed.span
                assert sequence_tokens(new)[lo:hi] == other_toks[d.span[0] : d.span[1]]
                checked += 1
    assert checked > 300


# -- masking ----------------------------------------------------------------


def test_empty_mask_is_identity():
    seq = two_pair_sequence()
    masked = apply_mask(seq, [])
    assert masked.tokens() == sequence_tokens(seq)
    assert masked.base == seq


def test_mask_all_default_segments_leaves_markers_only():
    seq = two_pair_sequence()
    masked = apply_mask(seq, [s.id for s in segments(seq)])
    assert set(masked.tokens()) == {"SOL", "SEP", "EOS", "MASK"}


def test_mask_round_trip_random():
    rng = np.random.default_rng(13)
    for _ in range(50):
        seq = parse_sequence(random_stream(rng))
        segs = segments(seq, rng.choice(list(Granularity)))
        take = rng.random(len(segs)) < 0.5
        ids = [s.id for s, t in zip(segs, take) if t]
        masked = apply_mask(seq, ids)
        assert masked.base == seq
        assert masked.tokens().count("MASK") == len(ids)


def test_mask_unknown_segment():
    with pytest.raises(UnknownSegmentError):
        apply_mask(one_circle_sequence(), [SegmentId(3, SegmentKind.PAIR)])


def test_mask_overlapping_segments():
    seq = one_circle_sequence()
    with raises_exactly(ValueError, "segments p0.l0 and p0.l0.c0 overlap"):
        apply_mask(
            seq,
            [SegmentId(0, SegmentKind.LOOP, 0), SegmentId(0, SegmentKind.PRIMITIVE, 0, 0)],
        )


# -- edit distance ----------------------------------------------------------


def _dp_reference(a, b):
    """Textbook full-matrix Levenshtein, kept independent of the library."""
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[m][n]


def test_edit_distance_identity_and_single_substitution():
    seq = one_circle_sequence()
    assert edit_distance(seq, seq) == 0
    other = ConstructionSequence((circle_pair(r=65),))
    assert edit_distance(seq, other) == 1


def test_edit_distance_matches_reference_on_random_streams():
    rng = np.random.default_rng(17)
    for _ in range(100):
        a = parse_sequence(random_stream(rng))
        b = parse_sequence(random_stream(rng))
        assert edit_distance(a, b) == _dp_reference(sequence_tokens(a), sequence_tokens(b))


def test_edit_distance_matches_reference_on_near_identical_streams():
    # an edit leaves most tokens in place: the shared prefix and suffix cover
    # all but a few, and at times a whole side
    rng, spec = np.random.default_rng(23), GridSpec(resolution=16)
    checked = 0
    while checked < 40:
        source = random_renderable(rng, spec)[0]
        edited = mutate(source, EDIT_CLASSES[checked % len(EDIT_CLASSES)], rng, spec)
        if edited is None:
            continue
        a, b = sequence_tokens(source), sequence_tokens(edited)
        for x, y in ((a, b), (b, a), (a, a), (a, a[:-3]), (a[2:], a)):
            assert token_edit_distance(x, y) == _dp_reference(x, y)
        checked += 1


def test_edit_distance_metric_axioms():
    rng = np.random.default_rng(19)
    seqs = [parse_sequence(random_stream(rng)) for _ in range(6)]
    for a in seqs:
        for b in seqs:
            assert edit_distance(a, b) == edit_distance(b, a)
            assert (edit_distance(a, b) == 0) == (a == b)
    for a in seqs[:3]:
        for b in seqs[:3]:
            for c in seqs[:3]:
                assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


def test_token_edit_distance_counts_structural_markers():
    # dropping a pair removes its SEP too, so the distance sees the marker
    two = two_pair_sequence()
    one = ConstructionSequence(two.pairs[:1])
    gap = len(sequence_tokens(two)) - len(sequence_tokens(one))
    assert edit_distance(two, one) == gap
    assert token_edit_distance(["SOL", "L", "1"], ["SOL", "L", "2"]) == 1
