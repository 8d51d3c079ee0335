"""Generator checks: surrogate sampling contracts and the external protocol."""

import hashlib
import sys

import numpy as np
import pytest

from helpers import cylinder_sequence, extrusion

from cadfit import generator
from cadfit.engine import EngineConfig, run
from cadfit.errors import GeneratorProtocolError
from cadfit.generator import (
    ORIGIN_EXTERNAL,
    ORIGIN_SURROGATE,
    ExternalGenerator,
    infill,
)
from cadfit.kernel import GridSpec, render
from cadfit.sequence import (
    Arc,
    BoolOp,
    Circle,
    ConstructionSequence,
    Extent,
    Granularity,
    Line,
    Loop,
    SegmentId,
    SegmentKind,
    Sketch,
    apply_mask,
    parse_sequence,
    segments,
    sequence_tokens,
    serialize_sequence,
    validate_sequence,
)
from cadfit.synth import random_renderable


def _chain_pair() -> ConstructionSequence:
    loop = Loop(
        (
            Line((204, 51)),
            Line((204, 204)),
            Arc((51, 204), 80, True),
            Line((51, 51)),
        )
    )
    return ConstructionSequence(((Sketch((loop,)), extrusion(BoolOp.NEW, Extent.ONE_SIDED)),))


def _two_loop_pair() -> ConstructionSequence:
    sketch = Sketch((Loop((Circle((128, 128), 70),)), Loop((Circle((128, 128), 20),))))
    return ConstructionSequence(((sketch, extrusion(BoolOp.NEW, Extent.ONE_SIDED)),))


# -- surrogate ---------------------------------------------------------------


def test_infill_rejects_zero_candidates():
    masked = apply_mask(cylinder_sequence(), [SegmentId(0, SegmentKind.PRIMITIVE, 0, 0)])
    with pytest.raises(ValueError):
        infill(masked, 0, 0)
    with pytest.raises(ValueError):
        infill(masked, 0, 0, ExternalGenerator(["/nonexistent/binary/path"]))


def test_zero_masks_returns_base_copies():
    seq = cylinder_sequence()
    masked = apply_mask(seq, ())
    out = infill(masked, 5, 3)
    assert len(out) == 5
    for cand in out:
        assert cand.seq == seq
        assert cand.origin == ORIGIN_SURROGATE


def test_candidates_validate_and_preserve_unmasked_spans():
    rng = np.random.default_rng(11)
    n, seed = 4, 7
    for _ in range(6):
        seq = random_renderable(rng, GridSpec())[0]
        for gran in Granularity:
            segs = segments(seq, gran)
            take = min(len(segs), 1 + int(rng.integers(2)))
            picked = rng.choice(len(segs), size=take, replace=False)
            masked = apply_mask(seq, [segs[i].id for i in picked])
            for cand in infill(masked, n, seed):
                assert validate_sequence(cand.seq) == []
                assert parse_sequence(serialize_sequence(cand.seq)) == cand.seq
                assert apply_mask(cand.seq, masked.ids()).tokens() == masked.tokens()


def test_infill_deterministic_and_seed_sensitive():
    seq = cylinder_sequence()
    masked = apply_mask(seq, [SegmentId(0, SegmentKind.PRIMITIVE, 0, 0)])
    a = infill(masked, 6, 9)
    b = infill(masked, 6, 9)
    c = infill(masked, 6, 10)
    texts = [serialize_sequence(x.seq) for x in a]
    assert texts == [serialize_sequence(x.seq) for x in b]
    assert texts != [serialize_sequence(x.seq) for x in c]


# sha256 of the candidate streams below: any change to a draw, to its
# order or to a clamp moves it
SAMPLER_PIN = "52fc6d3a0bfdbc142f16f2eabfbbb82e3b9f54104429078eb39c584039c606f8"


def test_seeded_infill_streams_are_pinned():
    lines = []
    seeds = iter(range(1000))
    for name, seq in (("chain", _chain_pair()), ("circle", cylinder_sequence()), ("two-loop", _two_loop_pair())):
        for gran in Granularity:
            segs = segments(seq, gran)
            masks = [[s.id] for s in segs] + [[s.id for s in segs]]
            for ids in masks:
                masked = apply_mask(seq, ids)
                seed = next(seeds)
                labels = " ".join(i.label() for i in masked.ids())
                for cand in infill(masked, 6, seed):
                    lines.append(f"{name} {gran.value} {seed} [{labels}] {serialize_sequence(cand.seq)}")
    _, masked = _masked_circle()
    for cand in infill(masked, 4, 3, ExternalGenerator(["/nonexistent/binary/path"])):
        lines.append(f"fallback {cand.origin} {cand.note.split(':')[0]} {serialize_sequence(cand.seq)}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SAMPLER_PIN


def test_radius_jitter_statistics():
    # keep/narrow/wide mixture around the original bin: mean stays put,
    # keeps dominate, and the wide scale leaves a real tail past three
    # narrow sigma without escaping the channel clamp
    seq = cylinder_sequence(r=100)
    masked = apply_mask(seq, [SegmentId(0, SegmentKind.PRIMITIVE, 0, 0)])
    out = infill(masked, 10_000, 5)
    radii = np.array([c.seq.pairs[0][0].loops[0].primitives[0].radius for c in out])
    assert abs(radii.mean() - 100.0) <= 1.0
    kept = np.mean(radii == 100)
    assert 0.55 <= kept <= 0.68
    changed = radii[radii != 100]
    far = np.mean(np.abs(changed - 100) > 36)
    assert 0.12 <= far <= 0.32
    assert np.abs(changed - 100).max() > 60
    assert radii.min() >= 1 and radii.max() <= 255


def test_substitution_flips_chain_kinds_only(monkeypatch):
    seq = _chain_pair()
    line_id = SegmentId(0, SegmentKind.PRIMITIVE, 0, 0)
    arc_id = SegmentId(0, SegmentKind.PRIMITIVE, 0, 2)

    monkeypatch.setattr(generator, "_SUBSTITUTE", 1.0)
    for cand in infill(apply_mask(seq, [line_id]), 8, 1):
        assert isinstance(cand.seq.pairs[0][0].loops[0].primitives[0], Arc)
    for cand in infill(apply_mask(seq, [arc_id]), 8, 1):
        assert isinstance(cand.seq.pairs[0][0].loops[0].primitives[2], Line)
    monkeypatch.setattr(generator, "_SUBSTITUTE", 0.0)
    for cand in infill(apply_mask(seq, [line_id, arc_id]), 8, 1):
        prims = cand.seq.pairs[0][0].loops[0].primitives
        assert isinstance(prims[0], Line)
        arc = prims[2]
        assert isinstance(arc, Arc)
        assert arc.ccw is True
        assert 1 <= arc.sweep <= 254


def test_circle_kind_is_stable_under_substitution(monkeypatch):
    seq = cylinder_sequence()
    masked = apply_mask(seq, [SegmentId(0, SegmentKind.PRIMITIVE, 0, 0)])
    monkeypatch.setattr(generator, "_SUBSTITUTE", 1.0)
    for cand in infill(masked, 8, 2):
        assert isinstance(cand.seq.pairs[0][0].loops[0].primitives[0], Circle)


def test_structural_moves_change_loop_count_within_masked_pair(monkeypatch):
    seq = _two_loop_pair()
    masked = apply_mask(seq, [SegmentId(0, SegmentKind.PAIR)])
    monkeypatch.setattr(generator, "_STRUCTURAL", 1.0)
    for cand in infill(masked, 16, 4):
        assert len(cand.seq.pairs[0][0].loops) in (1, 3)
    monkeypatch.setattr(generator, "_STRUCTURAL", 0.0)
    for cand in infill(masked, 16, 4):
        assert len(cand.seq.pairs[0][0].loops) == 2

    single = cylinder_sequence()
    masked = apply_mask(single, [SegmentId(0, SegmentKind.PAIR)])
    monkeypatch.setattr(generator, "_STRUCTURAL", 1.0)
    for cand in infill(masked, 8, 4):
        assert len(cand.seq.pairs[0][0].loops) == 2


def test_extrusion_mask_keeps_op_and_extent():
    seq = cylinder_sequence()
    ext = seq.pairs[0][1]
    masked = apply_mask(seq, [SegmentId(0, SegmentKind.EXTRUSION)])
    out = infill(masked, 12, 6)
    changed = 0
    for cand in out:
        got = cand.seq.pairs[0][1]
        assert got.bool_op is ext.bool_op
        assert got.extent is ext.extent
        changed += got != ext
    assert changed >= 10


# -- external endpoint -------------------------------------------------------


ECHO_STUB = """\
import sys

replacement = " ".join(sys.argv[1:])
while True:
    header = sys.stdin.readline()
    if not header:
        break
    n = int(header.split()[1])
    masked = sys.stdin.readline().strip()
    for _ in range(n):
        print(masked.replace("MASK", replacement) if replacement else masked)
    print("END")
    sys.stdout.flush()
"""

GARBAGE_STUB = """\
import sys

header = sys.stdin.readline()
n = int(header.split()[1])
sys.stdin.readline()
for _ in range(n):
    print("utter nonsense not a token stream")
print("END")
sys.stdout.flush()
"""

PARTIAL_STUB = """\
import sys

replacement = " ".join(sys.argv[1:])
header = sys.stdin.readline()
n = int(header.split()[1])
masked = sys.stdin.readline().strip()
print(masked.replace("MASK", replacement))
for _ in range(n - 1):
    print("junk line")
print("END")
sys.stdout.flush()
"""

# streams bytes and never ends the line
FLOOD_STUB = """\
import sys

sys.stdin.readline()
sys.stdin.readline()
while True:
    sys.stdout.write("C" * 65536)
    sys.stdout.flush()
"""

NO_END_STUB = """\
import sys

header = sys.stdin.readline()
n = int(header.split()[1])
masked = sys.stdin.readline().strip()
for _ in range(n):
    print(masked.replace("MASK", "C 90 90 40"))
print("FIN")
sys.stdout.flush()
"""

# answers one candidate line and END to every request, and stays alive
EARLY_END_STUB = """\
import sys

while True:
    if not sys.stdin.readline():
        break
    masked = sys.stdin.readline().strip()
    print(masked.replace("MASK", "C 90 90 40"))
    print("END")
    sys.stdout.flush()
"""

STALL_STUB = """\
import sys, time

sys.stdin.readline()
sys.stdin.readline()
time.sleep(30)
"""

PARTIAL_LINE_STUB = """\
import sys, time

sys.stdin.readline()
sys.stdin.readline()
sys.stdout.write("SOL C 90")
sys.stdout.flush()
time.sleep(30)
"""

DYING_STUB = """\
import sys

sys.stdin.readline()
masked = sys.stdin.readline().strip()
print(masked.replace("MASK", "C 90 90 40"))
sys.stdout.flush()
"""

EXTRA_LINE_STUB = """\
import sys

while True:
    header = sys.stdin.readline()
    if not header:
        break
    n = int(header.split()[1])
    masked = sys.stdin.readline().strip()
    for _ in range(n + 1):
        print(masked)
    print("END")
    sys.stdout.flush()
"""

# answers every request with a circle of radius 10 + seed; the answer to
# seed 1 comes only after the client has given up waiting for it
LATE_SEED_STUB = """\
import sys, time

while True:
    header = sys.stdin.readline()
    if not header:
        break
    _, n, seed = header.split()
    masked = sys.stdin.readline().strip()
    if seed == "1":
        time.sleep(1.5)
    for _ in range(int(n)):
        print(masked.replace("MASK", "C 128 128 %d" % (10 + int(seed))))
    print("END")
    sys.stdout.flush()
"""

TAMPER_STUB = """\
import sys

line = " ".join(sys.argv[1:])
header = sys.stdin.readline()
n = int(header.split()[1])
sys.stdin.readline()
for _ in range(n):
    print(line)
print("END")
sys.stdout.flush()
"""


def _stub(tmp_path, name, body, *args):
    path = tmp_path / name
    path.write_text(body)
    return [sys.executable, str(path), *args]


def _masked_circle():
    seq = cylinder_sequence()
    sid = SegmentId(0, SegmentKind.PRIMITIVE, 0, 0)
    return seq, apply_mask(seq, [sid])


def test_echo_endpoint_restores_base(tmp_path):
    seq, masked = _masked_circle()
    span = " ".join(
        sequence_tokens(seq)[slice(*segments(seq)[0].span)]
    )
    with ExternalGenerator(_stub(tmp_path, "echo.py", ECHO_STUB, *span.split())) as gen:
        out = infill(masked, 4, 0, gen)
    assert len(out) == 4
    for cand in out:
        assert cand.seq == seq
        assert cand.origin == ORIGIN_EXTERNAL
        assert cand.note == ""


def test_garbage_endpoint_backfills_with_surrogate(tmp_path):
    _, masked = _masked_circle()
    n, seed = 5, 8
    with ExternalGenerator(_stub(tmp_path, "garbage.py", GARBAGE_STUB)) as gen:
        out = infill(masked, n, seed, gen)
    assert len(out) == 5
    assert all(c.origin == ORIGIN_SURROGATE for c in out)
    assert [c.seq for c in out] == [c.seq for c in infill(masked, n, seed)]


def test_partial_endpoint_mixes_external_and_surrogate(tmp_path, monkeypatch):
    _, masked = _masked_circle()
    n, seed = 5, 8
    alone = infill(masked, n, seed)
    fill_once, draws = generator._fill_once, []
    monkeypatch.setattr(generator, "_fill_once", lambda *args: draws.append(args) or fill_once(*args))
    cmd = _stub(tmp_path, "partial.py", PARTIAL_STUB, "C", "90", "90", "40")
    with ExternalGenerator(cmd) as gen:
        out = infill(masked, n, seed, gen)
    origins = [c.origin for c in out]
    assert origins == [ORIGIN_EXTERNAL] + [ORIGIN_SURROGATE] * 4
    got = out[0].seq.pairs[0][0].loops[0].primitives[0]
    assert got == Circle((90, 90), 40)
    # the backfill is the surrogate's first four, drawn once each
    assert [c.seq for c in out[1:]] == [c.seq for c in alone[:4]]
    assert len(draws) == 4


def test_tampering_endpoint_is_rejected(tmp_path):
    # valid stream, but it edits a span that was never masked
    seq, masked = _masked_circle()
    tampered = serialize_sequence(
        ConstructionSequence(((seq.pairs[0][0], extrusion(BoolOp.NEW, Extent.ONE_SIDED, dist_pos=31)),))
    )
    assert validate_sequence(parse_sequence(tampered)) == []
    n, seed = 3, 8
    with ExternalGenerator(_stub(tmp_path, "tamper.py", TAMPER_STUB, *tampered.split())) as gen:
        out = infill(masked, n, seed, gen)
    assert all(c.origin == ORIGIN_SURROGATE for c in out)


def test_unreachable_endpoint_falls_back_with_note():
    _, masked = _masked_circle()
    n, seed = 4, 8
    gen = ExternalGenerator(["/nonexistent/binary/path"])
    out = infill(masked, n, seed, gen)
    assert len(out) == 4
    for cand in out:
        assert cand.origin == ORIGIN_SURROGATE
        assert "fallback" in cand.note
    assert [c.seq for c in out] == [c.seq for c in infill(masked, n, seed)]


def test_stalling_endpoint_times_out_to_fallback(tmp_path):
    _, masked = _masked_circle()
    with ExternalGenerator(_stub(tmp_path, "stall.py", STALL_STUB), timeout=0.3) as gen:
        out = infill(masked, 3, 8, gen)
    assert all("fallback" in c.note for c in out)


def test_endpoint_flooding_one_line_falls_back_at_the_bound(tmp_path):
    _, masked = _masked_circle()
    n, seed = 3, 8
    with ExternalGenerator(_stub(tmp_path, "flood.py", FLOOD_STUB), timeout=10) as gen:
        out = infill(masked, n, seed, gen)
    assert all(c.origin == ORIGIN_SURROGATE and "line over 1048576 bytes" in c.note for c in out)
    assert [c.seq for c in out] == [c.seq for c in infill(masked, n, seed)]


@pytest.mark.parametrize("body", [PARTIAL_LINE_STUB, DYING_STUB], ids=["partial-line", "dies"])
def test_endpoint_breaking_off_mid_response_falls_back(tmp_path, body):
    _, masked = _masked_circle()
    n, seed = 3, 8
    with ExternalGenerator(_stub(tmp_path, "broken.py", body), timeout=0.3) as gen:
        out = infill(masked, n, seed, gen)
    assert all(c.origin == ORIGIN_SURROGATE and "fallback" in c.note for c in out)
    assert [c.seq for c in out] == [c.seq for c in infill(masked, n, seed)]


def test_missing_end_is_a_protocol_error(tmp_path):
    _, masked = _masked_circle()
    cmd = _stub(tmp_path, "noend.py", NO_END_STUB)
    with ExternalGenerator(cmd) as gen:
        with pytest.raises(GeneratorProtocolError):
            gen.request(masked.text(), 3, 8)
    n, seed = 3, 8
    with ExternalGenerator(cmd) as gen:
        out = infill(masked, n, seed, gen)
    assert all(c.origin == ORIGIN_SURROGATE and "fallback" in c.note for c in out)
    assert [c.seq for c in out] == [c.seq for c in infill(masked, n, seed)]


def test_an_early_end_is_a_protocol_error_at_once(tmp_path):
    _, masked = _masked_circle()
    cmd = _stub(tmp_path, "early.py", EARLY_END_STUB)
    n, seed = 4, 8
    with ExternalGenerator(cmd) as gen:
        with pytest.raises(GeneratorProtocolError, match="^END after 1 of 4 candidate lines$"):
            gen.request(masked.text(), n, seed)
        out = infill(masked, n, seed, gen)
    assert all(c.origin == ORIGIN_SURROGATE and c.note.endswith("END after 1 of 4 candidate lines") for c in out)
    assert [c.seq for c in out] == [c.seq for c in infill(masked, n, seed)]


def test_run_survives_an_endpoint_that_sends_extra_lines(tmp_path):
    spec = GridSpec(resolution=16)
    seq = cylinder_sequence()
    target = render(cylinder_sequence(r=90), spec)
    cfg = EngineConfig(max_rounds=2, n=4)
    with ExternalGenerator(_stub(tmp_path, "extra.py", EXTRA_LINE_STUB)) as gen:
        result = run(seq, target, cfg, endpoint=gen)
    alone = run(seq, target, cfg)
    assert result.trace[0].selected
    assert result == alone


def test_late_answer_is_not_read_by_the_next_request(tmp_path):
    _, masked = _masked_circle()
    cmd = _stub(tmp_path, "late.py", LATE_SEED_STUB)
    with ExternalGenerator(cmd, timeout=1.0) as gen:
        first = infill(masked, 2, 1, gen)
        second = infill(masked, 2, 7, gen)
    assert all("fallback" in c.note for c in first)
    assert all(c.origin == ORIGIN_EXTERNAL for c in second)
    assert [c.seq.pairs[0][0].loops[0].primitives[0].radius for c in second] == [17, 17]


def test_endpoint_survives_repeated_requests(tmp_path):
    seq, masked = _masked_circle()
    span = sequence_tokens(seq)[slice(*segments(seq)[0].span)]
    with ExternalGenerator(_stub(tmp_path, "echo.py", ECHO_STUB, *span)) as gen:
        first = infill(masked, 2, 0, gen)
        second = infill(masked, 2, 1, gen)
    assert [c.seq for c in first] == [c.seq for c in second]
    assert all(c.origin == ORIGIN_EXTERNAL for c in second)
