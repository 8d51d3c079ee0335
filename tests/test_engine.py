"""Engine checks: pooling embeds, queue semantics, and the full edit loop."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from helpers import cell_points, circle_pair, cylinder_sequence, extrusion, raises_exactly, square_loop

from cadfit import engine, kernel
from cadfit.engine import (
    ABLATION_MODES,
    EngineConfig,
    PriorityQueue,
    embed_shape,
    embed_sequence,
    latent_distance,
    run,
    run_corpus,
)
from cadfit.errors import EmptySurfaceError, RenderInvalidError, ResolutionMismatchError, StructureError
from cadfit.kernel import GridSpec, TSDFGrid, render
from cadfit.metrics import iou
from cadfit.report import run_report
from cadfit.sequence import BoolOp, ConstructionSequence, Granularity, Sketch, parse_sequence, serialize_sequence
from cadfit.synth import SynthSpec, random_renderable, synth


def _sphere_grid(spec: GridSpec, radius: float = 0.35) -> TSDFGrid:
    pts = cell_points(spec)
    vals = np.linalg.norm(pts, axis=1) - radius
    vals = np.clip(vals, -spec.tau, spec.tau).astype(np.float32)
    return TSDFGrid(spec, vals.reshape((spec.resolution,) * 3))


# -- embedding ---------------------------------------------------------------


def test_constant_grid_embeds_to_constant_latent():
    """A grid constant on each pooling block embeds to those constants: 0.125,
    but -0.125 in the first pooled x layer, which gives the grid a surface."""
    spec = GridSpec()
    vals = np.full((32, 32, 32), 0.125, dtype=np.float32)
    vals[:4] = -0.125
    lat = embed_shape(TSDFGrid(spec, vals))
    assert lat.shape == (512,)
    assert np.allclose(lat.reshape(8, 8, 8), np.where(np.arange(8) == 0, -0.125, 0.125)[:, None, None])


def _numpy_block_means(vals: np.ndarray) -> np.ndarray:
    b = vals.shape[0] // 8
    return vals.astype(np.float64).reshape(8, b, 8, b, 8, b).mean(axis=(1, 3, 5)).ravel()


def _assert_bitwise(a: np.ndarray, b: np.ndarray) -> None:
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_embed_matches_bruteforce_block_means():
    rng = np.random.default_rng(0)
    spec = GridSpec()
    vals = rng.uniform(-0.2, 0.2, (32, 32, 32)).astype(np.float32)
    grid = TSDFGrid(spec, vals)
    lat = embed_shape(grid)
    b = 32 // 8
    ref = np.empty((8, 8, 8))
    for i in range(8):
        for j in range(8):
            for k in range(8):
                block = vals[i * b : (i + 1) * b, j * b : (j + 1) * b, k * b : (k + 1) * b]
                ref[i, j, k] = block.astype(np.float64).mean()
    _assert_bitwise(lat, ref.ravel())
    _assert_bitwise(lat, _numpy_block_means(vals))


@pytest.mark.parametrize("resolution", [8, 16, 32, 64])  # block edges 1, 2, 4 and 8
def test_embed_equals_numpy_block_mean_bitwise(resolution):
    rng = np.random.default_rng(resolution)
    spec = GridSpec(resolution=resolution)
    for _ in range(8):
        # clipped, so whole blocks sit at +-tau as in a rendered grid
        vals = np.clip(rng.normal(0.0, 0.15, (resolution,) * 3), -spec.tau, spec.tau).astype(np.float32)
        _assert_bitwise(embed_shape(TSDFGrid(spec, vals)), _numpy_block_means(vals))


def test_embed_falls_back_to_numpy_below_the_exactness_bound():
    """A nonzero sample below 2^-26 (resolution 32, tau 0.2): the fast block
    sums of this grid would round differently from numpy's."""
    spec = GridSpec()
    vals = np.random.default_rng([32, 3]).uniform(-0.2, 0.2, (32, 32, 32)).astype(np.float32)
    vals[0, 0, 1] = 2.0**-54
    _assert_bitwise(embed_shape(TSDFGrid(spec, vals)), _numpy_block_means(vals))


def test_embed_of_zero_sum_blocks_equals_numpy():
    spec = GridSpec()
    vals = np.random.default_rng(7).uniform(-0.2, 0.2, (32, 32, 32)).astype(np.float32)
    vals[:4, :4, :4] = -0.0
    vals[4:8, :4, :4] = 0.0
    vals[4:8, :4, :4][0, 0, :2] = (0.125, -0.125)
    lat = embed_shape(TSDFGrid(spec, vals))
    _assert_bitwise(lat, _numpy_block_means(vals))
    assert lat[0] == lat[64] == 0.0


# sha256 of the latents of the seeded renders below: any change to a
# rounding in the render or the pooling moves it
EMBED_PIN = "d8d1b8f280abeb7b9597ab3ae1cff54adbfdde91d637354d79c1c89421c62bf5"


def test_seeded_embeddings_are_pinned():
    digest = hashlib.sha256()
    for resolution, count in ((32, 8), (64, 3)):
        rng = np.random.default_rng([resolution, 101])
        spec = GridSpec(resolution=resolution)
        for _ in range(count):
            lat = embed_shape(random_renderable(rng, spec)[1])
            digest.update(lat.tobytes())
    assert digest.hexdigest() == EMBED_PIN


def test_embed_rotates_with_the_grid():
    rng = np.random.default_rng(1)
    spec = GridSpec()
    vals = rng.uniform(-0.2, 0.2, (32, 32, 32)).astype(np.float32)
    rotated = np.rot90(vals, axes=(0, 1)).copy()
    lat = embed_shape(TSDFGrid(spec, vals)).reshape(8, 8, 8)
    lat_rot = embed_shape(TSDFGrid(spec, rotated)).reshape(8, 8, 8)
    assert np.allclose(lat_rot, np.rot90(lat, axes=(0, 1)), atol=1e-12)


def test_embed_rejects_non_divisible_pool():
    grid = render(cylinder_sequence(), GridSpec(resolution=12))
    with pytest.raises(ResolutionMismatchError):
        embed_shape(grid)


def test_embed_sequence_zero_distance_at_fixed_point():
    spec = GridSpec()
    seq = cylinder_sequence()
    target_lat = embed_shape(render(seq, spec))
    assert latent_distance(embed_sequence(seq, spec), target_lat) == 0.0


def test_unrenderable_sequence_gets_infinite_distance():
    spec = GridSpec()
    outside = ConstructionSequence((circle_pair(origin=(255, 255, 255), r=30),))
    lat = embed_sequence(outside, spec)
    assert np.all(np.isinf(lat))
    finite = embed_sequence(cylinder_sequence(), spec)
    assert latent_distance(lat, finite) == math.inf


def test_lower_latent_distance_tracks_higher_iou():
    # the latent is an absolute field metric while iou is an overlap ratio;
    # on near-tied pairs the two can legitimately order differently (a bulky
    # shape with face contact vs a small one with none), so the ground ranking
    # is only trustworthy once the gap clears that disagreement band
    spec = GridSpec()
    sphere = _sphere_grid(spec)
    sphere_lat = embed_shape(sphere)
    agree = total = case = 0
    while total < 100:
        rng = np.random.default_rng([79, 0, case])
        case += 1
        a = random_renderable(rng, spec)[0]
        b = random_renderable(rng, spec)[0]
        iou_a = iou(render(a, spec), sphere)
        iou_b = iou(render(b, spec), sphere)
        if abs(iou_a - iou_b) < 0.12:
            continue
        d_a = latent_distance(embed_sequence(a, spec), sphere_lat)
        d_b = latent_distance(embed_sequence(b, spec), sphere_lat)
        total += 1
        agree += (iou_a > iou_b) == (d_a < d_b)
    assert agree >= 95


# -- queue -------------------------------------------------------------------


def test_queue_keeps_lowest_distances():
    q = PriorityQueue(capacity=2)
    seqs = [cylinder_sequence(r=40 + 8 * i) for i in range(3)]
    for seq, dist in zip(seqs, (0.5, 0.3, 0.9)):
        q.push(seq, dist)
    assert [e.distance for e in q.entries()] == [0.3, 0.5]


def test_queue_dedups_by_stream():
    q = PriorityQueue(capacity=4)
    seq = cylinder_sequence()
    q.push(seq, 0.4)
    q.push(seq, 0.4)
    assert len(q) == 1


def test_queue_never_evicts_the_minimum():
    q = PriorityQueue(capacity=1)
    best = cylinder_sequence(r=30)
    q.push(best, 0.1)
    for i, dist in enumerate((0.7, 0.2, 0.9)):
        q.push(cylinder_sequence(r=50 + 8 * i), dist)
    assert q.best().seq == best
    assert q.best_distance() == 0.1


def test_queue_ties_break_by_insertion_order():
    q = PriorityQueue(capacity=3)
    first = cylinder_sequence(r=40)
    second = cylinder_sequence(r=41)
    q.push(first, 0.5)
    q.push(second, 0.5)
    assert q.best().seq == first


def test_queue_rejects_bad_distances():
    q = PriorityQueue(capacity=5)
    with pytest.raises(ValueError):
        q.push(cylinder_sequence(), -0.5)
    with pytest.raises(ValueError):
        q.push(cylinder_sequence(), math.nan)
    with pytest.raises(ValueError):
        PriorityQueue(capacity=0)


def _push_all(q, seqs, target_lat, spec):
    for seq in seqs:
        q.push(seq, latent_distance(embed_sequence(seq, spec), target_lat))
    return q.best().seq


def test_queue_push_picks_exact_match():
    spec = GridSpec()
    good = cylinder_sequence()
    target_lat = embed_shape(render(good, spec))
    q = PriorityQueue(capacity=3)
    best = _push_all(q, (cylinder_sequence(r=30), good), target_lat, spec)
    assert best == good
    assert q.best_distance() == 0.0


def test_queue_push_remembers_earlier_rounds():
    spec = GridSpec()
    target_lat = embed_shape(render(cylinder_sequence(r=60), spec))
    q = PriorityQueue(capacity=3)
    close = _push_all(q, (cylinder_sequence(r=58),), target_lat, spec)
    before = q.best_distance()
    best = _push_all(q, (cylinder_sequence(r=30),), target_lat, spec)
    assert best == close
    assert q.best_distance() == before


# -- run loop ----------------------------------------------------------------


def test_fixed_point_terminates_in_one_round():
    spec = GridSpec()
    seq = cylinder_sequence()
    result = run(seq, render(seq, spec))
    assert result.final == seq
    assert result.rounds_used == 1
    assert result.stop_reason == "empty-mask"
    assert len(result.trace) == 1
    assert result.trace[0].selected == ()
    assert result.report.iou == 1.0
    assert result.report.edit_distance == 0


def test_run_never_ends_farther_than_it_started():
    spec = GridSpec()
    trips = synth(SynthSpec(corpus_size=4, classes=("param-jitter",), seed=33))
    for t in trips:
        cfg = EngineConfig(max_rounds=4, seed=5)
        result = run(t.original, t.target, cfg)
        target_lat = embed_shape(t.target)
        d_final = latent_distance(embed_sequence(result.final, spec), target_lat)
        d_orig = latent_distance(embed_sequence(t.original, spec), target_lat)
        assert d_final <= d_orig
        assert result.rounds_used <= cfg.max_rounds
        best = [rec.best_distance for rec in result.trace]
        assert all(b1 >= b2 for b1, b2 in zip(best, best[1:]))


@pytest.mark.parametrize("resolution, tau", [(8, 0.2), (16, 0.1), (32, 0.05)])
def test_where_two_voxels_reach_past_tau_a_run_edits_past_round_one(resolution, tau):
    spec = GridSpec(resolution=resolution, tau=tau)
    trips = synth(SynthSpec(corpus_size=3, classes=("param-jitter",), seed=0, grid=spec))
    results = [run(t.original, t.target, EngineConfig(max_rounds=2, seed=k)) for k, t in enumerate(trips)]
    assert all(r.trace[0].selected for r in results)
    assert any(r.rounds_used > 1 for r in results)
    assert any(r.report.edit_distance > 0 for r in results)


def test_run_is_deterministic():
    trips = synth(SynthSpec(corpus_size=1, classes=("param-jitter",), seed=21))
    t = trips[0]
    cfg = EngineConfig(max_rounds=3, seed=11)
    a = run(t.original, t.target, cfg)
    b = run(t.original, t.target, cfg)
    assert serialize_sequence(a.final) == serialize_sequence(b.final)
    assert a.trace == b.trace
    assert a.stop_reason == b.stop_reason


def test_run_corpus_runs_each_triplet_under_its_own_config_in_index_order():
    trips = synth(SynthSpec(corpus_size=3, classes=("param-jitter",), seed=33))
    cfg = EngineConfig(max_rounds=2, seed=5, ablate="plan")
    runs = run_corpus(trips, cfg)
    assert [dataclasses.replace(c, seed=cfg.seed) for c, _ in runs] == [cfg] * 3
    assert len({c.seed for c, _ in runs}) == 3
    reports = [run_report(r, c) for c, r in runs]
    for report, (c, _), t in zip(reports, runs, trips):
        assert "\nablate plan\n" in report
        assert report == run_report(run(t.original, t.target, c), c)
    # a triplet's seed depends on its index alone, not on the triplets after it
    assert [run_report(r, c) for c, r in run_corpus(trips[:2], cfg)] == reports[:2]


def test_generation_disabled_returns_original():
    seq = cylinder_sequence()
    target = render(cylinder_sequence(r=90), GridSpec())
    result = run(seq, target, EngineConfig(n=0))
    assert result.final == seq
    assert result.rounds_used == 0
    assert result.trace == ()
    assert "rounds_used" not in {f.name for f in dataclasses.fields(result)}  # it is len(trace)
    assert result.stop_reason == "generation-disabled"


def test_invalid_original_is_rejected():
    """With the class and the message parse_sequence gives the same
    violations: the first, and how many more there are."""
    target = render(cylinder_sequence(), GridSpec())
    for radius, more in ((64, ""), (0, " (+1 more)")):  # radius bin 0 is a second violation
        bad = ConstructionSequence((circle_pair(BoolOp.JOIN, r=radius),))
        message = f"p0.ext: first pair must start a body, got JOIN{more}"
        with raises_exactly(StructureError, message):
            parse_sequence(serialize_sequence(bad))
        with raises_exactly(StructureError, message):
            run(bad, target)


def test_unrenderable_original_is_rejected_before_round_one():
    outside = ConstructionSequence((circle_pair(origin=(255, 255, 255), r=30),))
    target = render(cylinder_sequence(), GridSpec())
    with pytest.raises(RenderInvalidError):
        run(outside, target, EngineConfig(n=2, max_rounds=1))


def test_target_must_match_pool_resolution():
    seq = cylinder_sequence()
    target = render(seq, GridSpec(resolution=12))
    for cfg in (EngineConfig(), EngineConfig(n=0)):
        with pytest.raises(ResolutionMismatchError, match="resolution 12 not divisible by pool 8"):
            run(seq, target, cfg)


@pytest.mark.parametrize("sign", [1, -1], ids=["all-outside", "all-inside"])
def test_target_must_have_a_surface(sign):
    """``run`` checks no target's surface: a grid without one cannot be built."""
    spec = GridSpec()
    which = "no" if sign > 0 else "every"
    with pytest.raises(EmptySurfaceError, match=f"^grid has no surface: {which} cell is inside$"):
        TSDFGrid(spec, np.full((spec.resolution,) * 3, sign * spec.tau, dtype=np.float32))


@pytest.mark.parametrize("mode", ["plan", "verify", "queue"])
def test_ablations_complete_and_are_deterministic(mode):
    trips = synth(SynthSpec(corpus_size=1, classes=("param-jitter",), seed=47))
    t = trips[0]
    cfg = EngineConfig(max_rounds=3, seed=2, ablate=mode)
    a = run(t.original, t.target, cfg)
    b = run(t.original, t.target, cfg)
    assert serialize_sequence(a.final) == serialize_sequence(b.final)
    assert a.trace == b.trace


def _tilted_three_pairs(r0, r2):
    """A circle, a joined square and a cut circle, every plane at phi bin 64."""
    pairs = (
        circle_pair(r=r0, origin=(128, 128, 90), dist_pos=120),
        (Sketch((square_loop(70, 186),)), extrusion(op=BoolOp.JOIN, origin=(128, 128, 110), dist_pos=60)),
        circle_pair(op=BoolOp.CUT, r=r2, origin=(128, 128, 60), dist_pos=200),
    )
    return ConstructionSequence(
        tuple((sketch, dataclasses.replace(ext, orientation=(0, 64, 0))) for sketch, ext in pairs)
    )


def test_run_evaluates_only_changed_bodies_and_keeps_its_results(monkeypatch):
    original = _tilted_three_pairs(64, 20)
    target = render(_tilted_three_pairs(80, 34), GridSpec())

    evaluated, drawn, before_report = [], [], []
    real_frame, real_infill, real_report = kernel.placement_frame, engine.infill, engine.report_for

    def counted_frame(ext):
        # _compose places each body it evaluates exactly once
        evaluated.append(ext)
        return real_frame(ext)

    def kept_infill(*args, **kwargs):
        drawn.append(real_infill(*args, **kwargs))
        return drawn[-1]

    def marked_report(*args, **kwargs):
        before_report.append(len(evaluated))
        return real_report(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(kernel, "placement_frame", counted_frame)
        m.setattr(engine, "infill", kept_infill)
        m.setattr(engine, "report_for", marked_report)
        run(original, target, EngineConfig(max_rounds=1, seed=1))
    # the original's attribution evaluates every body once; a candidate's
    # render evaluates only the bodies the infill changed
    changed = sum(pair not in original.pairs for cand in drawn[0] for pair in cand.seq.pairs)
    assert changed > 0
    assert before_report == [len(original.pairs) + changed]

    cfgs = [EngineConfig(max_rounds=3, seed=1, ablate=mode) for mode in (None,) + ABLATION_MODES]
    results = {cfg: run(original, target, cfg) for cfg in cfgs}
    real_compose = kernel._compose
    monkeypatch.setattr(
        kernel, "_compose", lambda seq, spec, owners, base: real_compose(seq, spec, owners, None)
    )
    for cfg, result in results.items():
        assert run(original, target, cfg) == result


@pytest.mark.parametrize(
    "kw",
    [
        {"max_rounds": 0},
        {"n": -1},
        {"seed": -1},
        {"ablate": "everything"},
        {"granularity": "bogus"},
    ],
)
def test_engine_config_rejects_bad_fields(kw):
    with pytest.raises(ValueError):
        EngineConfig(**kw)


def test_engine_config_takes_a_granularity_by_name():
    assert EngineConfig(granularity="pair") == EngineConfig(granularity=Granularity.PAIR)
