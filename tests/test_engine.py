"""Engine checks: pooling embeds, queue semantics, and the full edit loop."""

import dataclasses
import math

import numpy as np
import pytest

from helpers import circle_pair, cylinder_sequence, extrusion, square_loop

from cadfit import engine, kernel
from cadfit.engine import (
    ABLATION_MODES,
    EngineConfig,
    PriorityQueue,
    embed_shape,
    embed_sequence,
    latent_distance,
    run,
)
from cadfit.errors import (
    InvalidOriginalError,
    RenderInvalidError,
    ResolutionMismatchError,
    TargetSpecMismatchError,
)
from cadfit.kernel import GridSpec, TSDFGrid, render
from cadfit.metrics import iou
from cadfit.planner import PlanConfig
from cadfit.sequence import BoolOp, ConstructionSequence, Sketch, serialize_sequence
from cadfit.synth import SynthSpec, random_renderable, synth


def _sphere_grid(spec: GridSpec, radius: float = 0.35) -> TSDFGrid:
    pts = spec.points()
    vals = np.linalg.norm(pts, axis=1) - radius
    vals = np.clip(vals, -spec.tau, spec.tau).astype(np.float32)
    return TSDFGrid(spec, vals.reshape((spec.resolution,) * 3))


# -- embedding ---------------------------------------------------------------


def test_constant_grid_embeds_to_constant_latent():
    spec = GridSpec()
    grid = TSDFGrid(spec, np.full((32, 32, 32), 0.125, dtype=np.float32))
    lat = embed_shape(grid, 8)
    assert lat.shape == (512,)
    assert np.allclose(lat, 0.125)


def test_embed_matches_bruteforce_block_means():
    rng = np.random.default_rng(0)
    spec = GridSpec()
    vals = rng.uniform(-0.2, 0.2, (32, 32, 32)).astype(np.float32)
    grid = TSDFGrid(spec, vals)
    for pool in (2, 4, 8):
        lat = embed_shape(grid, pool)
        b = 32 // pool
        ref = np.empty((pool, pool, pool))
        for i in range(pool):
            for j in range(pool):
                for k in range(pool):
                    block = vals[i * b : (i + 1) * b, j * b : (j + 1) * b, k * b : (k + 1) * b]
                    ref[i, j, k] = block.astype(np.float64).mean()
        assert np.allclose(lat, ref.ravel(), atol=1e-12)


def test_embed_rotates_with_the_grid():
    rng = np.random.default_rng(1)
    spec = GridSpec()
    vals = rng.uniform(-0.2, 0.2, (32, 32, 32)).astype(np.float32)
    rotated = np.rot90(vals, axes=(0, 1)).copy()
    lat = embed_shape(TSDFGrid(spec, vals), 8).reshape(8, 8, 8)
    lat_rot = embed_shape(TSDFGrid(spec, rotated), 8).reshape(8, 8, 8)
    assert np.allclose(lat_rot, np.rot90(lat, axes=(0, 1)), atol=1e-12)


def test_embed_rejects_non_divisible_pool():
    grid = render(cylinder_sequence(), GridSpec())
    with pytest.raises(ResolutionMismatchError):
        embed_shape(grid, 7)


def test_embed_sequence_zero_distance_at_fixed_point():
    spec = GridSpec()
    seq = cylinder_sequence()
    target_lat = embed_shape(render(seq, spec), 8)
    assert latent_distance(embed_sequence(seq, spec, 8), target_lat) == 0.0


def test_unrenderable_sequence_gets_infinite_distance():
    spec = GridSpec()
    outside = ConstructionSequence((circle_pair(origin=(255, 255, 255), r=30),))
    lat = embed_sequence(outside, spec, 8)
    assert np.all(np.isinf(lat))
    finite = embed_sequence(cylinder_sequence(), spec, 8)
    assert latent_distance(lat, finite) == math.inf


def test_lower_latent_distance_tracks_higher_iou():
    # the latent is an absolute field metric while iou is an overlap ratio;
    # on near-tied pairs the two can legitimately order differently (a bulky
    # shape with face contact vs a small one with none), so the ground ranking
    # is only trustworthy once the gap clears that disagreement band
    spec = GridSpec()
    sphere = _sphere_grid(spec)
    sphere_lat = embed_shape(sphere, 8)
    agree = total = case = 0
    while total < 100:
        rng = np.random.default_rng([79, 0, case])
        case += 1
        a = random_renderable(rng, spec)
        b = random_renderable(rng, spec)
        iou_a = iou(render(a, spec), sphere)
        iou_b = iou(render(b, spec), sphere)
        if abs(iou_a - iou_b) < 0.12:
            continue
        d_a = latent_distance(embed_sequence(a, spec, 8), sphere_lat)
        d_b = latent_distance(embed_sequence(b, spec, 8), sphere_lat)
        total += 1
        agree += (iou_a > iou_b) == (d_a < d_b)
    assert agree >= 95


# -- queue -------------------------------------------------------------------


def _dummy_latent(v: float) -> np.ndarray:
    return np.full(8, v)


def test_queue_keeps_lowest_distances():
    q = PriorityQueue(capacity=2)
    seqs = [cylinder_sequence(r=40 + 8 * i) for i in range(3)]
    for seq, dist in zip(seqs, (0.5, 0.3, 0.9)):
        q.push(seq, _dummy_latent(dist), dist)
    assert [e.distance for e in q.entries()] == [0.3, 0.5]


def test_queue_dedups_by_stream():
    q = PriorityQueue(capacity=4)
    seq = cylinder_sequence()
    q.push(seq, _dummy_latent(0.4), 0.4)
    q.push(seq, _dummy_latent(0.4), 0.4)
    assert len(q) == 1


def test_queue_never_evicts_the_minimum():
    q = PriorityQueue(capacity=1)
    best = cylinder_sequence(r=30)
    q.push(best, _dummy_latent(0.1), 0.1)
    for i, dist in enumerate((0.7, 0.2, 0.9)):
        q.push(cylinder_sequence(r=50 + 8 * i), _dummy_latent(dist), dist)
    assert q.best().seq == best
    assert q.best_distance() == 0.1


def test_queue_ties_break_by_insertion_order():
    q = PriorityQueue(capacity=3)
    first = cylinder_sequence(r=40)
    second = cylinder_sequence(r=41)
    q.push(first, _dummy_latent(0.5), 0.5)
    q.push(second, _dummy_latent(0.5), 0.5)
    assert q.best().seq == first


def test_queue_rejects_bad_distances():
    q = PriorityQueue()
    with pytest.raises(ValueError):
        q.push(cylinder_sequence(), _dummy_latent(0.0), -0.5)
    with pytest.raises(ValueError):
        q.push(cylinder_sequence(), _dummy_latent(0.0), math.nan)
    with pytest.raises(ValueError):
        PriorityQueue(capacity=0)


def _push_all(q, seqs, target_lat, spec):
    for seq in seqs:
        latent = embed_sequence(seq, spec, 8)
        q.push(seq, latent, latent_distance(latent, target_lat))
    return q.best().seq


def test_queue_push_picks_exact_match():
    spec = GridSpec()
    good = cylinder_sequence()
    target_lat = embed_shape(render(good, spec), 8)
    q = PriorityQueue(capacity=3)
    best = _push_all(q, (cylinder_sequence(r=30), good), target_lat, spec)
    assert best == good
    assert q.best_distance() == 0.0


def test_queue_push_remembers_earlier_rounds():
    spec = GridSpec()
    target_lat = embed_shape(render(cylinder_sequence(r=60), spec), 8)
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
        target_lat = embed_shape(t.target, cfg.pool_res)
        d_final = latent_distance(embed_sequence(result.final, spec, cfg.pool_res), target_lat)
        d_orig = latent_distance(embed_sequence(t.original, spec, cfg.pool_res), target_lat)
        assert d_final <= d_orig
        assert result.rounds_used <= cfg.max_rounds
        best = [rec.best_distance for rec in result.trace]
        assert all(b1 >= b2 for b1, b2 in zip(best, best[1:]))


def test_run_is_deterministic():
    trips = synth(SynthSpec(corpus_size=1, classes=("param-jitter",), seed=21))
    t = trips[0]
    cfg = EngineConfig(max_rounds=3, seed=11)
    a = run(t.original, t.target, cfg)
    b = run(t.original, t.target, cfg)
    assert serialize_sequence(a.final) == serialize_sequence(b.final)
    assert a.trace == b.trace
    assert a.stop_reason == b.stop_reason


def test_generation_disabled_returns_original():
    seq = cylinder_sequence()
    target = render(cylinder_sequence(r=90), GridSpec())
    result = run(seq, target, EngineConfig(n=0))
    assert result.final == seq
    assert result.rounds_used == 0
    assert result.trace == ()
    assert result.stop_reason == "generation-disabled"


def test_invalid_original_is_rejected():
    bad = ConstructionSequence(
        ((circle_pair(BoolOp.JOIN)),)
    )
    target = render(cylinder_sequence(), GridSpec())
    with pytest.raises(InvalidOriginalError):
        run(bad, target)


def test_unrenderable_original_is_rejected_before_round_one():
    outside = ConstructionSequence((circle_pair(origin=(255, 255, 255), r=30),))
    target = render(cylinder_sequence(), GridSpec())
    with pytest.raises(RenderInvalidError):
        run(outside, target, EngineConfig(n=2, max_rounds=1))


def test_target_must_match_pool_resolution():
    seq = cylinder_sequence()
    target = render(seq, GridSpec())
    with pytest.raises(TargetSpecMismatchError):
        run(seq, target, EngineConfig(pool_res=7))


def test_unknown_ablation_rejected():
    seq = cylinder_sequence()
    target = render(seq, GridSpec())
    with pytest.raises(ValueError):
        run(seq, target, ablate="everything")


@pytest.mark.parametrize("mode", ["plan", "verify", "queue"])
def test_ablations_complete_and_are_deterministic(mode):
    trips = synth(SynthSpec(corpus_size=1, classes=("param-jitter",), seed=47))
    t = trips[0]
    cfg = EngineConfig(max_rounds=3, seed=2)
    a = run(t.original, t.target, cfg, ablate=mode)
    b = run(t.original, t.target, cfg, ablate=mode)
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

    extruded, drawn, before_report = [], [], []
    real_extrude, real_infill, real_report = kernel._extrude, engine.infill, engine.report_for

    def counted_extrude(*args, **kwargs):
        extruded.append(args[:2])
        return real_extrude(*args, **kwargs)

    def kept_infill(*args, **kwargs):
        drawn.append(real_infill(*args, **kwargs))
        return drawn[-1]

    def marked_report(*args, **kwargs):
        before_report.append(len(extruded))
        return real_report(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(kernel, "_extrude", counted_extrude)
        m.setattr(engine, "infill", kept_infill)
        m.setattr(engine, "report_for", marked_report)
        run(original, target, EngineConfig(max_rounds=1, seed=1))
    # the original's render and its attribution evaluate every body; a
    # candidate's render evaluates only the bodies the infill changed
    changed = sum(pair not in original.pairs for cand in drawn[0] for pair in cand.seq.pairs)
    assert changed > 0
    assert before_report == [2 * len(original.pairs) + changed]

    cfg = EngineConfig(max_rounds=3, seed=1)
    results = {mode: run(original, target, cfg, ablate=mode) for mode in (None,) + ABLATION_MODES}
    real_compose = kernel._compose
    monkeypatch.setattr(
        kernel, "_compose", lambda seq, spec, owners, bodies: real_compose(seq, spec, owners, None)
    )
    for mode, result in results.items():
        assert run(original, target, cfg, ablate=mode) == result


@pytest.mark.parametrize(
    "kw",
    [
        {"max_rounds": 0},
        {"queue_capacity": 0},
        {"n": -1},
        {"pool_res": 0},
        {"epsilon": -0.1},
        {"patience": 0},
    ],
)
def test_engine_config_rejects_bad_fields(kw):
    with pytest.raises(ValueError):
        EngineConfig(**kw)
