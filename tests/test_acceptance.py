"""Acceptance checklist for the finished package.

Each numbered test prints exactly one PASS/FAIL line on the live terminal
(capture suspended) so a full run reads as a checklist, then asserts.  The
engine benchmarks share one 50-triplet corpus through module-scoped
fixtures; the timing bounds are part of each check.
"""

import math
import statistics
import time

import numpy as np
import pytest

from cadfit.engine import EngineConfig, run
from cadfit.errors import RenderInvalidError
from cadfit.generator import GenPolicy, infill
from cadfit.kernel import (
    GridSpec,
    TSDFGrid,
    render,
    sdf_difference,
    sdf_intersection,
    sdf_union,
    surface_points,
)
from cadfit.planner import PlanConfig, relative_scores
from cadfit.quant import Channel, dequantize
from cadfit.report import run_report
from cadfit.sequence import (
    BoolOp,
    ConstructionSequence,
    Granularity,
    apply_mask,
    edit_distance,
    parse_sequence,
    segments,
    sequence_tokens,
    serialize_sequence,
    validate_sequence,
)
from cadfit.synth import SynthSpec, synth

from helpers import circle_pair, cube_sequence, cylinder_sequence
from test_sequence import _dp_reference, random_stream
from test_synth import changed_segments


def _line(capfd, num, name, ok, detail):
    with capfd.disabled():
        print(f"criterion {num:>2} ({name}): {'PASS' if ok else 'FAIL'}  [{detail}]")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# -- shared benchmark corpus and engine runs ---------------------------------


BENCH_CLASSES = ("param-jitter", "primitive-substitute")


def _bench_cfg(k):
    return EngineConfig(seed=int(np.random.SeedSequence([0, k]).generate_state(1)[0]))


def _run_bench(trips, ablate=None):
    return [
        run(t.original, t.target, _bench_cfg(k), ablate=ablate)
        for k, t in enumerate(trips)
    ]


@pytest.fixture(scope="module")
def bench_corpus():
    return synth(SynthSpec(corpus_size=50, classes=BENCH_CLASSES, seed=0))


@pytest.fixture(scope="module")
def bench_runs(bench_corpus):
    t0 = time.perf_counter()
    runs = _run_bench(bench_corpus)
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ablation_runs(bench_corpus):
    t0 = time.perf_counter()
    arms = {arm: _run_bench(bench_corpus, ablate=arm) for arm in ("queue", "verify", "plan")}
    return arms, time.perf_counter() - t0


def _final_iou(result):
    return 0.0 if result.report.invalid else result.report.iou


# -- the checklist -----------------------------------------------------------


def test_criterion_01_sdf_algebra(capfd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    f, g, h = (rng.uniform(-0.5, 0.5, 10_000) for _ in range(3))
    checks = [
        np.array_equal(sdf_union(f, g), sdf_union(g, f)),
        np.array_equal(sdf_intersection(f, g), sdf_intersection(g, f)),
        np.array_equal(sdf_union(f, sdf_union(g, h)), sdf_union(sdf_union(f, g), h)),
        np.array_equal(
            sdf_intersection(f, sdf_intersection(g, h)),
            sdf_intersection(sdf_intersection(f, g), h),
        ),
        np.array_equal(sdf_union(f, f), f),
        np.array_equal(sdf_intersection(f, f), f),
        np.array_equal(sdf_difference(f, g), sdf_intersection(f, -g)),
        np.array_equal(-sdf_union(f, g), sdf_intersection(-f, -g)),
    ]
    el = time.perf_counter() - t0
    _line(capfd, 1, "sdf algebra", all(checks) and el < 1.0,
          f"10000 value pairs, {sum(checks)}/8 identities exact, {el:.2f}s")


def test_criterion_02_grammar_round_trip(capfd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    bad = sum(
        serialize_sequence(parse_sequence(text)) != text
        for text in (random_stream(rng) for _ in range(1000))
    )
    el = time.perf_counter() - t0
    _line(capfd, 2, "grammar round-trip", bad == 0 and el < 5.0,
          f"1000 sequences, {1000 - bad}/1000 byte-exact, {el:.2f}s")


def _short_stream(rng):
    while True:
        text = random_stream(rng)
        if len(text.split()) <= 60:
            return text


def test_criterion_03_edit_distance_oracle(capfd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    bad = 0
    for _ in range(500):
        a = parse_sequence(_short_stream(rng))
        b = parse_sequence(_short_stream(rng))
        if edit_distance(a, b) != _dp_reference(sequence_tokens(a), sequence_tokens(b)):
            bad += 1
    el = time.perf_counter() - t0
    _line(capfd, 3, "edit-distance oracle", bad == 0 and el < 10.0,
          f"500 pairs, {500 - bad}/500 match the reference, {el:.2f}s")


def _grid_volume(grid):
    frac = np.clip(0.5 - grid.values / grid.spec.pitch, 0.0, 1.0)
    return float(frac.sum()) * grid.spec.pitch**3


def test_criterion_04_render_oracles(capfd):
    t0 = time.perf_counter()
    radius = dequantize(64, Channel.DISTANCE)
    height = dequantize(128, Channel.DISTANCE)
    cyl_err = abs(
        _grid_volume(render(cylinder_sequence())) / (math.pi * radius**2 * height) - 1.0
    )
    hole = dequantize(38, Channel.DISTANCE)
    carved = ConstructionSequence(
        cube_sequence().pairs
        + (circle_pair(op=BoolOp.CUT, r=38, dist_pos=153, origin=(128, 128, 51)),)
    )
    carved_err = abs(
        _grid_volume(render(carved)) / (0.6**3 - math.pi * hole**2 * 0.6) - 1.0
    )
    spec = GridSpec()
    pts = spec.points()
    vals = np.clip(np.linalg.norm(pts, axis=1) - 0.35, -spec.tau, spec.tau)
    sphere = TSDFGrid(spec, vals.reshape((spec.resolution,) * 3).astype(np.float32))
    radii = np.linalg.norm(surface_points(sphere, max_points=100_000), axis=1)
    on_sphere = float(np.mean(np.abs(radii - 0.35) < spec.pitch))
    el = time.perf_counter() - t0
    ok = cyl_err < 0.05 and carved_err < 0.05 and on_sphere == 1.0 and el < 30.0
    _line(capfd, 4, "render oracles", ok,
          f"volume err {cyl_err:.3f}/{carved_err:.3f}, surface inside pitch "
          f"{on_sphere:.0%}, {el:.2f}s")


def test_criterion_05_planner(capfd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    zero_ok = 0
    tried = 0
    while zero_ok < 100 and tried < 2000:
        tried += 1
        seq = parse_sequence(random_stream(rng))
        if validate_sequence(seq):
            continue
        try:
            own = render(seq)
        except RenderInvalidError:
            continue
        iv = relative_scores(seq, own)
        if all(e.j == 0.0 for e in iv.entries):
            zero_ok += 1
        else:
            break
    trips = synth(SynthSpec(corpus_size=100, classes=BENCH_CLASSES, seed=101))
    cfg = PlanConfig(granularity=Granularity.PAIR)
    hits = 0
    for t in trips:
        truth_pairs = changed_segments(t.original, t.truth, Granularity.PAIR)
        iv = relative_scores(t.original, t.target, cfg)
        top = max(range(len(iv.entries)), key=lambda k: iv.entries[k].j)
        hits += top in truth_pairs
    el = time.perf_counter() - t0
    ok = zero_ok == 100 and hits >= 90 and el < 180.0
    _line(capfd, 5, "planner", ok,
          f"self-comparison zero for {zero_ok}/100, edited segment top-1 in "
          f"{hits}/100, {el:.1f}s")


def test_criterion_06_end_to_end_recovery(capfd, bench_corpus, bench_runs):
    runs, el = bench_runs
    hits = sum(_final_iou(r) >= 0.85 for r in runs)
    med_ratio = statistics.median(
        r.report.edit_distance / t.truth_edit_distance
        for r, t in zip(runs, bench_corpus)
    )
    ok = hits >= 40 and med_ratio <= 2.0 and el <= 600.0
    _line(capfd, 6, "end-to-end recovery", ok,
          f"IoU>=0.85 in {hits}/50, median edit ratio {med_ratio:.2f}, {el:.0f}s")


def test_criterion_07_ablation_directionality(capfd, bench_runs, ablation_runs):
    runs, el_full = bench_runs
    arms, el_arms = ablation_runs
    mean = {"full": statistics.fmean(_final_iou(r) for r in runs)}
    for arm, results in arms.items():
        mean[arm] = statistics.fmean(_final_iou(r) for r in results)
    gaps = (
        mean["full"] - mean["queue"],
        mean["queue"] - mean["verify"],
        mean["full"] - mean["plan"],
    )
    el = el_full + el_arms
    ok = all(g >= 0.02 for g in gaps) and el <= 2400.0
    _line(capfd, 7, "ablation directionality", ok,
          f"mean IoU full {mean['full']:.3f} > queue {mean['queue']:.3f} > "
          f"verify {mean['verify']:.3f}, plan {mean['plan']:.3f}, {el:.0f}s")


def test_criterion_08_queue_invariants(capfd, bench_runs, ablation_runs):
    runs, _ = bench_runs
    arms, _ = ablation_runs
    everything = list(runs)
    for results in arms.values():
        everything.extend(results)
    monotone = all(
        all(b.best_distance <= a.best_distance for a, b in zip(r.trace, r.trace[1:]))
        for r in everything
    )
    bounded = all(r.rounds_used <= 10 for r in everything)
    base = cylinder_sequence()
    fixed = run(base, render(base), EngineConfig(seed=9))
    fixed_ok = fixed.final == base and fixed.rounds_used == 1
    ok = monotone and bounded and fixed_ok
    _line(capfd, 8, "queue invariants", ok,
          f"{len(everything)} runs non-increasing={monotone} rounds<=10={bounded} "
          f"fixed-point 1-round={fixed_ok}")


def test_criterion_09_generator_contract(capfd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    grans = (Granularity.PRIMITIVE, Granularity.LOOP, Granularity.PAIR)
    bad = 0
    for trial in range(1000):
        seq = parse_sequence(random_stream(rng))
        segs = segments(seq, grans[trial % 3])
        ids = [s.id for s in segs if rng.random() < 0.4] or [segs[0].id]
        masked = apply_mask(seq, ids)
        for cand in infill(masked, GenPolicy(n=4, seed=trial)):
            if validate_sequence(cand.seq):
                bad += 1
            elif parse_sequence(serialize_sequence(cand.seq)) != cand.seq:
                bad += 1
            elif apply_mask(cand.seq, ids).tokens() != masked.tokens():
                bad += 1
    el = time.perf_counter() - t0
    _line(capfd, 9, "generator contract", bad == 0 and el < 10.0,
          f"1000 trials x 4 candidates, {bad} violations, {el:.2f}s")


def test_criterion_10_determinism(capfd, bench_corpus, bench_runs):
    runs, _ = bench_runs
    rerun = _run_bench(bench_corpus)
    first = [run_report(r, _bench_cfg(k)) for k, r in enumerate(runs)]
    second = [run_report(r, _bench_cfg(k)) for k, r in enumerate(rerun)]
    same = sum(a == b for a, b in zip(first, second))
    _line(capfd, 10, "determinism", same == 50,
          f"{same}/50 reports byte-identical on rerun")
