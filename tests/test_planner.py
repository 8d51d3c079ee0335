"""Planner checks: zero vectors, an ablation oracle, and forced selection rules."""

from dataclasses import replace

import numpy as np
import pytest

from helpers import circle_pair

from cadfit.errors import EmptyListError, RenderInvalidError
from cadfit.kernel import GridSpec, attribute, render
from cadfit.planner import (
    InfluenceEntry,
    InfluenceVector,
    PlanConfig,
    relative_scores,
    select_segments,
)
from cadfit.sequence import BoolOp, ConstructionSequence, Granularity, SegmentKind, segments
from cadfit.synth import SynthSpec, random_renderable, synth
from test_synth import changed_segments


def _fake_vector(seq, js, granularity=Granularity.PAIR):
    segs = segments(seq, granularity)
    assert len(segs) == len(js)
    return InfluenceVector(
        tuple(InfluenceEntry(seg, 0.0, j, abs(j)) for seg, j in zip(segs, js))
    )


def _three_pair_sequence():
    return ConstructionSequence(
        (
            circle_pair(cx=80, cy=80, r=26, origin=(110, 110, 80), dist_pos=70),
            circle_pair(op=BoolOp.JOIN, cx=176, cy=80, r=26, origin=(146, 110, 80), dist_pos=70),
            circle_pair(op=BoolOp.JOIN, cx=128, cy=186, r=26, origin=(128, 156, 80), dist_pos=70),
        )
    )


# -- config and entry invariants --------------------------------------------


def test_plan_config_validation():
    with pytest.raises(ValueError):
        PlanConfig(band_width=0.5)
    with pytest.raises(ValueError):
        PlanConfig(min_mask=-1)


def test_influence_entry_enforces_consistency():
    seg = segments(_three_pair_sequence(), Granularity.PAIR)[0]
    with pytest.raises(ValueError):
        InfluenceEntry(seg, 0.2, 0.5, 0.1)


# -- influence --------------------------------------------------------------


def test_influence_self_overlap_matches_attribution_counts():
    seq = _three_pair_sequence()
    spec = GridSpec()
    shape = render(seq, spec)
    cfg = PlanConfig(granularity=Granularity.PAIR)
    m = np.array([e.m_current for e in relative_scores(seq, shape, cfg).entries])
    # against its own render, every banded voxel is near-surface, so M
    # reduces to |A_i| / (|A_i| + 1); recompute that from attribution
    ag = attribute(seq, spec)
    band = np.abs(ag.values) < cfg.band_width * spec.pitch
    for k in range(3):
        owned = np.zeros_like(band)
        for idx, sid in enumerate(ag.segment_ids):
            if sid.pair == k:
                owned |= ag.owner == idx
        size = int((owned & band).sum())
        assert m[k] == pytest.approx(size / (size + 1), abs=1e-12)
    assert ((m >= 0) & (m < 1)).all()


def test_influence_propagates_render_errors():
    bad = ConstructionSequence((circle_pair(origin=(255, 255, 255), r=30),))
    shape = render(_three_pair_sequence())
    with pytest.raises(RenderInvalidError):
        relative_scores(bad, shape, PlanConfig())


def test_relative_scores_zero_on_identical_shapes():
    rng = np.random.default_rng(53)
    spec = GridSpec()
    for _ in range(20):
        seq = random_renderable(rng, spec)
        shape = render(seq, spec)
        iv = relative_scores(seq, shape)
        assert all(e.j == 0.0 for e in iv.entries)
        assert all(e.m_current == e.m_target for e in iv.entries)


def test_moved_cylinder_tops_ablation_oracle():
    a = circle_pair(cx=88, cy=128, r=30, origin=(112, 128, 80), dist_pos=80)
    b = circle_pair(op=BoolOp.JOIN, cx=168, cy=128, r=30, origin=(144, 128, 80), dist_pos=80)
    b_moved = circle_pair(op=BoolOp.JOIN, cx=190, cy=128, r=30, origin=(144, 128, 80), dist_pos=80)
    seq = ConstructionSequence((a, b))
    spec = GridSpec()
    current = render(seq, spec)
    target = render(ConstructionSequence((a, b_moved)), spec)

    cfg = PlanConfig(granularity=Granularity.PAIR)
    iv = relative_scores(seq, target, cfg)
    planner_pick = max(range(2), key=lambda k: iv.entries[k].j)

    # oracle: a pair's relevance is how much of the current/target mismatch
    # its standalone footprint covers
    mismatch = current.occupancy() ^ target.occupancy()
    overlaps = []
    for sketch, ext in seq.pairs:
        alone = ConstructionSequence(((sketch, replace(ext, bool_op=BoolOp.NEW)),))
        footprint = render(alone, spec).occupancy()
        overlaps.append(int((footprint & mismatch).sum()))
    oracle_pick = max(range(2), key=lambda k: overlaps[k])

    assert planner_pick == oracle_pick == 1


def test_single_edit_cases_rank_edited_segment_first():
    # measured at pair granularity: a profile edit legitimately moves the
    # extrusion's caps too, so sub-pair credit can split between the two
    trips = synth(SynthSpec(corpus_size=20, classes=("param-jitter",), seed=101))
    hits = 0
    cfg = PlanConfig(granularity=Granularity.PAIR)
    for t in trips:
        assert len(changed_segments(t.original, t.truth)) == 1
        truth_pairs = changed_segments(t.original, t.truth, Granularity.PAIR)
        iv = relative_scores(t.original, t.target, cfg)
        top = max(range(len(iv.entries)), key=lambda k: iv.entries[k].j)
        hits += top in truth_pairs
    assert hits >= 17


# -- selection --------------------------------------------------------------


def test_select_above_mean_strict():
    seq = _three_pair_sequence()
    iv = _fake_vector(seq, [0.1, 0.4, 0.1])
    picked = select_segments(iv, PlanConfig())
    assert [p.pair for p in picked] == [1]


def test_select_all_equal_is_empty():
    seq = _three_pair_sequence()
    for v in (0.0, 0.3, 0.1):
        iv = _fake_vector(seq, [v, v, v])
        assert select_segments(iv, PlanConfig()) == ()


def test_select_two_above_mean():
    seq = _three_pair_sequence()
    iv = _fake_vector(seq, [0.3, 0.3, 0.0])
    picked = select_segments(iv, PlanConfig())
    assert [p.pair for p in picked] == [0, 1]


def test_select_min_mask_forces_top_k_in_document_order():
    seq = _three_pair_sequence()
    iv = _fake_vector(seq, [0.2, 0.2, 0.2])
    picked = select_segments(iv, PlanConfig(min_mask=2))
    assert [p.pair for p in picked] == [0, 1]
    assert [p.pair for p in select_segments(iv, PlanConfig(min_mask=1))] == [0]
    # a nonempty above-mean set wins over the fallback regardless of min_mask
    ranked = _fake_vector(seq, [0.1, 0.0, 0.3])
    picked = select_segments(ranked, PlanConfig(min_mask=2))
    assert [p.pair for p in picked] == [2]


def test_select_empty_never_picks_zero_without_force():
    seq = _three_pair_sequence()
    iv = _fake_vector(seq, [0.0, 0.0, 0.3])
    picked = select_segments(iv, PlanConfig())
    assert [p.pair for p in picked] == [2]
    assert select_segments(_fake_vector(seq, [0.0, 0.0, 0.0]), PlanConfig()) == ()


def test_select_scale_invariant():
    seq = _three_pair_sequence()
    base = [0.05, 0.2, 0.1]
    a = select_segments(_fake_vector(seq, base), PlanConfig())
    b = select_segments(_fake_vector(seq, [3 * v for v in base]), PlanConfig())
    assert a == b


def test_select_rejects_empty_vector():
    with pytest.raises(EmptyListError):
        select_segments(InfluenceVector(()), PlanConfig())
