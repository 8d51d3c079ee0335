"""Planner checks: zero vectors, an ablation oracle, and forced selection rules."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from helpers import circle_pair

from cadfit.errors import EmptyListError, RenderInvalidError
from cadfit.kernel import GridSpec, TSDFGrid, attribute, render
from cadfit.planner import (
    BAND_WIDTH,
    InfluenceEntry,
    InfluenceVector,
    band,
    relative_scores,
    select_segments,
)
from cadfit.sequence import BoolOp, ConstructionSequence, Granularity, segments
from cadfit.synth import SynthSpec, random_renderable, random_sequence, synth
from test_kernel import _placed
from test_synth import changed_segments


def _fake_vector(seq, js, granularity=Granularity.PAIR):
    segs = segments(seq, granularity)
    assert len(segs) == len(js)
    return InfluenceVector(
        tuple(InfluenceEntry(seg.id, 0.0, j) for seg, j in zip(segs, js))
    )


def _scores(seq, target: TSDFGrid, granularity=Granularity.PRIMITIVE):
    return relative_scores(attribute(seq, target.spec), target, granularity)


def _three_pair_sequence():
    return ConstructionSequence(
        (
            circle_pair(cx=80, cy=80, r=26, origin=(110, 110, 80), dist_pos=70),
            circle_pair(op=BoolOp.JOIN, cx=176, cy=80, r=26, origin=(146, 110, 80), dist_pos=70),
            circle_pair(op=BoolOp.JOIN, cx=128, cy=186, r=26, origin=(128, 156, 80), dist_pos=70),
        )
    )


# -- influence --------------------------------------------------------------


def test_influence_self_overlap_matches_attribution_counts():
    seq = _three_pair_sequence()
    spec = GridSpec()
    ag = attribute(seq, spec)
    m = np.array([e.m_current for e in relative_scores(ag, render(seq, spec), Granularity.PAIR).entries])
    # against its own render, every banded voxel is near-surface, so M
    # reduces to |A_i| / (|A_i| + 1); recompute that from attribution
    in_band = np.abs(ag.values) < band(spec)
    for k in range(3):
        owned = np.zeros_like(in_band)
        for idx, sid in enumerate(ag.segment_ids):
            if sid.pair == k:
                owned |= ag.owner == idx
        size = int((owned & in_band).sum())
        assert m[k] == pytest.approx(size / (size + 1), abs=1e-12)
    assert ((m >= 0) & (m < 1)).all()


def _tilted(seq, phi=64):
    return ConstructionSequence(
        tuple((sketch, replace(ext, orientation=(ext.orientation[0], phi, ext.orientation[2])))
              for sketch, ext in seq.pairs)
    )


def test_scored_segments_follow_document_order():
    rng = np.random.default_rng(59)
    spec = GridSpec(resolution=16)
    target = render(_three_pair_sequence(), spec)
    checked = 0
    while checked < 24:
        seq = random_renderable(rng, spec)[0]
        if checked % 2:
            seq = _tilted(seq)
        try:
            ag = attribute(seq, spec)
        except RenderInvalidError:
            continue
        checked += 1
        for g in Granularity:
            entries = relative_scores(ag, target, g).entries
            assert [e.segment for e in entries] == [s.id for s in segments(seq, g)]


# one digest per resolution, recorded before relative_scores read the
# current shape off one band mask; resolution 8's moved when the band came
# to stop at tau
PLANNER_PIN = {
    8: "cc419fda2b8db344f1e9a0047d348b1794fd292048ba8c23100439eac2e74a59",
    16: "a1aac96966b943fda2eee5f67641e271ef197402e9ba52e21e6e1e68f3d6579c",
    32: "da6fbc53a4c3cdbb7b382b7cdece793f3758620cb8e134dff594e9408c152db3",
}


def test_seeded_influence_scores_are_pinned():
    digests, scored = {}, 0
    for resolution in PLANNER_PIN:
        digest = hashlib.sha256()
        rng = np.random.default_rng([resolution, 89])
        spec = GridSpec(resolution=resolution)
        for variant in ("z-aligned", "tilted", "mixed"):
            for _ in range(3):
                seq, other = (_placed(random_sequence(rng, min_pairs=2), rng, variant) for _ in range(2))
                try:
                    ag, target = attribute(seq, spec), render(other, spec)
                except RenderInvalidError as exc:
                    digest.update(f"{type(exc).__name__}: {exc}".encode())
                    continue
                for g in Granularity:
                    for e in relative_scores(ag, target, g).entries:
                        digest.update(f"{e.segment.label()} {e.m_current.hex()} {e.m_target.hex()}\n".encode())
                        scored += e.m_target > 0
        digests[resolution] = digest.hexdigest()
    assert scored > 0
    assert digests == PLANNER_PIN


# specs where two voxels reach past tau: resolution 8 at the default tau,
# and 16 and 32 at a smaller one
SMALL_TAU_SPECS = [(8, 0.2), (16, 0.1), (32, 0.05)]


@pytest.mark.parametrize("resolution, tau", SMALL_TAU_SPECS + [(32, 0.2)])
def test_the_band_is_two_voxels_but_stops_at_tau(resolution, tau):
    spec = GridSpec(resolution=resolution, tau=tau)
    assert band(spec) == min(2 * spec.pitch, spec.tau)


@pytest.mark.parametrize("resolution, tau", SMALL_TAU_SPECS)
def test_where_two_voxels_reach_past_tau_the_planner_still_selects(resolution, tau):
    """A band wider than tau holds every clamped voxel of both shapes, so
    every score would be 0 and nothing would be selected."""
    spec = GridSpec(resolution=resolution, tau=tau)
    assert BAND_WIDTH * spec.pitch > spec.tau
    trips = synth(SynthSpec(corpus_size=6, classes=("param-jitter",), seed=0, grid=spec))
    assert all(select_segments(_scores(t.original, t.target)) for t in trips)


def test_relative_scores_zero_on_identical_shapes():
    rng = np.random.default_rng(53)
    spec = GridSpec()
    for _ in range(20):
        seq = random_renderable(rng, spec)[0]
        shape = render(seq, spec)
        iv = _scores(seq, shape)
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

    iv = _scores(seq, target, Granularity.PAIR)
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
    for t in trips:
        assert len(changed_segments(t.original, t.truth)) == 1
        truth_pairs = changed_segments(t.original, t.truth, Granularity.PAIR)
        iv = _scores(t.original, t.target, Granularity.PAIR)
        top = max(range(len(iv.entries)), key=lambda k: iv.entries[k].j)
        hits += top in truth_pairs
    assert hits >= 17


# -- selection --------------------------------------------------------------


def test_select_above_mean_strict():
    seq = _three_pair_sequence()
    iv = _fake_vector(seq, [0.1, 0.4, 0.1])
    picked = select_segments(iv)
    assert [p.pair for p in picked] == [1]


def test_select_all_equal_is_empty():
    seq = _three_pair_sequence()
    for v in (0.0, 0.3, 0.1):
        iv = _fake_vector(seq, [v, v, v])
        assert select_segments(iv) == ()


def test_select_two_above_mean():
    seq = _three_pair_sequence()
    iv = _fake_vector(seq, [0.3, 0.3, 0.0])
    picked = select_segments(iv)
    assert [p.pair for p in picked] == [0, 1]


def test_select_empty_never_picks_zero_without_force():
    seq = _three_pair_sequence()
    iv = _fake_vector(seq, [0.0, 0.0, 0.3])
    picked = select_segments(iv)
    assert [p.pair for p in picked] == [2]
    assert select_segments(_fake_vector(seq, [0.0, 0.0, 0.0])) == ()


def test_select_scale_invariant():
    seq = _three_pair_sequence()
    base = [0.05, 0.2, 0.1]
    a = select_segments(_fake_vector(seq, base))
    b = select_segments(_fake_vector(seq, [3 * v for v in base]))
    assert a == b


def test_select_rejects_empty_vector():
    with pytest.raises(EmptyListError):
        select_segments(InfluenceVector(()))
