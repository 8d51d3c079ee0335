"""Benchmark synthesis: per-class edit contracts, determinism, corpus round trips."""

import dataclasses
import hashlib

import numpy as np
import pytest

from cadfit import synth as synth_module
from cadfit.errors import ExhaustedAttemptsError
from cadfit.gridio import tsdf_bytes
from cadfit.kernel import GridSpec, render
from cadfit.metrics import iou
from cadfit.sequence import (
    ConstructionSequence,
    Granularity,
    parse_sequence,
    segments,
    sequence_tokens,
    serialize_sequence,
    validate_sequence,
)
from cadfit.synth import (
    EDIT_CLASSES,
    SynthSpec,
    Triplet,
    load_corpus,
    mutate,
    random_renderable,
    random_sequence,
    read_recipe,
    save_corpus,
    synth,
)


def changed_segments(original, truth, granularity=Granularity.PRIMITIVE):
    """Indices of aligned segments whose token slices differ.

    Valid whenever the two sequences share a structure, which every
    param-jitter and substitute edit preserves.
    """
    a_toks, b_toks = sequence_tokens(original), sequence_tokens(truth)
    a_segs, b_segs = segments(original, granularity), segments(truth, granularity)
    assert len(a_segs) == len(b_segs)
    out = []
    for k, (sa, sb) in enumerate(zip(a_segs, b_segs)):
        if a_toks[sa.span[0] : sa.span[1]] != b_toks[sb.span[0] : sb.span[1]]:
            out.append(k)
    return out


def test_random_sequence_round_trips():
    rng = np.random.default_rng(11)
    for _ in range(30):
        seq = random_sequence(rng)
        assert validate_sequence(seq) == []
        assert parse_sequence(serialize_sequence(seq)) == seq
        assert 1 <= len(seq.pairs) <= 4


def test_random_renderable_renders():
    rng = np.random.default_rng(13)
    spec = GridSpec()
    for _ in range(5):
        seq, grid = random_renderable(rng, spec)
        assert grid.occupancy().any()
        assert np.array_equal(render(seq, spec).values, grid.values)


def test_param_jitter_changes_one_segment():
    rng = np.random.default_rng(17)
    spec = GridSpec()
    for _ in range(10):
        base = random_renderable(rng, spec)[0]
        truth = mutate(base, "param-jitter", rng, spec)
        if truth is None:
            continue
        changed = changed_segments(base, truth)
        assert len(changed) == 1
        assert len(sequence_tokens(base)) == len(sequence_tokens(truth))


def test_primitive_substitute_swaps_kind():
    rng = np.random.default_rng(19)
    spec = GridSpec()
    seen = 0
    for _ in range(20):
        base = random_renderable(rng, spec)[0]
        truth = mutate(base, "primitive-substitute", rng, spec)
        if truth is None:
            continue
        seen += 1
        changed = changed_segments(base, truth)
        assert len(changed) == 1
        a = sequence_tokens(base)
        b = sequence_tokens(truth)
        # a line-arc swap changes the token budget by the sweep+flag fields
        assert abs(len(a) - len(b)) == 2
    assert seen >= 5


def test_loop_add_remove_changes_loop_count():
    rng = np.random.default_rng(23)
    spec = GridSpec()
    seen = 0
    for _ in range(30):
        base = random_renderable(rng, spec)[0]
        truth = mutate(base, "loop-add-remove", rng, spec)
        if truth is None:
            continue
        seen += 1
        assert len(truth.pairs) == len(base.pairs)
        diffs = [
            abs(len(sk_a.loops) - len(sk_b.loops))
            for (sk_a, _), (sk_b, _) in zip(base.pairs, truth.pairs)
        ]
        assert sorted(diffs) == [0] * (len(diffs) - 1) + [1]
    assert seen >= 5


def test_pair_add_remove_changes_pair_count():
    rng = np.random.default_rng(29)
    spec = GridSpec()
    seen = 0
    for _ in range(20):
        base = random_renderable(rng, spec)[0]
        truth = mutate(base, "pair-add-remove", rng, spec)
        if truth is None:
            continue
        seen += 1
        assert abs(len(truth.pairs) - len(base.pairs)) == 1
    assert seen >= 5


@pytest.fixture(scope="module")
def small_corpus():
    spec = SynthSpec(corpus_size=6, seed=42)
    return spec, synth(spec)


def test_synth_triplets_hold_invariants(small_corpus):
    spec, triplets = small_corpus
    assert len(triplets) == spec.corpus_size
    for t in triplets:
        assert isinstance(t, Triplet)
        assert t.edit_class in EDIT_CLASSES
        assert validate_sequence(t.original) == []
        assert validate_sequence(t.truth) == []
        assert np.array_equal(render(t.truth, spec.grid).values, t.target.values)
        assert t.truth_edit_distance >= 1
        # the edit must actually move material, or there is nothing to recover
        assert iou(render(t.original, spec.grid), t.target) < 1.0


def test_synth_is_deterministic(small_corpus):
    spec, triplets = small_corpus
    again = synth(spec)
    for t, u in zip(triplets, again):
        assert t.original == u.original
        assert t.truth == u.truth
        assert t.edit_class == u.edit_class
        assert np.array_equal(t.target.values, u.target.values)


def test_synth_exhaustion_reports_recipe(monkeypatch):
    monkeypatch.setattr(SynthSpec, "max_attempts", 0)
    spec = SynthSpec(corpus_size=1, seed=0)
    with pytest.raises(ExhaustedAttemptsError, match="triplet 0: .* within 0 attempts"):
        synth(spec)


def test_corpus_round_trip(tmp_path, small_corpus):
    spec, triplets = small_corpus
    save_corpus(tmp_path, triplets, spec)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert "manifest" in names
    assert "0000.orig.seq" in names and "0005.truth.seq" in names
    back = load_corpus(tmp_path)
    assert len(back) == len(triplets)
    for t, u in zip(triplets, back):
        assert u.original == t.original
        assert u.truth == t.truth
        assert u.edit_class == t.edit_class
        assert u.truth_edit_distance == t.truth_edit_distance
        assert np.array_equal(u.target.values, t.target.values)
        assert u.target.spec == t.target.spec


def test_corpus_round_trip_keeps_a_small_grid(tmp_path):
    spec = SynthSpec(corpus_size=2, seed=5, grid=GridSpec(resolution=16, tau=0.1))
    triplets = synth(spec)
    save_corpus(tmp_path, triplets, spec)
    back = load_corpus(tmp_path)
    assert [t.target.spec for t in back] == [spec.grid] * 2
    assert all(np.array_equal(u.target.values, t.target.values) for t, u in zip(triplets, back))


# header lines that parse but make no SynthSpec, or not the fixed edits_per_triplet
_BAD_HEADERS = {
    "no-size": (0, "corpus_size 0"),
    "seed": (1, "seed -3"),
    "bogus-class": (2, "classes " + ",".join(EDIT_CLASSES + ("bogus-class",))),
    "edits": (3, "edits_per_triplet 7"),
}


def _tell(lie: str, lines: list[str], where, triplets) -> None:
    """Make a saved 6-triplet manifest lie: change its lines, or a file."""
    if lie == "coarse-target":
        coarse = render(triplets[2].truth, GridSpec(resolution=16))
        (where / "0002.target.tsdf").write_bytes(tsdf_bytes(coarse))
    elif lie == "resolution-12":
        # every target agrees with the header, but the engine cannot pool 12
        for k, t in enumerate(triplets):
            (where / f"{k:04d}.target.tsdf").write_bytes(tsdf_bytes(render(t.truth, GridSpec(resolution=12))))
        lines[4] = "resolution 12"
    elif lie in _BAD_HEADERS:
        index, line = _BAD_HEADERS[lie]
        lines[index] = line
    elif lie == "short":
        del lines[8]
    elif lie in ("misspelled", "garbage"):
        lines.append({"misspelled": "tripelt 0009 param-jitter", "garbage": "garbage line"}[lie])
    elif lie == "class":
        lines[2] = "classes " + ",".join(c for c in EDIT_CLASSES if c != triplets[0].edit_class)
    elif lie == "tau-twice":
        lines.insert(6, "tau 0.1")
    elif lie == "no-tau":
        del lines[5]
    else:
        lines[4] = "resolution 4"


# each lie's error, after "<manifest>:"; a header that makes no SynthSpec names no line
_LIES = {
    "coarse-target": "9: target has resolution 16 and tau 0.200000003, the header 32 and 0.200000003",
    "short": "1: corpus_size 6 but 5 triplet lines",
    "misspelled": "13: expected 'triplet <stem> <class>', got 'tripelt 0009 param-jitter'",
    "garbage": "13: expected 'triplet <stem> <class>', got 'garbage line'",
    "class": "7: class {cls!r} is not in the header's classes",
    "tau-twice": "7: expected 'triplet <stem> <class>', got 'tau 0.1'",
    "no-tau": "6: expected a tau line, got 'triplet 0000 {cls}'",
    "resolution": "5: resolution: resolution 4 below the minimum of 8",
    "resolution-12": " resolution must be a multiple of 8, got 12",
    "no-size": " corpus_size must be positive, got 0",
    "seed": " seed must be non-negative, got -3",
    "bogus-class": f" classes must be a nonempty subset of {EDIT_CLASSES}",
    "edits": "4: edits_per_triplet must be 1, got 7",
}


@pytest.mark.parametrize("lie", list(_LIES))
def test_a_manifest_that_lies_is_rejected_on_its_line(tmp_path, small_corpus, lie):
    spec, triplets = small_corpus
    save_corpus(tmp_path, triplets, spec)
    manifest = tmp_path / "manifest"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    assert lines[6:] == [f"triplet {k:04d} {t.edit_class}" for k, t in enumerate(triplets)]
    _tell(lie, lines, tmp_path, triplets)
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_corpus(tmp_path)
    assert str(err.value) == f"{manifest}:" + _LIES[lie].format(cls=triplets[0].edit_class)


def test_a_manifest_with_an_extra_triplet_line_fails_before_any_file_is_read(tmp_path, small_corpus, monkeypatch):
    spec, triplets = small_corpus
    save_corpus(tmp_path, triplets, spec)
    manifest = tmp_path / "manifest"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    manifest.write_text("\n".join(lines + lines[-1:]) + "\n", encoding="utf-8")

    def read(path):
        raise AssertionError(f"read {path} before counting the triplet lines")

    for name in ("read_sequence_file", "read_tsdf"):
        monkeypatch.setattr(synth_module, name, read)
    with pytest.raises(ValueError) as err:
        load_corpus(tmp_path)
    assert str(err.value) == f"{manifest}:1: corpus_size 6 but 7 triplet lines"


def test_corpus_save_is_reproducible(tmp_path, small_corpus):
    spec, triplets = small_corpus
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    a_dir.mkdir()
    b_dir.mkdir()
    save_corpus(a_dir, triplets, spec)
    save_corpus(b_dir, triplets, spec)
    for p in sorted(a_dir.iterdir()):
        assert p.read_bytes() == (b_dir / p.name).read_bytes()


# sha256 of two saved 10-triplet corpora, recorded while synth rendered each
# base and truth again after its checks had rendered them
CORPUS_PIN = "7ac0d19c4342d853a8389f3ffddb52646363f43e74b8dc429c911dd83279932d"


def test_synth_renders_each_sequence_once_per_attempt_and_its_corpus_is_pinned(tmp_path, monkeypatch):
    renders, real_render, real_draw = [], synth_module.render, synth_module.random_renderable

    def counted(seq, spec):
        renders[-1].append((seq, spec))
        return real_render(seq, spec)

    def attempt(*args):
        renders.append([])
        return real_draw(*args)

    monkeypatch.setattr(synth_module, "render", counted)
    monkeypatch.setattr(synth_module, "random_renderable", attempt)
    digest = hashlib.sha256()
    for seed in (0, 1):
        spec = SynthSpec(corpus_size=10, seed=seed)
        out = tmp_path / str(seed)
        out.mkdir()
        save_corpus(out, synth(spec), spec)
        for p in sorted(out.iterdir()):
            digest.update(p.name.encode() + b"\0" + p.read_bytes())
    assert digest.hexdigest() == CORPUS_PIN
    assert len(renders) >= 20
    assert all(len(keys) == len(set(keys)) for keys in renders)


# sha256 of every edit class's mutation of 40 seeded sequences, None
# included: any change to a mutation's draws, their order or its result
# moves it
MUTATE_PIN = "ce172924a80f0c3babfb21e2a7415177e7355872f419f66cd58d9dce76920ef4"


def test_seeded_mutations_are_pinned():
    lines = []
    for s in range(40):
        rng = np.random.default_rng([s, 7])
        seq = random_sequence(rng, 1, 4)
        for cls in EDIT_CLASSES:
            out = mutate(seq, cls, rng, GridSpec(resolution=16))
            lines.append(f"{s} {cls} {'-' if out is None else serialize_sequence(out)}")
    assert any(line.endswith(" -") for line in lines)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == MUTATE_PIN


def test_synth_finishes_on_a_resolution_8_grid():
    # a fixed 40 cells is 7.8% of 8^3, and seed 8 exhausted its attempts on triplet 1
    assert [SynthSpec(grid=GridSpec(resolution=r)).min_voxel_delta for r in (8, 16, 32, 64)] == [1, 5, 40, 320]
    spec = SynthSpec(corpus_size=6, classes=("param-jitter",), seed=8, grid=GridSpec(resolution=8))
    assert len(synth(spec)) == 6


def test_single_class_spec_restricts_classes():
    spec = SynthSpec(corpus_size=4, classes=("param-jitter",), seed=3)
    for t in synth(spec):
        assert t.edit_class == "param-jitter"
        assert ConstructionSequence is type(t.truth)


def test_recipe_reads_its_seven_keys_and_defaults_the_rest(tmp_path):
    path = tmp_path / "recipe"
    path.write_text(
        "# every key\ncorpus_size 3\nclasses param-jitter,pair-add-remove\nmin_pairs 2\n"
        "max_pairs 3\nseed 9\n\nresolution 16\ntau 0.1\n",
        encoding="utf-8",
    )
    assert read_recipe(path) == SynthSpec(
        3, ("param-jitter", "pair-add-remove"), 2, 3, 9, GridSpec(resolution=16, tau=0.1)
    )
    # an empty recipe gives the defaults README and `cadfit synth --help` list
    path.write_text("", encoding="utf-8")
    assert read_recipe(path) == SynthSpec(50, EDIT_CLASSES, 1, 4, 0, GridSpec(resolution=32, tau=0.2))


@pytest.mark.parametrize("key, lines", [("corpus_size", "corpus_size 1\ncorpus_size 2\n"), ("tau", "tau 0.1\n# again\ntau 0.1\n")])
def test_recipe_rejects_a_key_given_twice(tmp_path, key, lines):
    path = tmp_path / "recipe"
    path.write_text(lines, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_recipe(path)
    assert str(err.value) == f"{path}: {key}: given twice"


def test_synth_spec_sets_six_fields_and_reads_its_fixed_settings_off_an_instance():
    names = [f.name for f in dataclasses.fields(SynthSpec)]
    assert names == ["corpus_size", "classes", "min_pairs", "max_pairs", "seed", "grid"]
    spec = SynthSpec()
    assert (spec.edits_per_triplet, spec.min_voxel_delta, spec.min_band_departure, spec.max_attempts) == (1, 40, 8, 500)
