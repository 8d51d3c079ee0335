"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py

They cover self-time arithmetic on a synthetic span tree and the scaling of
timings to reference host speed, check that a traced run leaves no wrapper
behind, and run every workload at a reduced size to check that each metric
BENCHMARK.json names is emitted with its unit.
"""

import dataclasses
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def S(name, start, end, parent):
    return spans.Span(name, start, end, parent, 0)


def test_self_time_subtracts_children_once():
    tree = [
        S("root", 0.0, 10.0, -1),
        S("a", 1.0, 4.0, 0),
        S("a.child", 2.0, 3.0, 1),
        S("b", 5.0, 7.0, 0),
        S("c", 6.5, 12.0, 0),  # runs past its parent: only 6.5..10 counts
        S("lone", 20.0, 21.5, -1),
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx([10 - 3 - 2 - 3, 3 - 1, 1, 2, 5.5, 1.5])


def test_self_time_of_overlapping_children_counts_their_union():
    tree = [S("root", 0.0, 4.0, -1), S("x", 0.5, 2.0, 0), S("y", 1.5, 3.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(4.0 - 2.5)


def test_meter_scales_by_the_kernel_samples_around_each_operation(monkeypatch):
    samples = iter([0.02, 0.04, 0.01])
    monkeypatch.setattr(hostspeed, "sample", lambda resolution: next(samples))
    meter = hostspeed.Meter()
    ref = hostspeed.REFERENCE_S[32]
    assert meter.scaled(3.0) == pytest.approx(3.0 * ref / 0.03)
    assert meter.scaled(1.0) == pytest.approx(1.0 * ref / 0.025)
    assert meter.slowdown() == pytest.approx(0.02 / ref)


def _wrapped(namespace):
    return [k for k, v in namespace.items() if isinstance(v, types.FunctionType) and hasattr(v, "perfbench_original")]


def _wrappers_left():
    left = list(_wrapped(vars(spans.engine.PriorityQueue)))
    for mod in list(sys.modules.values()):
        namespace = getattr(mod, "__dict__", None)
        if isinstance(namespace, dict):
            left += [f"{mod.__name__}.{k}" for k in _wrapped(namespace)]
    return left


def test_install_wraps_every_import_site_and_uninstall_restores_them():
    from cadfit import engine, kernel, metrics

    originals = (kernel.render, engine.render, metrics.render, engine.PriorityQueue.push)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert engine.render is metrics.render is not originals[0]
        assert engine.render.perfbench_original is originals[0]
    finally:
        tracer.uninstall()
    assert (kernel.render, engine.render, metrics.render, engine.PriorityQueue.push) == originals
    assert _wrappers_left() == []


@pytest.fixture
def reduced(monkeypatch):
    """Every workload cut to one slot, one round, one triplet per batch."""
    for name, wl in workloads.EDIT_WORKLOADS.items():
        monkeypatch.setitem(
            workloads.EDIT_WORKLOADS, name, dataclasses.replace(wl, suite=wl.suite[:1], max_rounds=1)
        )
    monkeypatch.setattr(run, "CORPUS_BATCH", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def _emitted(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_emitted_with_its_unit(reduced, capsys, workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = _emitted(capsys, workload, trace)
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        assert _wrappers_left() == []


def test_traced_run_sees_the_axis_and_tilted_placements(reduced, capsys):
    axis = _emitted(capsys, "edit-axis32", 1)["metrics"]
    tilted = _emitted(capsys, "edit-tilted32", 1)["metrics"]
    assert axis["kernel.axis_body_share"]["value"] > 0.9
    # a candidate whose orientation jitter clips to bin 0 is axis-aligned
    # again; over a full run that is well under 1%, in this one-round run
    # two of fourteen bodies
    assert tilted["kernel.axis_body_share"]["value"] < 0.25


def test_same_seed_gives_the_same_inputs(tmp_path):
    wl = workloads.EDIT_WORKLOADS["edit-axis32"]
    digests = []
    for k in range(2):
        where = tmp_path / str(k)
        workloads.write_inputs(where, wl, 11, workloads.edit_triplets(wl, 11, slots=[0, 1]))
        digests.append(workloads.tree_digest(where))
    assert digests[0] == digests[1]


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "edit-axis32", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
