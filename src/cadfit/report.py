"""Line-oriented text reports: diffable key-value sections, no timestamps.

A report is a series of ``[section]`` headers followed by ``key value``
lines.  Floats print with %.9g so reruns under the same seed are
byte-identical.
"""

from __future__ import annotations

import statistics

from .engine import EPSILON, PATIENCE, POOL_RES, QUEUE_CAPACITY, EditResult, EngineConfig
from .metrics import LAMBDA, MetricsReport, jsd, occupancy_histogram
from .planner import InfluenceEntry
from .synth import Triplet


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _section(name: str, pairs) -> list[str]:
    return [f"[{name}]"] + [f"{k} {fmt(v)}" for k, v in pairs] + [""]


def metrics_lines(rep: MetricsReport) -> list[str]:
    return [f"{k} {fmt(v)}" for k, v in rep.to_fields()]


def influence_lines(entries: tuple[InfluenceEntry, ...]) -> list[str]:
    return [
        f"influence {e.segment.label()} {fmt(e.m_current)} {fmt(e.m_target)} {fmt(e.j)}"
        for e in entries
    ]


def run_report(result: EditResult, cfg: EngineConfig) -> str:
    lines = _section(
        "engine",
        [
            ("seed", cfg.seed),
            ("max_rounds", cfg.max_rounds),
            ("candidates_per_round", cfg.n),
            ("queue_capacity", QUEUE_CAPACITY),
            ("pool_res", POOL_RES),
            ("epsilon", EPSILON),
            ("patience", PATIENCE),
            ("lam", LAMBDA),
            ("ablate", cfg.ablate or "none"),
            ("rounds_used", result.rounds_used),
            ("stop_reason", result.stop_reason),
        ],
    )
    for rec in result.trace:
        lines.append(f"[round {rec.index}]")
        lines.extend(influence_lines(rec.influence))
        lines.append("selected " + (" ".join(s.label() for s in rec.selected) or "-"))
        for dist in rec.distances:
            lines.append(f"candidate_distance {fmt(dist)}")
        lines.append(f"queue_digest {rec.queue_digest}")
        lines.append(f"best_distance {fmt(rec.best_distance)}")
        lines.append("")
    lines.append("[final]")
    lines.extend(metrics_lines(result.report))
    return "\n".join(lines) + "\n"


def eval_report(cfg: EngineConfig, triplets: list[Triplet], results: list[EditResult]) -> str:
    """Batch record of ``run_corpus``'s results: one section per triplet,
    headed by its index, plus the aggregate table.

    The aggregate averages shape metrics over valid finals only; the
    invalid rate accounts for the rest.  jsd compares the pooled occupancy
    histograms of all valid finals against their targets, which is the
    distribution-level divergence.
    """
    header = [
        ("seed", cfg.seed),
        ("rounds", cfg.max_rounds),
        ("candidates_per_round", cfg.n),
        ("queue_capacity", QUEUE_CAPACITY),
        ("granularity", cfg.granularity.value),
        ("ablate", cfg.ablate or "none"),
        ("triplets", len(results)),
    ]
    lines = _section("eval", header)
    for k, (t, result) in enumerate(zip(triplets, results)):
        pairs = [
            ("class", t.edit_class),
            ("stop_reason", result.stop_reason),
            ("rounds_used", result.rounds_used),
            ("truth_edit_distance", t.truth_edit_distance),
        ]
        lines.extend(_section(f"triplet {k:04d}", pairs + result.report.to_fields()))
    reports = [r.report for r in results]
    valid = [(rep, t.target) for rep, t in zip(reports, triplets) if not rep.invalid]
    agg: list[tuple[str, object]] = []
    if valid:
        agg.append(("iou_mean", statistics.fmean(rep.iou for rep, _ in valid)))
        agg.append(("chamfer_mean", statistics.fmean(rep.chamfer_mean for rep, _ in valid)))
        agg.append(("chamfer_median", statistics.median(rep.chamfer_mean for rep, _ in valid)))
        finals = occupancy_histogram([rep.grid for rep, _ in valid])
        agg.append(("jsd", jsd(finals, occupancy_histogram([target for _, target in valid]))))
    agg.append(("invalid_rate", statistics.fmean(r.invalid for r in reports)))
    agg.append(("edit_distance_mean", statistics.fmean(r.edit_distance for r in reports)))
    lines.extend(_section("aggregate", agg))
    return "\n".join(lines[:-1]) + "\n"
