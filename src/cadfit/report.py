"""Line-oriented text reports: diffable key-value sections, no timestamps.

A report is a series of ``[section]`` headers followed by ``key value``
lines.  Floats print with %.9g so reruns under the same seed are
byte-identical.
"""

from __future__ import annotations

import statistics

from .engine import EPSILON, PATIENCE, POOL_RES, EditResult, EngineConfig
from .metrics import DEFAULT_LAMBDA, MetricsReport, invalid_rate
from .planner import InfluenceEntry


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
            ("queue_capacity", cfg.queue_capacity),
            ("pool_res", POOL_RES),
            ("epsilon", EPSILON),
            ("patience", PATIENCE),
            ("lam", DEFAULT_LAMBDA),
            ("ablate", "none"),
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


def eval_report(
    header_pairs,
    rows: list[tuple[str, str, EditResult, int]],
    corpus_jsd: float | None,
) -> str:
    """Batch record: one section per triplet plus the aggregate table.

    Rows are (stem, edit_class, result, truth_edit_distance).  The
    aggregate averages shape metrics over valid finals only; the invalid
    rate accounts for the rest.  corpus_jsd compares the pooled occupancy
    histograms of all valid finals against all targets, which is the
    distribution-level divergence, so it is computed by the caller that
    still holds the grids.
    """
    lines = _section("eval", list(header_pairs) + [("triplets", len(rows))])
    for stem, edit_class, result, truth_dist in rows:
        pairs = [
            ("class", edit_class),
            ("stop_reason", result.stop_reason),
            ("rounds_used", result.rounds_used),
            ("truth_edit_distance", truth_dist),
        ]
        lines.extend(_section(f"triplet {stem}", pairs)[:-1])
        lines.extend(metrics_lines(result.report))
        lines.append("")
    reports = [r.report for _, _, r, _ in rows]
    valid = [r for r in reports if not r.invalid]
    agg: list[tuple[str, object]] = []
    if valid:
        agg.append(("iou_mean", statistics.fmean(r.iou for r in valid)))
        agg.append(("chamfer_mean", statistics.fmean(r.chamfer_mean for r in valid)))
        agg.append(("chamfer_median", statistics.median(r.chamfer_mean for r in valid)))
    if corpus_jsd is not None:
        agg.append(("jsd", corpus_jsd))
    agg.append(("invalid_rate", invalid_rate([r.invalid for r in reports])))
    agg.append(("edit_distance_mean", statistics.fmean(r.edit_distance for r in reports)))
    lines.extend(_section("aggregate", agg))
    return "\n".join(lines[:-1]) + "\n"
