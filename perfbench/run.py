"""cadfit benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload edit-axis32 --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Every metric is printed as ``name value unit``; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``--record`` stores this seed's input and
output digests and quality numbers in reference.json.  See README.md.
"""

from __future__ import annotations

import os

# one closed-loop client on a two-core machine: BLAS stays single-threaded.
# Set before numpy is first imported, here and in the set-up children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("edit-axis32", "edit-tilted32", "edit-axis64", "corpus-io")
CORPUS_BATCH = 2
SETUP_REPEATS = 3

# the end-to-end metrics BENCHMARK.json lists, emitted on every workload
END_TO_END = ("setup_s", "op_s.mean", "peak_rss_mb", "outputs_identical")
# further metrics, printed but not gated: each is undefined on some
# workload, or spreads with the seed's inputs (see README.md)
REPORTED = (
    "edit_s.p50", "edit_s.tail", "edits_per_s", "triplets_per_s", "score_s.p50", "score_s.tail",
    "iou85_hits", "iou_mean", "edit_ratio_p50", "failed_share",
)

_SETUP_CHILD = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import cadfit.cli\n"
    "from cadfit.synth import load_corpus\n"
    "for path in sys.argv[2:]:\n"
    "    load_corpus(path)\n"
)


def setup_seconds(corpus: Path) -> float:
    """Median time, at reference host speed, of fresh processes that import cadfit and load the inputs.

    The host's speed is the median of three kernel samples before the first
    process and after each one: a single sample right after a process exits
    is often slow.
    """
    args = [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(corpus)]
    walls, speeds = [], [hostspeed.sample() for _ in range(3)]
    for _ in range(SETUP_REPEATS):
        # a blocking wait: with a timeout, subprocess polls in 50 ms sleeps
        t0 = time.perf_counter()
        subprocess.run(args, check=True)
        walls.append(time.perf_counter() - t0)
        speeds += [hostspeed.sample() for _ in range(3)]
    return statistics.median(walls) * hostspeed.REFERENCE_S[32] / statistics.median(speeds)


def tail(values: list[float]) -> tuple[float, int] | None:
    """(value, percentile) at the highest percentile with at least 10 samples beyond it."""
    if len(values) < 20:
        return None
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    for pct in (99, 95, 90, 75, 50):
        if sum(v > cuts[pct - 1] for v in values) >= 10:
            return cuts[pct - 1], pct
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}


class Outcome:
    """What one run measured: metrics with units, op counts, identity checks."""

    def __init__(self):
        self.metrics: dict[str, tuple[float, str]] = {}
        self.layers: dict[str, tuple[float, str]] = {}
        self.notes: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.compared = 0
        self.identical = 0
        self.slowdown: float | None = None

    def same(self, got: str, want: str) -> None:
        self.compared += 1
        self.identical += got == want

    def put_tail(self, name: str, values: list[float], what: str) -> None:
        t = tail(values)
        if t:
            self.metrics[name] = (t[0], "s")
            self.notes[name] = f"p{t[1]} of {len(values)} {what}"
        else:
            self.notes[name] = f"{len(values)} {what}; a tail needs at least 20"

    def count(self, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            self.errors.append(error)


def interleaved_trace(count: int, plain, traced, out: Outcome, trace_file: str) -> None:
    """Each operation once without wrappers and once traced, alternating which goes first.

    Interleaving cancels drift in machine speed from the overhead ratio.
    The spans go to WORK/trace_file, the layer metrics to out.layers.
    """
    from spans import Tracer

    tracer = Tracer()
    walls = {"plain": 0.0, "traced": 0.0}

    def timed(kind, k):
        t0 = time.perf_counter()
        if kind == "plain":
            plain(k)
        else:
            tracer.install()
            try:
                tracer.begin(k)
                traced(k, tracer.span)
            finally:
                tracer.uninstall()
        walls[kind] += time.perf_counter() - t0

    for k in range(count):
        for kind in ("plain", "traced") if k % 2 == 0 else ("traced", "plain"):
            timed(kind, k)
    tracer.write(WORK / trace_file)
    out.layers = tracer.layer_metrics()
    out.layers["trace.overhead"] = (walls["traced"] / walls["plain"], "ratio")


# -- edit workloads ------------------------------------------------------------


def run_edits(name: str, seed: int, seconds: float, traced: bool, work: Path, record: dict | None) -> Outcome:
    import drive
    import workloads
    from cadfit.synth import load_corpus

    wl = workloads.EDIT_WORKLOADS[name]
    ref = load_reference().get(name, {})
    out = Outcome()

    corpus = work / "inputs"
    workloads.write_inputs(corpus, wl, seed, workloads.edit_triplets(wl, seed))
    inputs_digest = workloads.tree_digest(corpus)
    if str(seed) in ref:
        out.same(inputs_digest, ref[str(seed)]["inputs"])
    probe = workloads.edit_triplets(wl, 0, slots=[0])[0]

    if not traced:
        out.metrics["setup_s"] = (setup_seconds(corpus), "s")
    meter = None if traced else hostspeed.Meter(wl.resolution)
    triplets = load_corpus(corpus)
    configs = [drive.engine_config(wl, seed, k) for k in range(len(triplets))]

    # the reference probe, slot 0 of seed 0, also warms the process up
    first = drive.edit(probe, drive.engine_config(wl, 0, 0), 0, meter=meter)
    out.count(first.error)
    if "0" in ref:
        out.same(first.digest, ref["0"]["outputs"][0])

    def one_pass():
        return [drive.edit(trip, cfg, k, meter=meter) for k, (trip, cfg) in enumerate(zip(triplets, configs))]

    if traced:
        plain, edits = [], []
        interleaved_trace(
            len(triplets),
            lambda k: plain.append(drive.edit(triplets[k], configs[k], k)),
            lambda k, span: edits.append(drive.edit(triplets[k], configs[k], k, span)),
            out, f"trace-{name}-seed{seed}.jsonl",
        )
        for a, b in zip(plain, edits):
            out.same(b.digest, a.digest)
        passes = [plain, edits]
    else:
        passes = []
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < seconds:
            passes.append(one_pass())
        for later in passes[1:]:
            for a, b in zip(passes[0], later):
                out.same(b.digest, a.digest)

    for e in (e for p in passes for e in p):
        out.count(e.error)
    edits = [e for p in passes for e in p if not e.error]
    first_pass = passes[0]
    if str(seed) in ref:
        for e, want in zip(first_pass, ref[str(seed)]["outputs"]):
            out.same(e.digest, want)

    quality = {
        "iou85_hits": sum((e.iou or 0.0) >= 0.85 for e in first_pass),
        "iou_mean": statistics.fmean(e.iou or 0.0 for e in first_pass),
        "edit_ratio_p50": statistics.median(e.edit_ratio for e in first_pass),
    }
    if str(seed) in ref:
        out.same(json.dumps(quality, sort_keys=True), json.dumps(ref[str(seed)]["quality"], sort_keys=True))
    if record is not None:
        record[name] = {"inputs": inputs_digest, "outputs": [e.digest for e in first_pass], "quality": quality}

    if traced:
        return out
    walls = [e.scaled for e in edits]
    # the gated operation is one round: the run's edit time over its rounds.
    # How many rounds an edit takes depends on the seed's search path, and
    # a round's cost on the edit class, so per-edit latency is bimodal and
    # its median swings with the seed; the mean over a fixed suite does not.
    out.metrics["op_s.mean"] = (sum(walls) / sum(e.rounds for e in edits), "s")
    out.metrics["edit_s.p50"] = (statistics.median(walls), "s")
    out.metrics["edits_per_s"] = (len(walls) / sum(walls), "1/s")
    out.put_tail("edit_s.tail", walls, "edits")
    out.slowdown = meter.slowdown()
    out.metrics["iou85_hits"] = (quality["iou85_hits"], "count")
    out.metrics["iou_mean"] = (quality["iou_mean"], "iou")
    out.metrics["edit_ratio_p50"] = (quality["edit_ratio_p50"], "ratio")
    return out


# -- corpus-io -------------------------------------------------------------------


def run_corpus(seed: int, seconds: float, traced: bool, work: Path, record: dict | None) -> Outcome:
    """Steps of one `cadfit synth` batch, its scoring, and the scoring of a quarter of the suite.

    The synth batches write the corpus files and cycle the pair count 1 to 4;
    synth draws the rest of their structure, so their scoring time follows
    the seed.  The gated operation is scoring one triplet of the edit-axis32
    suite both ways: the suite's files are written before timing, its slots
    fix their structure, and every step scores one slot of each pair count,
    so the work per step stays the same from seed to seed.
    """
    import drive
    import workloads

    wl = workloads.EDIT_WORKLOADS["edit-axis32"]
    ref = load_reference().get("corpus-io", {})
    out = Outcome()

    suite = work / "inputs"
    workloads.write_inputs(suite, wl, seed, workloads.edit_triplets(wl, seed))
    inputs_digest = workloads.tree_digest(suite)
    if str(seed) in ref:
        out.same(inputs_digest, ref[str(seed)]["inputs"])
    if not traced:
        out.metrics["setup_s"] = (setup_seconds(suite), "s")
    meter = None if traced else hostspeed.Meter()

    probe_dir = work / "probe"
    probe_dir.mkdir()
    probe = drive.corpus_batch(probe_dir, 0, 0, CORPUS_BATCH, meter=meter)
    for cmd in probe:
        out.count(cmd.error)
    if "0" in ref:
        out.same(drive.batch_digest(probe_dir, 0, probe), ref["0"]["outputs"][0])

    slots = range(len(wl.suite))

    def step(where: Path, b: int, span=None):
        """(synth batch b with its scoring, {suite slot: its two scoring commands})."""
        batch = drive.corpus_batch(where, seed, b, CORPUS_BATCH, span, meter)
        # every quarter of the suite holds one slot of each pair count
        return batch, {k: drive.score(suite / f"{k:04d}", span, meter) for k in slots[b % 4 :: 4]}

    if traced:
        where, plain_dir = work / "traced", work / "plain"
        where.mkdir()
        plain_dir.mkdir()
        plain, done = [], []
        interleaved_trace(
            4,
            lambda b: plain.append(step(plain_dir, b)),
            lambda b, span: done.append(step(where, b, span)),
            out, f"trace-corpus-io-seed{seed}.jsonl",
        )
        for b, ((a, sa), (c, sc)) in enumerate(zip(plain, done)):
            out.same(drive.batch_digest(where, b, c), drive.batch_digest(plain_dir, b, a))
            for k in sa:
                out.same(drive.output_digest(sc[k]), drive.output_digest(sa[k]))
            for cmd in a + [c for cmds in sa.values() for c in cmds]:
                out.count(cmd.error)
    else:
        where = work / "timed"
        where.mkdir()
        done = []
        t0 = time.perf_counter()
        # every step scores a quarter of the suite with one slot of each pair
        # count, so a run may stop after any step
        while not done or time.perf_counter() - t0 < seconds:
            done.append(step(where, len(done)))

    digests = [drive.batch_digest(where, b, batch) for b, (batch, _) in enumerate(done)]
    scored: dict[int, list[list]] = {}
    for _, part in done:
        for k, cmds in part.items():
            scored.setdefault(k, []).append(cmds)
    for runs in scored.values():
        for later in runs[1:]:
            out.same(drive.output_digest(later), drive.output_digest(runs[0]))
    suite_digest = drive.sha256("".join(drive.output_digest(scored[k][0]) for k in sorted(scored)))
    if str(seed) in ref:
        for got, want in zip(digests, ref[str(seed)]["outputs"]):
            out.same(got, want)
        out.same(suite_digest, ref[str(seed)]["suite"])
    if record is not None:
        record["corpus-io"] = {"inputs": inputs_digest, "outputs": digests, "suite": suite_digest}

    synth_cmds = [c for batch, _ in done for c in batch]
    suite_cmds = [cmds for _, part in done for cmds in part.values()]
    for c in synth_cmds + [c for cmds in suite_cmds for c in cmds]:
        out.count(c.error)
    if traced:
        return out
    ok = [c for c in synth_cmds if not c.error]
    synth_walls = [c.scaled for c in ok if c.kind == "synth"]
    score_walls = [c.scaled for c in ok if c.kind == "score"]
    # the gated operation is scoring one suite triplet both ways; its cost
    # follows the pair count, so the mean over whole quarters is steady
    out.metrics["op_s.mean"] = (sum(a.scaled + b.scaled for a, b in suite_cmds) / len(suite_cmds), "s")
    out.metrics["score_s.p50"] = (statistics.median(score_walls), "s")
    out.put_tail("score_s.tail", score_walls, "calls")
    # synth's rejection sampling makes 4 to 16 renders per triplet,
    # depending on the seed, so this rate is reported but not gated
    out.metrics["triplets_per_s"] = (CORPUS_BATCH * len(synth_walls) / sum(synth_walls), "1/s")
    out.slowdown = meter.slowdown()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="store this seed's digests in reference.json")
    args = parser.parse_args(argv)

    if not (SRC / "cadfit" / "__init__.py").is_file():
        print(f"perfbench: no cadfit sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir()
    record = {} if args.record else None
    try:
        if args.workload == "corpus-io":
            out = run_corpus(args.seed, args.seconds, bool(args.trace), work, record)
        else:
            out = run_edits(args.workload, args.seed, args.seconds, bool(args.trace), work, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        out.metrics = out.layers
        shown = emitted = list(out.layers)
    else:
        out.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        # nothing to compare only while reference.json is being recorded
        identical = out.identical / out.compared if out.compared else math.nan
        out.metrics["outputs_identical"] = (identical, "share")
        out.metrics["failed_share"] = (out.failed / out.attempted, "share")
        emitted = END_TO_END
        shown = END_TO_END + REPORTED
    for key in shown:
        note = f"  ({out.notes[key]})" if key in out.notes else ""
        if key in out.metrics:
            value, unit = out.metrics[key]
            print(f"{key} {value:.6g} {unit}{note}")
        else:
            print(f"{key} n/a{note or '  (not measured on this workload)'}")
    if out.slowdown is not None:
        print(f"host_slowdown {out.slowdown:.4g}  (median time of hostspeed.kernel over its reference; timings above are at reference speed)")
    for err in out.errors[:5]:
        print(f"failed: {err}", file=sys.stderr)

    if record is not None:
        data = load_reference()
        for wl, entry in record.items():
            data.setdefault(wl, {})[str(args.seed)] = entry
        REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": out.metrics[k][0], "unit": out.metrics[k][1]} for k in emitted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
