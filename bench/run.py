"""Benchmark of the CrowdLearn reproduction: one workload, one process.

Usage (from the repository root)::

    python3 bench/run.py --workload paper-loop --seed 0 --seconds 30 --trace 0 [--out DIR]

Runs units of the workload in a closed loop for ``--seconds`` seconds and
at least ``min_units`` units, and builds the world ``SETUP_REPS`` times
over the run (``setup_s`` is the median).  Timings are divided by a
reference computation timed next to them (see ``Reference``), so they
read in seconds on a host of fixed speed.  The world (dataset, trained committee, worker
population, pilot study) is a fixture built from ``WORLD_SEED``; ``--seed``
generates the workload's inputs: every unit's image stream, crowd draws
and system randomness.  Checks the outputs, prints every metric as
``name value unit``, comment lines (``#``) with the unit digests, and as
the last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` wraps each layer's public functions
(see ``LAYERS``) and reports the per-layer metrics instead.  ``--out DIR``
also writes the result as JSON and, when tracing, the spans as JSONL.
Exits 1 when a check fails.
"""

from __future__ import annotations

import os

# One BLAS thread: on a 2-vCPU VM a second BLAS thread made cycle times
# both slower and less repeatable.  Must precede numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SETUP_REPS = 3
#: Seed of the world fixture.  Worlds built from different seeds differ in
#: committee quality by up to 0.17 macro-F1, far more than any bound.
WORLD_SEED = 0
#: Lowest pooled macro-F1 a correct run reaches on the small world.
F1_FLOOR = 0.5

if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"bench: no program source at {SRC}")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

from repro.eval.runner import prepare  # noqa: E402
from repro.metrics import macro_f1  # noqa: E402
from tracer import Layer, Tracer, summarize, wrapper_cost_seconds  # noqa: E402
from workloads import WORKLOADS, UnitResult, Workload, run_deployment, run_fleet  # noqa: E402


#: Wrapped functions, one span per call.  ``size_name`` names what
#: ``size`` counts.
LAYERS = (
    Layer("core.system.run_cycle", "repro.core.system:CrowdLearnSystem", "run_cycle"),
    Layer("core.committee.expert_votes", "repro.core.committee:Committee", "expert_votes"),
    Layer("core.committee.fit", "repro.core.committee:Committee", "fit"),
    Layer("core.qss.select", "repro.core.qss:QuerySetSelector", "select"),
    Layer("core.ipd.price_query", "repro.core.ipd:IncentivePolicyDesigner", "price_query"),
    Layer("core.ipd.observe", "repro.core.ipd:IncentivePolicyDesigner", "observe"),
    Layer("core.cqc.truthful_labels", "repro.core.cqc:CrowdQualityControl", "truthful_labels"),
    Layer("core.cqc.label_distributions", "repro.core.cqc:CrowdQualityControl",
          "label_distributions"),
    Layer("core.mic.update_weights", "repro.core.mic:MachineIntelligenceCalibrator",
          "update_weights"),
    Layer("core.mic.retrain_experts", "repro.core.mic:MachineIntelligenceCalibrator",
          "retrain_experts"),
    Layer("core.guards.guarded_retrain", "repro.core.guards:ModelGuard", "guarded_retrain"),
    Layer("core.guards.holdout_accuracy", "repro.core.guards:ModelGuard", "holdout_accuracy"),
    Layer("core.guards.snapshot_push", "repro.core.guards:SnapshotRing", "push",
          size=lambda args, result: len(result.payload)),
    Layer("crowd.platform.post_query", "repro.crowd.platform:CrowdsourcingPlatform",
          "post_query", size=lambda args, result: len(result.responses),
          size_name="responses"),
    Layer("crowd.run_pilot_study", "repro.eval.runner", "run_pilot_study"),
    Layer("data.build_dataset", "repro.eval.runner", "build_dataset"),
    Layer("models.VGG16.predict_proba", "repro.models.vgg:VGGModel", "predict_proba"),
    Layer("models.DDM.predict_proba", "repro.models.ddm:DDMModel", "predict_proba"),
    Layer("models.BoVW.predict_proba", "repro.models.bovw_model:BoVWModel", "predict_proba"),
    Layer("nn.model.forward", "repro.nn.model:Sequential", "forward"),
    Layer("nn.model.backward", "repro.nn.model:Sequential", "backward"),
    Layer("nn.trainer.fit", "repro.nn.trainer:Trainer", "fit"),
    Layer("serve.service.step", "repro.serve.service:CrowdLearnService", "step"),
    Layer("serve.deployment.run_next_cycle", "repro.serve.deployment:Deployment",
          "run_next_cycle", trace=lambda args: args[0].event_id),
    Layer("serve.pool.admit", "repro.serve.pool:SharedCrowdPool", "admit"),
)


#: Nominal time of one ``Reference`` pass.  Timings are reported in
#: seconds on a host where one pass takes this long (a round figure; it
#: took 11-12 ms on the 2-vCPU x86-64 VM the baseline was recorded on).
REFERENCE_S = 0.01
#: Reference passes timed right before and right after each world build.
SETUP_REFERENCE_PASSES = 3


class Reference:
    """A fixed computation that runs no program code, timed to gauge the host.

    A shared 2-vCPU host runs this benchmark 30-50% slower for minutes at
    a time, and sometimes switches speed within a run; set-up, cycles and
    this computation slow down together.  So one pass is timed right
    after every measured cycle, each cycle time is divided by its own
    pass (see ``smoothed``), and the ratio is scaled by ``REFERENCE_S``
    back into seconds.  Over 15 minutes of alternating ``paper-loop`` and
    ``no-retrain`` cycles, cut into 35 s blocks, the p50 and p90 of raw
    cycle times spread by 0.06-0.19 of their median (interquartile range)
    between blocks; the paired ratios spread by 0.02-0.05.  The time
    shares of the four parts are the best fit found there; no part alone
    tracked both workloads, as pure Python slows down 2-3 times as much
    as a cycle does.  One pass takes about 10 ms.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((64, 288))
        self._b = rng.standard_normal((288, 32))
        self._block = rng.standard_normal(1_000_000)
        # Preallocated, so the pass adds no allocation to peak memory.
        self._scratch = np.empty_like(self._block)
        self._record = {i: rng.standard_normal(50) for i in range(700)}

    def seconds(self) -> float:
        """Time one pass: small matrix products (27% of the time), a
        Python dict loop (9%), a pass over 8 MB (27%), and pickling and
        hashing a record (36%)."""
        began = time.perf_counter()
        for _ in range(80):
            c = self._a @ self._b
            np.maximum(c, 0.0, out=c)
            float(c.sum())
        totals: dict[int, float] = {}
        for k in range(5000):
            totals[k % 97] = totals.get(k % 97, 0.0) + k * 0.5
        np.multiply(self._block, 1.5, out=self._scratch)
        float(self._scratch.sum())
        hashlib.sha256(pickle.dumps(self._record)).digest()
        return time.perf_counter() - began


@dataclass
class Measurement:
    """Everything one run measured, before it is turned into metrics."""

    workload: Workload
    setup_seconds: list[float]
    #: Median reference pass around each build, aligned with ``setup_seconds``.
    setup_reference_seconds: list[float]
    units: list[UnitResult]
    #: The leading units every run executes; quality and digests use them.
    head: list[UnitResult]
    n_classes: int
    workers_per_query: int

    @property
    def cycle_seconds(self) -> list[float]:
        """Steady-state cycle times (see ``UnitResult.cycle_seconds``)."""
        return [t for unit in self.units for t in unit.cycle_seconds]

    @property
    def reference_seconds(self) -> list[float]:
        """The reference pass after each steady-state cycle."""
        return [t for unit in self.units for t in unit.reference_seconds]

    @property
    def n_cycles(self) -> int:
        """Every measured cycle, first cycles included."""
        return sum(len(unit.outcome.cycles) for unit in self.units)

    @property
    def wall_seconds(self) -> float:
        return sum(unit.wall_seconds for unit in self.units)


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    tracer: Tracer | None = None,
    setup_reps: int = SETUP_REPS,
    min_units: int | None = None,
) -> Measurement:
    """Build the world, then run units until time is up (and at least
    ``min_units`` of them).

    The world is built ``setup_reps`` times: once before the first unit
    and then at even intervals between units, so one slow spell of the
    host cannot skew every build; units use the first.  Reference passes
    are timed around every build and after every measured cycle.
    """
    config = workload.config()
    min_units = workload.min_units if min_units is None else min_units
    reference = Reference()
    setup_seconds: list[float] = []
    setup_references: list[float] = []

    def build():
        passes = [reference.seconds() for _ in range(SETUP_REFERENCE_PASSES)]
        if tracer is not None:
            tracer.prefix = "setup."
        began = time.perf_counter()
        world = prepare(WORLD_SEED, config=config, fast=True)
        setup_seconds.append(time.perf_counter() - began)
        if tracer is not None:
            tracer.prefix = ""
        passes += [reference.seconds() for _ in range(SETUP_REFERENCE_PASSES)]
        setup_references.append(statistics.median(passes))
        return world

    setup = build()
    n_classes = setup.base_committee.experts[0].n_classes
    units: list[UnitResult] = []
    run_unit = run_fleet if workload.fleet else run_deployment
    start = time.perf_counter()
    rebuild_at = [start + seconds * i / setup_reps for i in range(1, setup_reps)]
    while len(units) < min_units or time.perf_counter() < start + seconds:
        if rebuild_at and time.perf_counter() >= rebuild_at[0]:
            rebuild_at.pop(0)
            build()
        name = f"bench-{seed}-{len(units)}"
        if tracer is not None:
            tracer.trace_id = name
        units.append(run_unit(setup, config, name, n_classes, reference.seconds))
    while len(setup_seconds) < setup_reps:
        build()
    return Measurement(workload, setup_seconds, setup_references, units, units[:min_units],
                       n_classes, config.workers_per_query)


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile, refused unless ten samples lie beyond it."""
    if len(values) * (100 - q) < 1000:
        raise ValueError(
            f"p{q} needs {-(-1000 // (100 - q))} samples, got {len(values)}"
        )
    return float(np.percentile(values, q))


def head_macro_f1(m: Measurement) -> float:
    y_true = np.concatenate([u.outcome.y_true() for u in m.head])
    y_pred = np.concatenate([u.outcome.y_pred() for u in m.head])
    return float(macro_f1(y_true, y_pred, m.n_classes))


def normalised(seconds: list[float], references: list[float]) -> list[float]:
    """Each time divided by its reference time, in seconds at ``REFERENCE_S``."""
    if len(seconds) != len(references):
        raise ValueError(f"{len(seconds)} times but {len(references)} reference times")
    return [REFERENCE_S * t / r for t, r in zip(seconds, references)]


def smoothed(passes: list[float]) -> list[float]:
    """Each pass replaced by the median of it and its two neighbours.

    One pass (10 ms) is noisier than a cycle (40-200 ms); a single fast
    pass would otherwise put its cycle in the p90 tail.
    """
    return [statistics.median(passes[max(i - 1, 0):i + 2]) for i in range(len(passes))]


def end_to_end(m: Measurement) -> dict[str, tuple[float, str]]:
    """End-to-end metrics; timings in normalised seconds, and the wall
    times they come from under ``wall_`` names."""
    delays = [
        c.crowd_delay for u in m.head for c in u.outcome.cycles if c.query_indices.size
    ]
    cycles = normalised(m.cycle_seconds, smoothed(m.reference_seconds))
    setups = normalised(m.setup_seconds, m.setup_reference_seconds)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "cycle_p50_s": (percentile(cycles, 50), "s"),
        "cycle_p90_s": (percentile(cycles, 90), "s"),
        "wall_setup_s": (statistics.median(m.setup_seconds), "s"),
        "wall_cycle_p50_s": (percentile(m.cycle_seconds, 50), "s"),
        "wall_cycle_p90_s": (percentile(m.cycle_seconds, 90), "s"),
        "reference_s": (statistics.median(m.reference_seconds), "s"),
        "macro_f1": (head_macro_f1(m), "ratio"),
        "crowd_delay_s": (float(np.mean(delays)), "virtual_s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


_SIZE_NAMES = {layer.name: layer.size_name for layer in LAYERS if layer.size}


def per_layer(m: Measurement, tracer: Tracer, wrapper_cost: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: measured spans per cycle, ``setup.`` spans per
    world build.  Every wrapped layer is reported, with zeros when it
    never ran."""
    stats = summarize(tracer.spans)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "size": 0}
    names = set(stats) | {p + layer.name for layer in LAYERS for p in ("", "setup.")}
    out: dict[str, tuple[float, str]] = {}
    for name in sorted(names):
        entry = stats.get(name, empty)
        setup = name.startswith("setup.")
        n = len(m.setup_seconds) if setup else m.n_cycles
        suffix = "" if setup else "/cycle"
        out[f"{name}.calls"] = (entry["calls"] / n, f"count{suffix}")
        out[f"{name}.busy_s"] = (entry["busy_s"] / n, f"s{suffix}")
        out[f"{name}.self_s"] = (entry["self_s"] / n, f"s{suffix}")
        size_name = _SIZE_NAMES.get(name.removeprefix("setup."))
        if size_name is not None:
            unit = "B" if size_name == "bytes" else size_name
            out[f"{name}.{size_name}"] = (entry["size"] / n, f"{unit}{suffix}")

    def value(name: str) -> float:
        return out[name][0]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    counts: dict[str, float] = {}
    for unit in m.units:
        for key, v in unit.counts.items():
            counts[key] = counts.get(key, 0) + v
    out["core.guards.tax_s"] = (
        value("core.guards.guarded_retrain.busy_s") - value("core.mic.retrain_experts.busy_s"),
        "s/cycle",
    )
    out["core.guards.kept_ratio"] = (
        1.0 - ratio(counts.get("guard_rollbacks", 0), counts.get("guard_snapshots", 0)),
        "ratio",
    )
    for store in ("prediction", "feature"):
        hits = counts.get(f"{store}_hits", 0)
        out[f"core.cache.{store}_hit_ratio"] = (
            ratio(hits, hits + counts.get(f"{store}_misses", 0)), "ratio"
        )
    out["crowd.platform.answered_ratio"] = (
        ratio(value("crowd.platform.post_query.responses"),
              value("crowd.platform.post_query.calls") * m.workers_per_query),
        "ratio",
    )
    out["serve.pool.deferred"] = (counts.get("pool_deferred", 0) / m.n_cycles, "count/cycle")
    out["serve.pool.shed_ratio"] = (
        ratio(counts.get("pool_shed", 0), counts.get("pool_requested", 0)), "ratio"
    )
    measured_spans = sum(1 for s in tracer.spans if not s.name.startswith("setup."))
    out["trace.overhead_ratio"] = (wrapper_cost * measured_spans / m.wall_seconds, "ratio")
    top = "serve.service.step" if m.workload.fleet else "core.system.run_cycle"
    out["trace.coverage_ratio"] = (
        value(f"{top}.busy_s") * m.n_cycles / m.wall_seconds, "ratio"
    )
    return out


def quality_failures(m: Measurement) -> list[str]:
    """Run-level checks; a failure here fails every cycle of the run."""
    f1 = head_macro_f1(m)
    return [f"macro_f1 {f1:.4f} is below {F1_FLOOR}"] if f1 < F1_FLOOR else []


def head_digest(m: Measurement) -> str:
    """One digest over the digests of the units every run executes."""
    body = json.dumps([[u.name, u.digest] for u in m.head])
    return hashlib.sha256(body.encode()).hexdigest()


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _out_path(out_dir: Path, stem: str) -> Path:
    """The first ``<stem>-<n>.json`` not yet taken, so runs never overwrite."""
    index = 0
    while (out_dir / f"{stem}-{index}.json").exists():
        index += 1
    return out_dir / f"{stem}-{index}.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    benchmark = load_benchmark()
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(LAYERS)
    try:
        m = measure(workload, args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is None:
        metrics = end_to_end(m)
    else:
        metrics = per_layer(m, tracer, wrapper_cost_seconds())
    attempted = sum(u.attempted for u in m.units)
    run_failures = quality_failures(m)
    failed = attempted if run_failures else sum(u.failed for u in m.units)
    failures = [f for u in m.units for f in u.failures] + run_failures

    for unit in m.head:
        print(f"# digest {unit.name} {unit.digest}")
    print(f"# head_digest {head_digest(m)}")
    print(f"# units {len(m.units)} cycles {m.n_cycles} steady {len(m.cycle_seconds)} "
          f"measured_wall_s {m.wall_seconds:.3f}")
    for failure in failures:
        print(f"# FAILED {failure}")
    reported = {}
    for spec in wanted:
        value, unit = metrics[spec["name"]]
        reported[spec["name"]] = {"value": value, "unit": unit}
        print(f"{spec['name']} {value!r} {unit}")
    for name in sorted(set(metrics) - set(reported)):
        print(f"# {name} {metrics[name][0]!r} {metrics[name][1]}")

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        stem = f"{workload.name}-seed{args.seed}" + ("-trace" if args.trace else "")
        result = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "failures": failures,
            "units": len(m.units),
            "cycles": m.n_cycles,
            "digests": {u.name: u.digest for u in m.head},
            "head_digest": head_digest(m),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        path = _out_path(args.out, stem)
        path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        if tracer is not None:
            tracer.write_jsonl(path.with_suffix(".spans.jsonl"))

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
