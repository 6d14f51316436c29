"""lidarood benchmark: one workload, one process, one caller (closed loop).

    python3 bench/run.py --workload train_3k --seed 1 --seconds 55 --trace 0

Run from the repository root; the package is imported from ``src/``. The run
sets up its seeded inputs, then repeats whole cycles (train, score, eval,
each cycle on inputs of its own; see workloads.py) for about ``--seconds``
and checks every operation. Every time is taken on the reference host
(workloads.HostClock). Each rate is the median over its timed units
(workloads.Samples); ``setup_s`` is the median of SETUP_REPS set-ups run
before the cycles;
``peak_mem_mb`` is the peak RSS once the set-up groups' cycles are done.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one
uncounted warm-up cycle, then alternates untraced cycles and cycles with
every layer function wrapped (tracing.py), then scores and evaluates one
held-out scene under tracemalloc for per-layer peaks, and reports the
per-layer metrics. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 8


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _timed_setup(wl, seed: int, work: Path, times: list[float]):
    """Set up, and add its time on the reference host to ``times``."""
    from workloads import HostClock, setup

    clock = HostClock()
    start = clock.start()
    inputs = setup(wl, seed, work)
    times.append(clock.elapsed(start))
    return inputs


def end_to_end(wl, seed: int, seconds: float, work: Path):
    from workloads import GROUPS, Runner

    start = time.perf_counter()
    setup_times: list[float] = []
    runner = Runner(_timed_setup(wl, seed, work / "inputs", setup_times))
    # the other set-ups go to a spare directory and are dropped; they run
    # before the cycles because after them set-up ran up to twice as slow,
    # by an amount that changed from run to run
    for _ in range(SETUP_REPS - 1):
        _timed_setup(wl, seed, work / "setup", setup_times)
    peak_mem_mb = 0.0

    def cycle() -> None:
        nonlocal peak_mem_mb
        runner.cycle()
        if runner.cycles == GROUPS:
            # peak RSS once the set-up groups are done: the same inputs on
            # every run of a seed, however many cycles the host allows
            peak_mem_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    runner.run_cycles(seconds - (time.perf_counter() - start), step=cycle)
    values = runner.samples.rates()
    values.update(
        setup_s=statistics.median(setup_times),
        peak_mem_mb=peak_mem_mb,
        auroc=runner.auroc() or 0.0,
    )
    return runner, values


def per_layer(wl, seed: int, seconds: float, work: Path):
    from tracing import INDEX_BUILD, INDEX_BUILD_CALLERS, Tracer, instrument, instrument_memory
    from workloads import GROUPS, Runner, Samples, setup

    with instrument(Tracer()) as setup_tracer:
        inputs = setup(wl, seed, work)
    start = time.perf_counter()
    runner = Runner(inputs)
    runner.cycle()  # warm-up: first-call costs land in neither half
    untraced, traced, tracer = Samples(), Samples(), Tracer()

    def untraced_then_traced() -> None:
        runner.samples = untraced
        runner.cycle()
        runner.samples = traced
        with instrument(tracer):
            runner.cycle()

    # warm-up and GROUPS // 2 pairs evaluate every set-up group, for the quality metrics
    pairs = runner.run_cycles(seconds - (time.perf_counter() - start),
                              min_steps=GROUPS // 2, step=untraced_then_traced)
    untraced, traced = untraced.rates(), traced.rates()
    # tracemalloc slows the Python-level DBSCAN loop ~10x, so peaks come
    # from scoring and evaluating one held-out scene of a group no cycle used
    fresh = inputs.group(runner.cycles).paths[:1]
    with instrument_memory(Tracer(memory=True)) as mem_tracer:
        runner.score_and_eval(fresh)

    values = tracer.values(per=pairs)
    values.update((k, v) for k, v in mem_tracer.values(per=1).items() if k.endswith(".peak_mb"))
    values.update((k, v) for k, v in setup_tracer.values(per=1).items() if k.startswith("scenes."))
    for stat in ("calls", "s", "self_s"):
        values[f"{INDEX_BUILD}.{stat}"] = sum(
            values[f"{INDEX_BUILD}.{caller}.{stat}"] for caller in INDEX_BUILD_CALLERS)
    quality = runner.quality()
    values.update({
        "perlin.raise_hit_ratio": _ratio(values["perlin.raise_hits"], values["perlin.raise_calls"]),
        "metrics.pred_match_ratio": _ratio(values["metrics.tp_clusters"],
                                           values["metrics.pred_clusters"]),
        "metrics.ap": quality.get("AP", 0.0),
        "metrics.pq": quality.get("PQ", 0.0),
        "trainer.skipped_scans": _ratio(runner.skipped_scans, runner.cycles),
    })
    for name, rate in traced.items():
        values[f"trace.overhead.{name}"] = rate - untraced[name]
    return runner, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lidarood" / "__init__.py").is_file():
        sys.exit(f"bench: no lidarood sources under {SRC}")
    # one BLAS thread, set before numpy loads: steadier timings, and the
    # matrices are only (points x 4..32)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import spec
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    measure, specs = ((per_layer, spec.PER_LAYER) if args.trace
                      else (end_to_end, [m[:3] for m in spec.END_TO_END]))
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        runner, values = measure(wl, args.seed, args.seconds, Path(tmp))

    correct = runner.failed == 0 and runner.auroc() is not None
    for name, unit, better in specs:
        print(f"{name:45s} {values[name]:>16.6f} {unit:6s} ({better} is better)")
    print(f"attempted {runner.attempted}, failed {runner.failed}, "
          f"skipped scans {runner.skipped_scans}, cycles {runner.cycles}, correct {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
