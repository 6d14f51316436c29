"""Per-layer tracing of lidarood, installed from outside the package.

A :class:`Tracer` replaces public functions and methods at the module or
class attribute where their callers look them up, and restores them on exit.
Every wrapped call adds to an aggregated record (calls, inclusive time, self
time, and with ``memory=True`` the tracemalloc peak above the level at entry),
so per-point calls such as ``GridIndex.query_ball`` cost one counter update,
not one span each. Self time is inclusive time minus the time of wrapped
calls made inside it.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

from lidarood import core, losses, metrics, neighbors, perlin, priornet, scenes, scoring, trainer

_MB = 1024.0 * 1024.0


@dataclass
class Stat:
    calls: int = 0
    ns: int = 0
    self_ns: int = 0
    peak_bytes: int = 0


@dataclass
class _Frame:
    name: str
    start_ns: int
    child_ns: int = 0
    mem_at_entry: int = 0
    mem_peak: int = 0


class Tracer:
    """Context manager that wraps attributes on entry and restores them on exit."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[_Frame] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        if self.memory:
            tracemalloc.start()
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        if self.memory:
            tracemalloc.stop()

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Record calls of ``owner.attr`` under ``name``.

        ``name`` is a string or a callable of the tracer that picks the
        record at call time. ``after(tracer, args, result)`` runs after each
        call that returned, to add counters.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(name, str):
            self.stats.setdefault(name, Stat())  # report never-called functions as zero
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = tracer._enter(name if isinstance(name, str) else name(tracer))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(tracer, args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def caller(self, names: dict[str, str], default: str = "other") -> str:
        """Label of the innermost active frame whose record is in ``names``."""
        for frame in reversed(self._stack):
            if frame.name in names:
                return names[frame.name]
        return default

    def _enter(self, name: str) -> _Frame:
        frame = _Frame(name, 0)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent.mem_peak = max(parent.mem_peak, peak)
            tracemalloc.reset_peak()
            frame.mem_at_entry = frame.mem_peak = current
        self._stack.append(frame)
        frame.start_ns = time.perf_counter_ns()
        return frame

    def _exit(self, frame: _Frame) -> None:
        elapsed = time.perf_counter_ns() - frame.start_ns
        self._stack.pop()
        stat = self.stats[frame.name]
        stat.calls += 1
        stat.ns += elapsed
        stat.self_ns += elapsed - frame.child_ns
        if self._stack:
            self._stack[-1].child_ns += elapsed
        if self.memory:
            top = max(frame.mem_peak, tracemalloc.get_traced_memory()[1])
            stat.peak_bytes = max(stat.peak_bytes, top - frame.mem_at_entry)
            if self._stack:
                parent = self._stack[-1]
                parent.mem_peak = max(parent.mem_peak, top)

    def values(self, per: int) -> dict[str, float]:
        """Flat ``<record>.<stat>`` values, times and counts divided by ``per``."""
        out: dict[str, float] = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls / per
            out[f"{name}.s"] = st.ns * 1e-9 / per
            out[f"{name}.self_s"] = st.self_ns * 1e-9 / per
            out[f"{name}.peak_mb"] = st.peak_bytes / _MB
        for name, value in self.counters.items():
            out[name] = value / per
        return out


# --------------------------------------------------------------------------
# the wrap table: one record per layer function, named <module>.<function>
# --------------------------------------------------------------------------

_INDEX_CALLERS = {
    "trainer.extract_features": "features",
    "perlin.perlin_raise": "raise",
    "cluster.dbscan": "dbscan",
}
INDEX_BUILD = "neighbors.GridIndex.build"
INDEX_BUILD_CALLERS = tuple(_INDEX_CALLERS.values()) + ("other",)


def _index_build_name(tracer: Tracer) -> str:
    return f"{INDEX_BUILD}.{tracer.caller(_INDEX_CALLERS)}"


def _count_raise(tracer: Tracer, args, result) -> None:
    tracer.counters["perlin.raise_calls"] += 1
    tracer.counters["perlin.raise_hits"] += result[2].raised_count > 0


def _count_dbscan(tracer: Tracer, args, result) -> None:
    tracer.counters["cluster.dbscan.points"] += len(args[0])


def _count_eval_dbscan(tracer: Tracer, args, result) -> None:
    _count_dbscan(tracer, args, result)
    tracer.counters["metrics.flagged_points"] += len(args[0])


def _count_match(tracer: Tracer, args, result) -> None:
    tracer.counters["metrics.pred_clusters"] += len(args[0])
    tracer.counters["metrics.tp_clusters"] += len(result.tp)


_COUNTERS = ("perlin.raise_calls", "perlin.raise_hits", "cluster.dbscan.points",
             "metrics.flagged_points", "metrics.pred_clusters", "metrics.tp_clusters")


def instrument(tracer: Tracer) -> Tracer:
    """Wrap every traced lidarood function; returns the tracer."""
    for counter in _COUNTERS:
        tracer.counters.setdefault(counter, 0.0)
    w = tracer.wrap
    w(scenes, "generate_scene", "scenes.generate_scene")
    w(scenes, "inject_eval_anomaly", "scenes.inject_eval_anomaly")
    for fn in ("load_point_cloud", "load_labels", "load_scores",
               "save_point_cloud", "save_labels", "save_scores"):
        w(core, fn, "core.io")

    w(trainer, "train", "trainer.train")
    w(trainer, "extract_features", "trainer.extract_features")
    w(trainer, "forward", "trainer.forward")
    w(trainer, "backbone_backward", "trainer.backbone_backward")
    w(trainer._Adam, "step", "trainer.adam_step")
    w(trainer, "perlin_raise", "perlin.perlin_raise", after=_count_raise)
    w(trainer, "total_loss", "losses.total_loss")

    w(losses, "ce_loss", "losses.ce_loss")
    w(losses, "aux_logistic_loss", "losses.aux_logistic_loss")
    w(losses, "void_soft_loss", "losses.void_soft_loss")
    w(losses, "static_score", "scoring.static_score")
    w(losses, "static_score_grad", "scoring.static_score_grad")
    w(losses, "prior_weight", "priornet.prior_weight")
    w(losses, "prior_backward", "priornet.prior_backward")

    w(scoring, "reweighted_score", "scoring.reweighted_score")
    w(scoring, "static_score", "scoring.static_score")
    w(priornet, "prior_weight", "priornet.prior_weight")  # reweighted_score imports it per call

    w(perlin, "dbscan", "cluster.dbscan", after=_count_dbscan)
    w(metrics, "dbscan", "cluster.dbscan", after=_count_eval_dbscan)
    for caller in INDEX_BUILD_CALLERS:
        tracer.stats.setdefault(f"{INDEX_BUILD}.{caller}", Stat())
    w(neighbors.GridIndex, "__init__", _index_build_name)
    w(neighbors.GridIndex, "ball_stats", "neighbors.ball_stats")
    w(neighbors.GridIndex, "query_ball", "neighbors.query_ball")

    w(metrics, "evaluate_scenes", "metrics.evaluate_scenes")
    for fn in ("auroc", "fpr_at_95_tpr", "average_precision"):
        w(metrics, fn, "metrics.point_metrics")
    w(metrics, "match_instances", "metrics.match_instances", after=_count_match)
    return tracer


def instrument_memory(tracer: Tracer) -> Tracer:
    """Wrap only the functions whose tracemalloc peaks are reported: a
    memory tracer reads tracemalloc on every wrapped call, which per-point
    wrappers would make many times slower than the work."""
    w = tracer.wrap
    w(trainer, "extract_features", "trainer.extract_features")
    w(neighbors.GridIndex, "ball_stats", "neighbors.ball_stats")
    w(perlin, "dbscan", "cluster.dbscan")
    w(metrics, "dbscan", "cluster.dbscan")
    w(metrics, "evaluate_scenes", "metrics.evaluate_scenes")
    return tracer
