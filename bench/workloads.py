"""Benchmark workloads: seeded inputs and the repeated unit of work (a cycle).

Every cycle works on a group of its own: a training set and held-out scenes
with primitive anomalies, written as ``.bin``/``.label`` files. Set-up makes
the first GROUPS groups; a cycle past them makes its group the same way
before it starts its clocks. Group ``g`` comes from the workload seed and
``g`` alone, so a run never times the same input twice and no cache of
features or indexes across calls can be timed warm:

* train: ``trainer.train`` on the group's training set (the acceptance
  suite's directional-experiment configuration: extended energy, prior on,
  lr 1e-3, raise_per_scan 2) with the group's training seed;
* score: the ``lidarood score`` sequence per held-out scene (load, features,
  forward, prior-reweighted score, save) with the committed checkpoint
  bench/model.ckpt, so a change to training arithmetic cannot move what
  score and eval see;
* eval: the ``lidarood eval --gamma`` sequence per held-out scene (load,
  ``evaluate_scenes`` with eps 0.5 and min_pts 5), with gamma set to flag
  FLAG_SHARE of the group's points. DBSCAN's load is then a property of the
  workload; a threshold calibrated at 95 % TPR on a few anomalies flags
  8-33 % of the points depending on the seed.

Every timed unit (a train() call, a scored scene, an evaluated scene) is
timed with a :class:`HostClock`, on the reference host. Layer functions are
called through their module attributes so a :class:`tracing.Tracer` sees
them.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lidarood import core, metrics, scenes, scoring, trainer

BENCH_DIR = Path(__file__).resolve().parent
CHECKPOINT = BENCH_DIR / "model.ckpt"

METHOD = scoring.ScoreMethod.EXTENDED_ENERGY
TRAIN_SPEC = scenes.default_class_spec(extended=True)
EVAL_SPEC = scenes.default_class_spec()
OOD_ROLES = (core.Role.AUX_OOD, core.Role.REAL_OOD)
GROUPS = 4          # groups made in set-up; every run evaluates them, for the quality metrics
ANOMALIES = 2       # primitive anomalies per held-out scene
FLAG_SHARE = 0.21   # share of points above gamma, as at 95 % TPR on typical 20k scenes
DBSCAN_EPS = 0.5
DBSCAN_MIN_PTS = 5

# The host reference: fixed work, timed on either side of every timed unit.
# The shared host this benchmark runs on slows every process on it by up to
# half, in stretches of seconds to minutes; a unit's time and the reference
# around it slow together, so each time is scaled to a host on which the
# reference takes REFERENCE_S. The reference has four parts of ~4 ms each,
# one per kind of work the program does: an interpreter loop (DBSCAN's
# queue), a sort of an array that fits the L2 cache (compiled numpy),
# many numpy calls on small arrays (a training step on 3k points) and
# passes over a 4 MB array (features on 20k points). Each part alone tracked
# some units and missed others; combined, they helped on every kind.
_RNG = np.random.default_rng(0)
_REFERENCE_SORTED = _RNG.random(50_000)
_REFERENCE_SMALL = _RNG.random(1_000)
_REFERENCE_LARGE = _RNG.random(500_000)
REFERENCE_S = 0.015  # the reference's time in a fast stretch of the tuning host
REFERENCE_REUSE_S = 0.05  # a reference taken at most this long before a unit starts serves it


def reference_s() -> float:
    """Wall time of the host reference now."""
    start = time.perf_counter()
    total = 0
    for k in range(50_000):
        total += k * k
    for _ in range(11):
        np.sort(_REFERENCE_SORTED)
    small = _REFERENCE_SMALL
    for _ in range(750):
        small = np.sqrt(small * small + 1.0)
    for _ in range(9):
        _REFERENCE_LARGE.sum()
        np.multiply(_REFERENCE_LARGE, 1.0, out=_REFERENCE_LARGE)
    return time.perf_counter() - start


class HostClock:
    """Times units of work on the reference host: a unit's wall time divided
    by how much slower than REFERENCE_S the host reference ran just before
    it started and just after it ended. Back-to-back units share the
    reference between them."""

    def __init__(self):
        self._last: tuple[float, float] | None = None  # (reference time, when it ended)

    def _reference(self) -> float:
        value = reference_s()
        self._last = (value, time.perf_counter())
        return value

    def start(self) -> float:
        if self._last is None or time.perf_counter() - self._last[1] > REFERENCE_REUSE_S:
            self._reference()
        return time.perf_counter()

    def elapsed(self, start: float) -> float:
        end = time.perf_counter()
        before = self._last[0]
        slowdown = (before + self._reference()) / 2 / REFERENCE_S
        return (end - start) / slowdown


@dataclass(frozen=True)
class Workload:
    name: str
    points: int               # inlier points per scene before void and anomalies
    extent: float             # scene half-width in meters
    void_share: float         # unlabeled clutter as a share of ``points``
    train_scenes: int         # scenes per train() call
    train_epochs: int
    eval_scenes: int          # held-out scenes per group
    auroc_of_training: bool   # auroc from the trained model instead of the checkpoint

    def scene_config(self, seed: int) -> scenes.SceneConfig:
        budget = scenes.default_budget(self.points)
        if self.void_share:
            budget[scenes.VOID_ID] = int(self.points * self.void_share)
        return scenes.SceneConfig(seed=seed, extent=self.extent, class_budget=budget)

    def train_config(self, epochs: int | None = None, seed: int = 0) -> trainer.TrainConfig:
        return trainer.TrainConfig(
            lr=1e-3, epochs=epochs or self.train_epochs, seed=seed, method=METHOD,
            use_prior=True, raise_per_scan=2)


TRAIN_3K = Workload(name="train_3k", points=3000, extent=8.0, void_share=0.02,
                    train_scenes=20, train_epochs=3, eval_scenes=16, auroc_of_training=True)
SCORE_EVAL_20K = Workload(name="score_eval_20k", points=20000, extent=12.0, void_share=0.0,
                          train_scenes=1, train_epochs=1, eval_scenes=3,
                          auroc_of_training=False)
WORKLOADS = {w.name: w for w in (TRAIN_3K, SCORE_EVAL_20K)}


@dataclass
class Group:
    """One cycle's inputs."""
    train: list        # (PointCloud, LabelMap) pairs
    train_seed: int
    paths: list[Path]  # held-out .bin files; labels beside them


def make_group(wl: Workload, seed: int, g: int, work: Path) -> Group:
    """Generate group ``g`` of the workload seed; held-out scenes are written as files."""
    rng = np.random.default_rng([seed, g])
    train = [scenes.generate_scene(wl.scene_config(int(rng.integers(2**63))))
             for _ in range(wl.train_scenes)]
    eval_dir = work / "eval"
    eval_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(wl.eval_scenes):
        cfg = wl.scene_config(int(rng.integers(2**63)))
        cloud, labels = scenes.generate_scene(cfg)
        cloud, labels = scenes.inject_eval_anomaly(
            cloud, labels, cfg, seed=int(rng.integers(2**63)), count=ANOMALIES)
        path = eval_dir / f"group{g}_scene_{i:03d}.bin"
        core.save_point_cloud(cloud, path)
        core.save_labels(labels, path.with_suffix(".label"))
        paths.append(path)
    return Group(train=train, train_seed=int(rng.integers(2**31)), paths=paths)


@dataclass
class Inputs:
    wl: Workload
    seed: int
    work: Path
    groups: list[Group]   # the first GROUPS groups
    score_dir: Path
    checkpoint: tuple     # (Backbone, PriorParams)

    def group(self, g: int) -> Group:
        if g < len(self.groups):
            return self.groups[g]
        return make_group(self.wl, self.seed, g, self.work)


def setup(wl: Workload, seed: int, work: Path) -> Inputs:
    """Generate the first GROUPS groups and load the checkpoint."""
    score_dir = work / "scores"
    score_dir.mkdir(parents=True, exist_ok=True)
    return Inputs(wl=wl, seed=seed, work=work,
                  groups=[make_group(wl, seed, g, work) for g in range(GROUPS)],
                  score_dir=score_dir, checkpoint=trainer.load_checkpoint(CHECKPOINT))


@dataclass
class Samples:
    """Rate of each timed unit on the reference host: a train() call, a
    scored scene, an evaluated scene. A workload's rate is the median over its
    units, so a slow stretch that the host reference does not track, or an
    unusually hard input, moves it only if it covers half the run."""
    train_steps_per_s: list[float] = field(default_factory=list)
    score_points_per_s: list[float] = field(default_factory=list)
    eval_points_per_s: list[float] = field(default_factory=list)

    def rates(self) -> dict[str, float]:
        return {name: statistics.median(rates) if rates else 0.0
                for name, rates in vars(self).items()}


class Runner:
    """Runs cycles and keeps operation counts, rate samples and quality.

    An operation is one train step, one scene scored or one scene
    evaluated; a failed check or an exception fails it. Training scans
    skipped for lack of road are counted apart, not as failures.
    """

    def __init__(self, inputs: Inputs):
        self.wl = inputs.wl
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.skipped_scans = 0
        self.cycles = 0
        self.heldout_auroc: float | None = None
        self.results: dict[int, dict] = {}   # eval results of the set-up groups
        self.samples = Samples()
        self.clock = HostClock()

    def _fail(self, ops: int, what: str) -> None:
        print(f"{self.wl.name}: {what}", file=sys.stderr, flush=True)
        self.failed += ops

    def run_cycles(self, seconds: float, min_steps: int = GROUPS, step=None) -> int:
        """Run ``step`` (default: one cycle), at least ``min_steps`` times,
        while the next is expected to end within ``seconds``; returns the
        number run."""
        step = step or self.cycle
        deadline = time.perf_counter() + seconds
        done = 0
        while True:
            start = time.perf_counter()
            step()
            done += 1
            end = time.perf_counter()
            if done >= min_steps and end + (end - start) > deadline:
                return done

    def cycle(self) -> None:
        g = self.cycles
        self.cycles += 1
        group = self.inputs.group(g)
        model = self._train(group)
        results = self.score_and_eval(group.paths)
        if results is not None and g < GROUPS:
            self.results[g] = results
        # after score and eval, so that their clocks see the scenes first
        if self.wl.auroc_of_training and self.heldout_auroc is None and model is not None:
            self.heldout_auroc = self._heldout_auroc(*model, group.paths)

    def score_and_eval(self, paths: list[Path]) -> dict | None:
        """Score and evaluate ``paths`` with the checkpoint; returns the eval
        results, or None if eval failed."""
        self._score(paths)
        return self._eval(paths)

    def _train(self, group: Group):
        steps = self.wl.train_epochs * len(group.train)
        cfg = self.wl.train_config(seed=group.train_seed)
        try:
            start = self.clock.start()
            backbone, params, log = trainer.train(group.train, TRAIN_SPEC, cfg)
            elapsed = self.clock.elapsed(start)
        except Exception:
            self.attempted += steps
            self._fail(steps, "train raised\n" + traceback.format_exc())
            return None
        done = sum(ep.steps for ep in log.epochs)
        self.attempted += done
        self.skipped_scans += len(log.skipped)
        if done + len(log.skipped) != steps or not all(
                math.isfinite(ep.total) for ep in log.epochs if ep.steps):
            self._fail(done, "train: step count or loss check failed")
            return None
        if done:
            self.samples.train_steps_per_s.append(done / elapsed)
        return backbone, params

    def _heldout_auroc(self, backbone, params, paths: list[Path]) -> float | None:
        """Pooled AUROC of a trained model's scores on held-out scenes."""
        n = len(paths)
        self.attempted += n
        try:
            scores, pos = [], []
            for path in paths:
                cloud = core.load_point_cloud(path)
                labels = core.load_labels(path.with_suffix(".label"), EVAL_SPEC)
                logits = trainer.forward(backbone, trainer.extract_features(cloud), TRAIN_SPEC)
                scores.append(scoring.reweighted_score(logits, METHOD, params).scores)
                pos.append(np.isin(labels.role, OOD_ROLES))
            value = metrics.auroc(core.ScoreField(scores=np.concatenate(scores)),
                                  np.concatenate(pos))
        except Exception:
            self._fail(n, "held-out scoring raised\n" + traceback.format_exc())
            return None
        if not 0.0 <= value <= 1.0:
            self._fail(n, f"held-out AUROC {value} outside [0, 1]")
            return None
        return value

    def _score(self, paths: list[Path]) -> None:
        backbone, params = self.inputs.checkpoint
        for bin_path in paths:
            self.attempted += 1
            out = self._score_path(bin_path)
            out.unlink(missing_ok=True)  # a failed scene must not leave older scores
            try:
                start = self.clock.start()
                cloud = core.load_point_cloud(bin_path)
                logits = trainer.forward(backbone, trainer.extract_features(cloud), TRAIN_SPEC)
                scores = scoring.reweighted_score(logits, METHOD, params)
                core.save_scores(scores, out)
                elapsed = self.clock.elapsed(start)
            except Exception:
                self._fail(1, f"score {bin_path.name} raised\n" + traceback.format_exc())
                continue
            if scores.count != cloud.count or not np.all(np.isfinite(scores.scores)):
                self._fail(1, f"score {bin_path.name}: length or finiteness check failed")
                continue
            self.samples.score_points_per_s.append(cloud.count / elapsed)

    def _eval(self, paths: list[Path]) -> dict | None:
        """Evaluate each scene on its own, as ``lidarood eval --gamma`` on
        one scene, with gamma flagging FLAG_SHARE of the group's points;
        returns the metrics averaged over the scenes, or None if one failed."""
        try:
            pooled = np.concatenate([core.load_scores(self._score_path(p)).scores for p in paths])
        except Exception:
            self.attempted += len(paths)
            self._fail(len(paths), "eval: loading the group's scores raised\n"
                       + traceback.format_exc())
            return None
        cfg = metrics.EvalConfig(gamma=float(np.quantile(pooled, 1.0 - FLAG_SHARE)),
                                 dbscan_eps=DBSCAN_EPS, dbscan_min_pts=DBSCAN_MIN_PTS)
        results = []
        for bin_path in paths:
            self.attempted += 1
            try:
                start = self.clock.start()
                cloud = core.load_point_cloud(bin_path)
                labels = core.load_labels(bin_path.with_suffix(".label"), EVAL_SPEC)
                scores = core.load_scores(self._score_path(bin_path))
                if scores.count != cloud.count:
                    raise core.ContractError(f"score length mismatch for {bin_path.name}")
                result = metrics.evaluate_scenes([(cloud, labels, scores)], cfg)
                elapsed = self.clock.elapsed(start)
            except Exception:
                self._fail(1, f"eval {bin_path.name} raised\n" + traceback.format_exc())
                continue
            if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in result.values()):
                self._fail(1, f"eval {bin_path.name}: metric outside [0, 1]: {result}")
                continue
            self.samples.eval_points_per_s.append(cloud.count / elapsed)
            results.append(result)
        if len(results) < len(paths):
            return None
        return {k: statistics.fmean(r[k] for r in results) for k in results[0]}

    def _score_path(self, bin_path: Path) -> Path:
        return self.inputs.score_dir / (bin_path.stem + ".score")

    def quality(self) -> dict[str, float]:
        """Eval metrics of the checkpoint, averaged over the set-up groups."""
        if not self.results:
            return {}
        names = next(iter(self.results.values()))
        return {k: statistics.fmean(r[k] for r in self.results.values()) for k in names}

    def auroc(self) -> float | None:
        """The workload's AUROC: the trained model's on the first group's
        held-out scenes, or the checkpoint's eval AUROC averaged over the
        set-up groups. None unless every set-up group was evaluated."""
        if self.wl.auroc_of_training:
            return self.heldout_auroc
        if len(self.results) < GROUPS:
            return None
        return self.quality()["AUROC"]
