"""Per-point anomaly scores and their prior-reweighted forms.

All scores share one orientation contract: larger = more out-of-distribution.
For extended (2K-channel) logit fields, ENTROPY / ENERGY / MAXLOGIT operate
on the positive (inlier) half of the channels only; EXTENDED_ENERGY is the
log-ratio of the full-channel partition sum to the positive-channel sum and
refuses non-extended fields. Scores and their gradients read the softmax
reductions cached on the field (``LogitField.softmax`` /
``inlier_softmax``), so a score, its gradient and the cross-entropy of one
field take the row maxima and the log of the row exp-sums once per channel
group.

The reweighted form multiplies a static score by the learned per-point
weight w >= 1 from :mod:`lidarood.priornet`; with a zero weight head the
reweighted score equals the static score bitwise.
"""

from __future__ import annotations

import enum

import numpy as np

from .core import ContractError, LogitField, ScoreField

__all__ = [
    "ScoreMethod",
    "entropy_score", "energy_score", "extended_energy_score", "maxlogit_score",
    "static_score", "static_score_grad", "reweighted_score", "classify",
]


class ScoreMethod(enum.Enum):
    ENTROPY = "entropy"
    ENERGY = "energy"
    EXTENDED_ENERGY = "ee"
    MAXLOGIT = "maxlogit"

    @property
    def requires_extended(self) -> bool:
        return self is ScoreMethod.EXTENDED_ENERGY

    @classmethod
    def parse(cls, name: str) -> "ScoreMethod":
        for m in cls:
            if m.value == name or m.name.lower() == name.lower():
                return m
        raise ContractError(f"unknown score method {name!r}")


def entropy_score(field: LogitField) -> np.ndarray:
    """Shannon entropy (natural log) of the inlier-channel softmax,
    in [0, ln K]."""
    return field.inlier_softmax.entropy.copy()  # writable, like every other score


def energy_score(field: LogitField) -> np.ndarray:
    """Negative log-sum-exp of the inlier-channel logits."""
    return -field.inlier_softmax.lse


def _require_extended(field: LogitField) -> None:
    if not field.class_spec.extended:
        raise ContractError("extended energy requires a 2K-channel logit field")


def extended_energy_score(field: LogitField) -> np.ndarray:
    """log(sum exp over all 2K channels / sum exp over the positive K).

    Always >= 0; grows as the negative channels dominate.
    """
    _require_extended(field)
    return field.softmax.lse - field.inlier_softmax.lse


def maxlogit_score(field: LogitField) -> np.ndarray:
    """Negative maximum inlier-channel logit."""
    return -field.inlier_softmax.max


_DISPATCH = {
    ScoreMethod.ENTROPY: entropy_score,
    ScoreMethod.ENERGY: energy_score,
    ScoreMethod.EXTENDED_ENERGY: extended_energy_score,
    ScoreMethod.MAXLOGIT: maxlogit_score,
}


def static_score(field: LogitField, method: ScoreMethod) -> np.ndarray:
    return _DISPATCH[method](field)


def static_score_grad(field: LogitField, method: ScoreMethod) -> np.ndarray:
    """d(score_i)/d(logit_i, :) for every point, shape (M, C).

    Each score is a per-point scalar, so the Jacobian is row-diagonal and is
    returned as one gradient row per point.
    """
    values = field.values
    k = field.class_spec.num_classes
    pos = field.inlier_softmax
    grad = np.zeros_like(values)

    if method is ScoreMethod.ENTROPY:
        logp = pos.logp()
        grad[:, :k] = np.exp(logp) * (-pos.entropy[:, None] - logp)
    elif method is ScoreMethod.ENERGY:
        grad[:, :k] = -pos.p()
    elif method is ScoreMethod.EXTENDED_ENERGY:
        _require_extended(field)
        grad = field.softmax.p()
        grad[:, :k] -= pos.p()
    elif method is ScoreMethod.MAXLOGIT:
        rows = np.arange(values.shape[0])
        grad[rows, values[:, :k].argmax(axis=1)] = -1.0
    else:  # pragma: no cover
        raise ContractError(f"unknown method {method}")
    return grad


def reweighted_score(field: LogitField, method: ScoreMethod, params) -> ScoreField:
    """Static score times the learned per-point prior weight w >= 1.

    ``params`` is a :class:`lidarood.priornet.PriorParams`; with its weight
    head at zero this reduces to the static score exactly.
    """
    from .priornet import prior_weight

    base = static_score(field, method)
    weights, _ = prior_weight(field, params)
    return ScoreField(scores=base * weights)


def classify(scores: ScoreField, gamma: float) -> np.ndarray:
    """Boolean OOD decision per point: True iff score > gamma (strict)."""
    if np.isnan(gamma):
        raise ContractError("gamma must not be NaN")
    return scores.scores > gamma
