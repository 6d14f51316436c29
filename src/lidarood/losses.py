"""Training objective: cross-entropy on inliers, a binary logistic term
separating inliers from synthetic anomalies, and a soft-target hinge on void
points, plus the weighted total with exact gradients.

Score-level terms map the per-point anomaly score S through sigma(S + b)
with a shared trainable bias b. Under the default ID_LOW orientation the
logistic term pushes inlier scores down and synthetic-anomaly scores up,
consistent with the global "larger = more OOD" contract and with the void
hinge; ID_HIGH preserves the opposite (swapped) assignment behind a flag.

Synthetic-anomaly and void points are vastly outnumbered by inliers, so
their per-point loss terms are scaled by ``ood_weight`` (default 10000)
inside the total.

The cross-entropy, the score and the score gradient of one logit field read
the softmax reductions cached on it (``LogitField.softmax`` /
``inlier_softmax``), so ``total_loss`` takes the row maxima and the log of
the row exp-sums once per channel group.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import ClassSpec, ContractError, LabelMap, LogitField, Role, Workspace
from .priornet import PriorParams, prior_backward, prior_weight, zeros_like_params
from .scoring import ScoreMethod, static_score, static_score_grad

__all__ = ["Orientation", "LossConfig", "ce_loss", "aux_logistic_loss",
           "void_soft_loss", "TotalLoss", "total_loss"]


class Orientation(enum.Enum):
    ID_LOW = "id_low"    # inlier scores pushed low, anomaly scores high (default)
    ID_HIGH = "id_high"  # swapped assignment


@dataclass(frozen=True)
class LossConfig:
    """Weights of the objective. beta: soft target of the void hinge.
    ood_weight: scale of the synthetic-anomaly and void terms. orientation:
    which side of the logistic term inliers are pushed to. Cross-entropy has
    no setting: it always spans every channel of the field."""

    beta: float = 0.9
    ood_weight: float = 10000.0
    orientation: Orientation = Orientation.ID_LOW

    def __post_init__(self):
        if not (0.0 <= self.beta <= 1.0):
            raise ContractError("beta must be in [0, 1]")
        if not 0.0 < self.ood_weight < np.inf:
            raise ContractError("ood_weight must be finite and positive")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def ce_loss(field: LogitField, labels: LabelMap, spec: ClassSpec,
            n: int | None = None) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over INLIER-role points, with exact logit gradient.

    The softmax spans every channel of the field (``field.softmax``); for
    extended fields that is all 2K, and the target always lives in the
    positive half. Points of other roles contribute nothing. An inlier point
    whose semantic id is not an inlier class is a contract violation. The
    mean is over ``n`` points (default: the inliers of ``labels``).
    """
    is_inlier = labels.role == Role.INLIER
    inliers = np.flatnonzero(is_inlier)
    if inliers.size == 0:
        return 0.0, np.zeros_like(field.values)
    n = n or inliers.size

    sem = labels.semantic[inliers]
    unknown = ~np.isin(sem, list(spec.inlier_classes))
    if np.any(unknown):
        raise ContractError("inlier-role point carries a non-inlier semantic id")
    targets = spec.class_index()[sem]

    # the gradient is built in the log-softmax's own buffer
    grad = field.softmax.logp()
    loss = float(-(grad[inliers, targets].sum() / n))
    np.exp(grad, out=grad)
    grad[inliers, targets] -= 1.0
    grad /= n
    grad[~is_inlier] = 0.0
    return loss, grad


def aux_logistic_loss(
    scores_in: np.ndarray,
    scores_aux: np.ndarray,
    b: float,
    orientation: Orientation = Orientation.ID_LOW,
    aux_weight: float = 1.0,
    n_in: int | None = None, n_aux: int | None = None,
) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Binary logistic separation of inlier and synthetic-anomaly scores.

    Returns (loss, grad wrt scores_in, grad wrt scores_aux, grad wrt b).
    Either subset may be empty, in which case its term contributes zero.
    Stabilized through softplus identities: -log sigma(x) = softplus(-x).
    The means are over ``n_in`` and ``n_aux`` points (default: the sizes).
    """
    s_in = np.asarray(scores_in, dtype=np.float64).reshape(-1)
    s_aux = np.asarray(scores_aux, dtype=np.float64).reshape(-1)
    n_in, n_aux = n_in or s_in.size, n_aux or s_aux.size
    g_in = np.zeros_like(s_in)
    g_aux = np.zeros_like(s_aux)
    loss = 0.0
    b_grad = 0.0
    # ID_LOW pushes inliers down and anomalies up; ID_HIGH the mirror. A
    # product with +-1.0 is exact, so both orientations share one formula.
    sign = -1.0 if orientation is Orientation.ID_HIGH else 1.0

    if s_in.size:
        x = s_in + b
        loss += float(_softplus(sign * x).sum() / n_in)
        g_in = sign * _sigmoid(sign * x) / n_in
        b_grad += float(g_in.sum())
    if s_aux.size:
        x = s_aux + b
        loss += aux_weight * float(_softplus(-sign * x).sum() / n_aux)
        g_aux = -sign * aux_weight * _sigmoid(-sign * x) / n_aux
        b_grad += float(g_aux.sum())
    return loss, g_in, g_aux, b_grad


def void_soft_loss(
    scores_in: np.ndarray,
    scores_void: np.ndarray,
    b: float,
    beta: float = 0.9,
    void_weight: float = 1.0,
    n_in: int | None = None, n_void: int | None = None,
) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Soft exposure on void points: push sigma(S + b) of void points up to
    the soft target beta (hinge), and inlier sigma toward zero.

    Hinge subgradient at the kink is 0. Returns (loss, grad_in, grad_void,
    grad_b); empty subsets contribute zero. The means are over ``n_in`` and
    ``n_void`` points (default: the sizes).
    """
    s_in = np.asarray(scores_in, dtype=np.float64).reshape(-1)
    s_void = np.asarray(scores_void, dtype=np.float64).reshape(-1)
    n_in, n_void = n_in or s_in.size, n_void or s_void.size
    g_in = np.zeros_like(s_in)
    g_void = np.zeros_like(s_void)
    loss = 0.0
    b_grad = 0.0

    if s_in.size:
        sig = _sigmoid(s_in + b)
        loss += float(sig.sum() / n_in)
        g_in = sig * (1.0 - sig) / n_in
        b_grad += float(g_in.sum())
    if s_void.size:
        sig = _sigmoid(s_void + b)
        slack = beta - sig
        active = slack > 0.0
        loss += void_weight * float(np.maximum(slack, 0.0).sum() / n_void)
        g_void = np.where(active, -void_weight * sig * (1.0 - sig) / n_void, 0.0)
        b_grad += float(g_void.sum())
    return loss, g_in, g_void, b_grad


@dataclass(frozen=True, eq=False)
class TotalLoss:
    total: float
    ce: float
    aux: float
    void: float
    dlogits: np.ndarray           # (M, C)
    prior_grads: PriorParams      # gradients; .b carries the bias gradient
    live: int                     # points with a positive prior pre-activation


def total_loss(
    field: LogitField,
    labels: LabelMap,
    spec: ClassSpec,
    method: ScoreMethod,
    params: PriorParams,
    cfg: LossConfig,
    use_prior: bool = True,
    *,
    work: Workspace | None = None,
    counts: tuple[int, int, int] | None = None,
) -> TotalLoss:
    """Cross-entropy + logistic separation + void hinge, with all gradients
    composed through the active scoring method (and the prior weighting
    network when ``use_prior``) by the chain rule.

    ``params`` always supplies the trainable bias b; its attention tensors
    participate only when ``use_prior`` is set. The gradients are those of
    ``params`` as they were at the call: the prior network's tape keeps its
    own copy. ``work`` is passed on to the prior network's forward pass,
    whose tape carries it to the backward pass, and to the static score
    gradient. The terms are means over ``counts`` INLIER, AUX_OOD and VOID
    points (default: those of ``labels``); a scan's row chunk passes the scan's.
    """
    n_in, n_aux, n_void = counts or (None, None, None)
    ce, dlogits = ce_loss(field, labels, spec, n=n_in)

    base = static_score(field, method)
    if use_prior:
        weights, tape = prior_weight(field, params, work=work)
        scores = base * weights
    else:
        scores = base

    in_mask = labels.role == Role.INLIER
    aux_mask = labels.role == Role.AUX_OOD
    void_mask = labels.role == Role.VOID

    aux, g_in_a, g_aux, b_grad_a = aux_logistic_loss(
        scores[in_mask], scores[aux_mask], params.b,
        orientation=cfg.orientation, aux_weight=cfg.ood_weight, n_in=n_in, n_aux=n_aux,
    )
    void, g_in_v, g_void, b_grad_v = void_soft_loss(
        scores[in_mask], scores[void_mask], params.b,
        beta=cfg.beta, void_weight=cfg.ood_weight, n_in=n_in, n_void=n_void,
    )

    g_scores = np.zeros_like(scores)
    g_scores[in_mask] = g_in_a + g_in_v
    g_scores[aux_mask] = g_aux
    g_scores[void_mask] = g_void

    # chain rule through scores = base * w, accumulated into the
    # cross-entropy gradient (w == 1 without the prior, a product that is
    # exact); the score gradient is made here, after the prior network's
    # forward pass is done with the workspace buffer it fills, and spent
    # before prior_backward fills it again
    base_grad = static_score_grad(field, method, work=work)
    base_grad *= (g_scores * weights if use_prior else g_scores)[:, None]
    dlogits += base_grad
    del base_grad
    if use_prior:
        prior_grads, dlogits_prior = prior_backward(tape, g_scores * base)
        dlogits += dlogits_prior
    else:
        prior_grads = zeros_like_params(params)
    prior_grads.b = b_grad_a + b_grad_v

    return TotalLoss(
        total=ce + aux + void, ce=ce, aux=aux, void=void,
        dlogits=dlogits, prior_grads=prior_grads,
        live=int(np.count_nonzero(tape.pre > 0.0)) if use_prior else 0,
    )
