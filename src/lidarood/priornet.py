"""Learnable prior-attention weighting network.

Each logit row f (width C) is projected into a latent embedding
e = f W_p. A learnable prior table psi (one d-vector per logit channel)
provides keys and values for single-head cross-attention against the query
derived from e:

    q = e W_q,  key_j = psi_j W_k,  val_j = psi_j W_v
    a = softmax(q . key / sqrt(d))        (over the C prior rows)
    z = sum_j a_j val_j
    w = ReLU(w_head . [e, z]) + 1

The scalar w >= 1 multiplies a static anomaly score. The weight head is
zero-initialized so a fresh network is exactly the identity reweighting
(w == 1 everywhere). The module also owns the trainable scalar bias b used
by the score-level loss terms.

The backward pass is exact (hand-derived); the ReLU subgradient at 0 is 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (ContractError, FormatError, LogitField, Workspace, read_float32, read_header,
                   to_float32, work_array, write_header)

__all__ = ["PriorParams", "PriorTape", "init_params", "prior_weight", "prior_backward",
           "save_params", "load_params", "zeros_like_params"]

_MAGIC = b"PRW1"
# the workspace slots that hold a tape's (M, .) arrays
_TAPE_SLOTS = ("a", "b", "att")


def _check_dims(c: int, d: int) -> None:
    if c < 2:
        raise ContractError("logit width must be >= 2")
    if d < 1:
        raise ContractError("latent dimension must be >= 1")


@dataclass
class PriorParams:
    """All trainable tensors of the weighting network plus the loss bias b.

    The prior table has one row per logit channel (C rows), so extended
    2K-channel models get a prior row for every channel. ``prior_weight``
    tapes a copy of every tensor and of b, so a later edit or rebinding of
    them does not reach the backward pass of an earlier forward pass.
    """

    w_proj: np.ndarray   # (C, d)
    psi: np.ndarray      # (C, d) prior table
    w_q: np.ndarray      # (d, d)
    w_k: np.ndarray      # (d, d)
    w_v: np.ndarray      # (d, d)
    w_head: np.ndarray   # (2d,)
    b: float = 0.0

    @property
    def logit_width(self) -> int:
        return self.w_proj.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.w_proj.shape[1]

    def validate(self):
        c, d = self.w_proj.shape
        _check_dims(c, d)
        if self.psi.shape != (c, d):
            raise ContractError("prior table must be (C, d)")
        for name in ("w_q", "w_k", "w_v"):
            if getattr(self, name).shape != (d, d):
                raise ContractError(f"{name} must be (d, d)")
        if self.w_head.shape != (2 * d,):
            raise ContractError("weight head must be a 2d vector")
        for name in ("w_proj", "psi", "w_q", "w_k", "w_v", "w_head"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ContractError(f"{name} contains non-finite entries")
        if not np.isfinite(self.b):
            raise ContractError("b must be finite")

    def tensors(self) -> dict[str, np.ndarray]:
        return {"w_proj": self.w_proj, "psi": self.psi, "w_q": self.w_q,
                "w_k": self.w_k, "w_v": self.w_v, "w_head": self.w_head}


@dataclass(frozen=True, eq=False)
class PriorTape:
    """Forward intermediates for one exact backward pass.

    ``params`` is the tape's own copy of the tensors and b, and ``logits``
    a copy of a raw-array input (a ``LogitField``'s values are read-only),
    so the backward pass reads nothing that its caller can change. A tape
    built in a workspace holds views of its buffers and records their fill
    counts; it must not outlive them.
    """

    params: PriorParams
    logits: np.ndarray
    e: np.ndarray       # (M, d)
    q: np.ndarray       # (M, d)
    keys: np.ndarray    # (C, d)
    vals: np.ndarray    # (C, d)
    att: np.ndarray     # (M, C) softmax rows
    z: np.ndarray       # (M, d)
    pre: np.ndarray     # (M,) head pre-activation
    work: Workspace | None = None
    fill: tuple = ()    # the fill counts of its slots when the tape was made


def glorot(rng, shape):
    """A Glorot-uniform (fan_in, fan_out) matrix drawn from ``rng``."""
    a = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-a, a, size=shape)


def init_params(c: int, d: int = 16, seed: int = 0) -> PriorParams:
    """Seeded initialization: Glorot-uniform projections and prior table,
    zero weight head (so w == 1 on any input), zero bias."""
    _check_dims(c, d)
    rng = np.random.default_rng(seed)
    return PriorParams(
        w_proj=glorot(rng, (c, d)),
        psi=glorot(rng, (c, d)),
        w_q=glorot(rng, (d, d)),
        w_k=glorot(rng, (d, d)),
        w_v=glorot(rng, (d, d)),
        w_head=np.zeros(2 * d),
        b=0.0,
    )


def zeros_like_params(params: PriorParams) -> PriorParams:
    return PriorParams(
        w_proj=np.zeros_like(params.w_proj),
        psi=np.zeros_like(params.psi),
        w_q=np.zeros_like(params.w_q),
        w_k=np.zeros_like(params.w_k),
        w_v=np.zeros_like(params.w_v),
        w_head=np.zeros_like(params.w_head),
        b=0.0,
    )


def prior_weight(field_or_values, params: PriorParams, *,
                 work: Workspace | None = None) -> tuple[np.ndarray, PriorTape]:
    """Per-point weights w >= 1 plus the tape needed for the backward pass.

    Accepts a LogitField or a raw (M, C) array of finite values. The tape
    keeps copies of ``params`` and of raw-array logits. With ``work`` the
    tape's (M, .) arrays are views of its buffers (``e`` and ``q`` side by
    side in slot ``a``, ``z`` in ``b``), valid until a later call fills
    them: ``prior_backward`` on the tape, ``forward``, ``backbone_backward``
    or ``prior_weight``.
    """
    params = PriorParams(**{k: t.copy() for k, t in params.tensors().items()}, b=params.b)
    params.validate()
    is_field = isinstance(field_or_values, LogitField)
    values = field_or_values.values if is_field else np.array(field_or_values,
                                                              dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != params.logit_width:
        raise ContractError(
            f"logits must be (M, {params.logit_width}) for these params, got shape {values.shape}")
    if not is_field and not np.all(np.isfinite(values)):  # a field checks its own
        raise ContractError("logits must be finite")
    m, c = values.shape
    d = params.latent_dim

    e = np.matmul(values, params.w_proj, out=work_array(work, "a", m, d, part=0, parts=2))
    q = np.matmul(e, params.w_q, out=work_array(work, "a", m, d, part=1, parts=2))
    keys = params.psi @ params.w_k
    vals = params.psi @ params.w_v

    # scale, shift, exp and normalize in one (M, C) buffer
    att = np.matmul(q, keys.T, out=work_array(work, "att", m, c))
    att /= np.sqrt(d)
    # the row maxima from a channel-major copy, in backward's spent datt
    # buffer: a max over short rows is slow in numpy, and a max is exact in
    # any order (a +-0 tie gives the same exp)
    by_channel = work_array(work, "datt", m, c).reshape(c, m)
    np.copyto(by_channel, att.T)
    att -= by_channel.max(axis=0)[:, None]
    np.exp(att, out=att)
    att /= att.sum(axis=1, keepdims=True)

    z = np.matmul(att, vals, out=work_array(work, "b", m, d))
    pre = e @ params.w_head[:d]
    pre += z @ params.w_head[d:]
    w = np.maximum(pre, 0.0)
    w += 1.0

    tape = PriorTape(params=params, logits=values, e=e, q=q, keys=keys, vals=vals, att=att,
                     z=z, pre=pre, work=work,
                     fill=() if work is None else work.stamp(*_TAPE_SLOTS))
    return w, tape


def prior_backward(tape: PriorTape, grad_w: np.ndarray) -> tuple[PriorParams, np.ndarray]:
    """Exact gradients of sum_i grad_w[i] * w[i] for the taped forward pass.

    Reads nothing but the tape, so edits to the caller's parameters or
    logits after ``prior_weight`` do not change the result. Returns
    (parameter gradients as a PriorParams-shaped container with the b slot
    zero, gradients w.r.t. the input logits). A tape made in a workspace
    serves one call: a later ``forward``, ``backbone_backward`` or
    ``prior_weight`` on its workspace overwrites the tape's buffers, and so
    does this function, with its own arrays. Raises ContractError for such
    a stale tape. For a tape made in a workspace the returned logit
    gradient is a view of its ``datt`` slot, valid until the next call that
    fills that slot.
    """
    params, work = tape.params, tape.work
    if work is not None and work.stamp(*_TAPE_SLOTS) != tape.fill:
        raise ContractError("stale tape: a later call refilled its workspace buffers")
    grad_w = np.asarray(grad_w, dtype=np.float64).reshape(-1)
    if grad_w.shape[0] != tape.pre.shape[0]:
        raise ContractError("grad_w length does not match the taped forward pass")
    m, c = tape.att.shape
    d = params.latent_dim

    dpre = grad_w * (tape.pre > 0.0)         # ReLU subgradient at 0 is 0
    g = zeros_like_params(params)
    g.w_head[:d] = tape.e.T @ dpre
    g.w_head[d:] = tape.z.T @ dpre

    dpre = dpre[:, None]
    # each (M, .) array is spent before a later one takes its buffer (or,
    # without a workspace, its memory): dz takes z's, the softmax-backward
    # product dz's and dq the product's; de takes q's half of slot a and
    # dq @ w_q.T e's; dlogits takes datt's. Each product with dpre has the
    # bits of np.outer.
    dz = np.multiply(dpre, params.w_head[d:], out=work_array(work, "b", m, d))

    datt = np.matmul(dz, tape.vals.T, out=work_array(work, "datt", m, c))
    g_vals = tape.att.T @ dz                  # (C, d)
    del dz

    # softmax backward, row-wise, in datt's buffer
    prod = np.multiply(datt, tape.att, out=work_array(work, "b", m, c))
    dot = prod.sum(axis=1, keepdims=True)
    del prod
    datt -= dot
    datt *= tape.att

    scale = 1.0 / np.sqrt(d)
    dq = np.matmul(datt, tape.keys, out=work_array(work, "b", m, d))
    dq *= scale
    g_keys = datt.T @ tape.q * scale
    del datt

    de = np.multiply(dpre, params.w_head[:d], out=work_array(work, "a", m, d, part=1, parts=2))
    g.w_k[:] = params.psi.T @ g_keys
    g.w_v[:] = params.psi.T @ g_vals
    g.psi[:] = g_keys @ params.w_k.T + g_vals @ params.w_v.T

    g.w_q[:] = tape.e.T @ dq
    de += np.matmul(dq, params.w_q.T, out=work_array(work, "a", m, d, part=0, parts=2))
    del dq

    g.w_proj[:] = tape.logits.T @ de
    dlogits = np.matmul(de, params.w_proj.T, out=work_array(work, "datt", m, c))
    return g, dlogits


# --------------------------------------------------------------------------
# checkpoint container: little-endian, dims header then row-major float32
# matrices in the order (w_proj, psi, w_q, w_k, w_v, w_head, b)
# --------------------------------------------------------------------------

def save_params(params: PriorParams, fh) -> None:
    """Write to an open binary file handle; ContractError, with nothing
    written, if a tensor or b overflows float32."""
    params.validate()
    names = ("w_proj", "psi", "w_q", "w_k", "w_v", "w_head", "b")
    narrowed = [to_float32(getattr(params, name), name) for name in names]
    write_header(fh, _MAGIC, params.logit_width, params.latent_dim)
    for values in narrowed:
        fh.write(values.tobytes())


def load_params(fh) -> PriorParams:
    """Read the container through the end of ``fh``; FormatError if cut short or longer."""
    c, d = read_header(fh, _MAGIC)
    w_proj = read_float32(fh, c, d)
    psi = read_float32(fh, c, d)
    w_q = read_float32(fh, d, d)
    w_k = read_float32(fh, d, d)
    w_v = read_float32(fh, d, d)
    w_head = read_float32(fh, 2 * d)
    b = read_float32(fh)
    if fh.read(1):
        raise FormatError("trailing bytes after the checkpoint")
    params = PriorParams(w_proj=w_proj, psi=psi, w_q=w_q, w_k=w_k, w_v=w_v,
                         w_head=w_head, b=float(b))
    params.validate()
    return params
