"""The training step against its allocating reference expressions, bitwise.

Each ``ref_*`` function below is the straightforward expression of a step
function, with a fresh array per operation. The step functions fill their
arrays in place, which must change no bit. The float32
checkpoint hash cannot show that (float32 narrowing hides float64 drift),
so every float64 result is compared with ``tobytes()``, on inputs that hold
ReLU ties (a pre-activation of exactly 0), exact zeros and -0.0.
"""

import weakref

import numpy as np
import pytest

from lidarood import trainer
from lidarood.core import (ClassSpec, ContractError, LabelMap, LogitField, Role, Workspace,
                           row_chunks)
from lidarood.losses import (
    LossConfig, Orientation, aux_logistic_loss, total_loss, void_soft_loss,
)
from lidarood.priornet import PriorParams, init_params, prior_backward, prior_weight
from lidarood.scenes import SceneConfig, default_budget, default_class_spec, generate_scene
from lidarood.scoring import ScoreMethod, static_score, static_score_grad
from lidarood.trainer import (
    _ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS, Backbone, _Adam, backbone_backward, forward,
    init_backbone,
)


def assert_same_bytes(got: dict, want: dict):
    assert got.keys() == want.keys()
    for name, value in want.items():
        got_value = np.asarray(got[name])
        assert got_value.shape == np.shape(value), name
        assert got_value.tobytes() == np.asarray(value).tobytes(), name


def signed_zeros(a: np.ndarray, rng) -> np.ndarray:
    """``a`` with whole rows of +0.0 and -0.0 and scattered -0.0 entries."""
    a = a.copy()
    a[::7] = 0.0
    a[3::7] = -0.0
    a[rng.random(a.shape) < 0.05] = -0.0
    return a


# --------------------------------------------------------------------------
# backbone
# --------------------------------------------------------------------------

def ref_forward(bb: Backbone, features):
    x = np.asarray(features, dtype=np.float64) / bb.feature_scale
    h = np.maximum(x @ bb.w1 + bb.b1, 0.0)
    return h @ bb.w2 + bb.b2


def ref_backbone_backward(bb: Backbone, features, dlogits):
    x = np.asarray(features, dtype=np.float64) / bb.feature_scale
    pre = x @ bb.w1 + bb.b1
    h = np.maximum(pre, 0.0)
    dh = (dlogits @ bb.w2.T) * (pre > 0.0)
    return {"w1": x.T @ dh, "b1": dh.sum(axis=0), "w2": h.T @ dlogits,
            "b2": dlogits.sum(axis=0)}


def backbone_case(ties: bool, seed: int, m: int = 301, spec: ClassSpec | None = None):
    """A backbone, features and dlogits. With ``ties`` the first layer and
    the features are small integers at unit scale, so many pre-activations
    are exactly 0."""
    spec = spec or ClassSpec(inlier_classes=(1, 2, 3, 4, 5, 6, 7), void_id=0, ood_id=9,
                             ignore_id=8, extended=True)
    rng = np.random.default_rng(seed)
    hidden, c = 9, spec.logit_width
    if ties:
        bb = Backbone(w1=rng.integers(-2, 3, size=(4, hidden)).astype(float),
                      b1=rng.integers(-2, 3, size=hidden).astype(float),
                      w2=rng.normal(size=(hidden, c)), b2=rng.normal(size=c),
                      feature_scale=np.ones(4))
        bb.b1[0] = -0.0
        features = rng.integers(-2, 3, size=(m, 4)).astype(float)
    else:
        bb = init_backbone(hidden, c, seed=seed)
        bb.b1 = rng.normal(scale=0.1, size=hidden)
        features = rng.normal(size=(m, 4)) * bb.feature_scale
    features = signed_zeros(features, rng)
    dlogits = signed_zeros(rng.normal(size=(m, c)), rng)
    return spec, bb, features, dlogits


@pytest.mark.parametrize("ties", [True, False])
def test_backbone_matches_reference(ties):
    spec, bb, features, dlogits = backbone_case(ties, seed=21)
    pre = features / bb.feature_scale @ bb.w1 + bb.b1
    if ties:
        assert np.count_nonzero(pre == 0.0) > 100 and np.any(pre > 0.0)

    logits = forward(bb, features, spec).values
    assert logits.tobytes() == ref_forward(bb, features).tobytes()
    assert_same_bytes(backbone_backward(bb, features, dlogits),
                      ref_backbone_backward(bb, features, dlogits))


# --------------------------------------------------------------------------
# prior network
# --------------------------------------------------------------------------

def ref_prior_weight(values, params: PriorParams):
    d = params.latent_dim
    e = values @ params.w_proj
    q = e @ params.w_q
    keys = params.psi @ params.w_k
    vals = params.psi @ params.w_v
    att_logits = (q @ keys.T) / np.sqrt(d)
    att_logits -= att_logits.max(axis=1, keepdims=True)
    att = np.exp(att_logits)
    att /= att.sum(axis=1, keepdims=True)
    z = att @ vals
    pre = e @ params.w_head[:d] + z @ params.w_head[d:]
    tape = {"e": e, "q": q, "keys": keys, "vals": vals, "att": att, "z": z, "pre": pre}
    return np.maximum(pre, 0.0) + 1.0, tape


def ref_prior_backward(values, params: PriorParams, tape: dict, grad_w):
    d = params.latent_dim
    dpre = grad_w * (tape["pre"] > 0.0)
    g = {"w_head": np.concatenate([tape["e"].T @ dpre, tape["z"].T @ dpre])}
    de = np.outer(dpre, params.w_head[:d])
    dz = np.outer(dpre, params.w_head[d:])
    datt = dz @ tape["vals"].T
    g_vals = tape["att"].T @ dz
    dot = (datt * tape["att"]).sum(axis=1, keepdims=True)
    dlogits_att = tape["att"] * (datt - dot)
    scale = 1.0 / np.sqrt(d)
    dq = dlogits_att @ tape["keys"] * scale
    g_keys = dlogits_att.T @ tape["q"] * scale
    g["w_k"] = params.psi.T @ g_keys
    g["w_v"] = params.psi.T @ g_vals
    g["psi"] = g_keys @ params.w_k.T + g_vals @ params.w_v.T
    de += dq @ params.w_q.T
    g["w_q"] = tape["e"].T @ dq
    g["w_proj"] = values.T @ de
    return g, de @ params.w_proj.T


def prior_case(ties: bool, seed: int, m: int = 257, c: int = 14, d: int = 6):
    """Logits, parameters and grad_w. With ``ties`` the logits, the
    projection and the head are small integers and the head's z half is
    zero, so many head pre-activations are exactly 0."""
    rng = np.random.default_rng(seed)
    params = init_params(c, d, seed=seed)
    if ties:
        params.w_proj = rng.integers(-1, 2, size=(c, d)).astype(float)
        params.w_head = np.r_[rng.integers(-2, 3, size=d), np.zeros(d)].astype(float)
        values = rng.integers(-2, 3, size=(m, c)).astype(float)
    else:
        params.w_head = rng.normal(size=2 * d)
        values = rng.normal(scale=3.0, size=(m, c))
    values = signed_zeros(values, rng)
    grad_w = signed_zeros(rng.normal(size=(m, 1)), rng)[:, 0]
    return values, params, grad_w


@pytest.mark.parametrize("ties", [True, False])
def test_prior_matches_reference(ties):
    values, params, grad_w = prior_case(ties, seed=22)
    w, tape = prior_weight(values, params)
    want_w, want_tape = ref_prior_weight(values, params)
    if ties:
        assert np.count_nonzero(want_tape["pre"] == 0.0) > 50 and np.any(want_tape["pre"] > 0)
    assert w.tobytes() == want_w.tobytes()
    assert_same_bytes({name: getattr(tape, name) for name in want_tape}, want_tape)

    grads, dlogits = prior_backward(tape, grad_w)
    want_grads, want_dlogits = ref_prior_backward(values, params, want_tape, grad_w)
    assert_same_bytes(grads.tensors(), want_grads)
    assert dlogits.tobytes() == want_dlogits.tobytes()


# --------------------------------------------------------------------------
# scores and loss
# --------------------------------------------------------------------------

class RefSoftmax:
    """Row-wise softmax parts of ``block``, one fresh array per operation."""

    def __init__(self, block):
        self.block = block
        self.max = np.ascontiguousarray(block.T).max(axis=0)
        self.log_sum = np.log(np.exp(self.block - self.max[:, None]).sum(axis=1))
        logp = self.logp()
        self.entropy = -(np.exp(logp) * logp).sum(axis=1)

    def logp(self):
        return (self.block - self.max[:, None]) - self.log_sum[:, None]

    def p(self):
        return np.exp(self.logp())


def ref_static_score_grad(values, k: int, method: ScoreMethod):
    pos = RefSoftmax(values[:, :k])
    grad = np.zeros_like(values)
    if method is ScoreMethod.ENTROPY:
        logp = pos.logp()
        grad[:, :k] = np.exp(logp) * (-pos.entropy[:, None] - logp)
    elif method is ScoreMethod.ENERGY:
        grad[:, :k] = -pos.p()
    elif method is ScoreMethod.EXTENDED_ENERGY:
        grad = RefSoftmax(values).p()
        grad[:, :k] -= pos.p()
    else:
        grad[np.arange(values.shape[0]), values[:, :k].argmax(axis=1)] = -1.0
    return grad


def ref_total_loss(values, labels, spec, method, params, cfg, use_prior, counts=None):
    """The three-term objective with each gradient in a fresh array; the
    score and the two score-level terms are the library's own. ``counts``
    are the normalizers of a scan that ``values`` is a row chunk of."""
    inliers = np.flatnonzero(labels.role == Role.INLIER)
    n_in, n_aux, n_void = counts or (None, None, None)
    targets = spec.class_index()[labels.semantic[inliers]]
    dlogits = np.zeros_like(values)
    logp = RefSoftmax(values).logp()
    if counts is None:
        ce = float(-logp[inliers, targets].mean())
    else:  # a chunk's share of the scan's mean
        ce = float(-(logp[inliers, targets].sum() / n_in)) if inliers.size else 0.0
    p = np.exp(logp[inliers])
    p[np.arange(inliers.size), targets] -= 1.0
    dlogits[inliers] = p / (inliers.size if counts is None else n_in)

    base = static_score(LogitField(values=values, class_spec=spec), method)
    base_grad = ref_static_score_grad(values, spec.num_classes, method)
    if use_prior:
        weights, tape = ref_prior_weight(values, params)
    else:
        weights = np.ones_like(base)
    scores = base * weights
    in_mask = labels.role == Role.INLIER
    aux_mask = labels.role == Role.AUX_OOD
    void_mask = labels.role == Role.VOID
    aux, g_in_a, g_aux, b_a = aux_logistic_loss(
        scores[in_mask], scores[aux_mask], params.b, orientation=cfg.orientation,
        aux_weight=cfg.ood_weight, n_in=n_in, n_aux=n_aux)
    void, g_in_v, g_void, b_v = void_soft_loss(
        scores[in_mask], scores[void_mask], params.b, beta=cfg.beta,
        void_weight=cfg.ood_weight, n_in=n_in, n_void=n_void)
    g_scores = np.zeros_like(scores)
    g_scores[in_mask] = g_in_a + g_in_v
    g_scores[aux_mask] = g_aux
    g_scores[void_mask] = g_void
    dlogits = dlogits + (g_scores * weights)[:, None] * base_grad
    prior_grads = {name: np.zeros_like(x) for name, x in params.tensors().items()}
    if use_prior:
        prior_grads, dlogits_prior = ref_prior_backward(values, params, tape, g_scores * base)
        dlogits = dlogits + dlogits_prior
    return (ce + aux + void, ce, aux, void, b_a + b_v), dlogits, prior_grads


def loss_case(extended: bool, seed: int, m: int = 301):
    spec = ClassSpec(inlier_classes=(1, 2, 3), void_id=0, ood_id=9, ignore_id=8,
                     extended=extended)
    rng = np.random.default_rng(seed)
    values = signed_zeros(rng.normal(scale=4.0, size=(m, spec.logit_width)), rng)
    values[5::11] = values[5::11, :1]                    # rows of equal logits
    values[6::11, 1] = values[6::11].max(axis=1)         # tied row maxima
    roles = rng.choice([Role.INLIER, Role.AUX_OOD, Role.VOID], size=m, p=[0.8, 0.1, 0.1])
    sem = np.where(roles == Role.INLIER, rng.integers(1, 4, size=m),
                   np.where(roles == Role.AUX_OOD, 9, 0))
    labels = LabelMap(semantic=sem, instance=np.zeros(m, dtype=np.int64), role=roles)
    return spec, values, labels


@pytest.mark.parametrize("method", list(ScoreMethod))
def test_static_score_grad_matches_reference(method):
    for extended in (False, True):
        if method.requires_extended and not extended:
            continue
        spec, values, _ = loss_case(extended, seed=23)
        got = static_score_grad(LogitField(values=values, class_spec=spec), method)
        want = ref_static_score_grad(values, spec.num_classes, method)
        assert got.tobytes() == want.tobytes(), extended


@pytest.mark.parametrize("use_prior", [False, True])
@pytest.mark.parametrize("method, extended", [
    (ScoreMethod.EXTENDED_ENERGY, True), (ScoreMethod.ENTROPY, True),
    (ScoreMethod.ENERGY, False), (ScoreMethod.MAXLOGIT, False)])
def test_total_loss_matches_reference(method, extended, use_prior):
    spec, values, labels = loss_case(extended, seed=24)
    params = init_params(spec.logit_width, 5, seed=6)
    params.w_head = np.random.default_rng(7).normal(size=10)
    params.w_head[[0, 6]] = -0.0
    params.b = 0.2
    cfg = LossConfig(beta=0.8, ood_weight=50.0, orientation=Orientation.ID_LOW)

    res = total_loss(LogitField(values=values, class_spec=spec), labels, spec, method,
                     params, cfg, use_prior=use_prior)
    terms, dlogits, prior_grads = ref_total_loss(values, labels, spec, method, params,
                                                 cfg, use_prior)
    assert (res.total, res.ce, res.aux, res.void, res.prior_grads.b) == terms
    assert res.dlogits.tobytes() == dlogits.tobytes()
    assert_same_bytes(res.prior_grads.tensors(), prior_grads)


# --------------------------------------------------------------------------
# Adam
# --------------------------------------------------------------------------

def ref_adam(tensors: dict, grad_steps: list, lr: float) -> dict:
    """Bias-corrected Adam, tensor by tensor, on copies of ``tensors``."""
    tensors = {name: np.array(x) for name, x in tensors.items()}
    m = {name: np.zeros_like(x) for name, x in tensors.items()}
    v = {name: np.zeros_like(x) for name, x in tensors.items()}
    for t, grads in enumerate(grad_steps, start=1):
        bc1 = 1.0 - _ADAM_BETA1**t
        bc2 = 1.0 - _ADAM_BETA2**t
        for name, g in grads.items():
            m[name] = _ADAM_BETA1 * m[name] + (1.0 - _ADAM_BETA1) * g
            v[name] = _ADAM_BETA2 * v[name] + (1.0 - _ADAM_BETA2) * g * g
            update = lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + _ADAM_EPS)
            tensors[name] -= update
    return tensors


def adam_case(seed: int):
    rng = np.random.default_rng(seed)
    shapes = {"w1": (4, 5), "b1": (5,), "b": (), "w_head": (6,)}
    tensors = {name: signed_zeros(rng.normal(size=(1,) + s), rng)[0] for name, s in
               shapes.items()}
    tensors["b"] = np.zeros(())
    grad_steps = [
        {name: np.asarray(signed_zeros(rng.normal(size=(1,) + s), rng)[0]) for name, s in
         shapes.items()}
        for _ in range(2)]
    grad_steps[1]["b"] = np.asarray(-0.0)
    return tensors, grad_steps


def test_two_adam_steps_match_reference():
    tensors, grad_steps = adam_case(seed=25)
    want = ref_adam(tensors, grad_steps, lr=1e-3)
    opt = _Adam(tensors, lr=1e-3)
    for grads in grad_steps:
        opt.step(grads)
    assert_same_bytes(tensors, want)


@pytest.mark.parametrize("bad", [["b1"], ["w_head", "b1"], ["b"]])
def test_non_finite_update_names_the_first_tensor(bad):
    """A NaN gradient makes the update NaN; the error names the first such
    tensor in the optimizer's order."""
    tensors, grad_steps = adam_case(seed=26)
    opt = _Adam(tensors, lr=1e-3)
    opt.step(grad_steps[0])
    grads = grad_steps[1]
    for name in bad:
        grads[name] = np.full(np.shape(grads[name]), np.nan)
    first = min(bad, key=list(tensors).index)
    with pytest.raises(ContractError, match=f"non-finite parameter {first} after update 2"):
        opt.step(grads)



# --------------------------------------------------------------------------
# workspace
# --------------------------------------------------------------------------

def step_case(m: int, seed: int):
    """Inputs of the five step functions at ``m`` points for one extended
    spec, with the ReLU ties and signed zeros of the cases above."""
    spec, values, labels = loss_case(True, seed, m=m)
    _, bb, features, dlogits = backbone_case(True, seed, m=m, spec=spec)
    _, params, grad_w = prior_case(True, seed, m=m, c=spec.logit_width, d=5)
    params.b = 0.2
    return spec, bb, features, dlogits, values, labels, params, grad_w


def step_bytes(case, work) -> dict[str, bytes]:
    """The bytes of every float64 result of the five step functions, each
    read as soon as its call returns: a workspace view holds its values only
    until the next call that fills its buffer."""
    spec, bb, features, dlogits, values, labels, params, grad_w = case
    out = {"forward": forward(bb, features, spec, work=work).values.tobytes()}
    for name, g in backbone_backward(bb, features, dlogits, work=work).items():
        out[f"backbone_backward.{name}"] = g.tobytes()

    w, tape = prior_weight(values, params, work=work)
    out["prior_weight"] = w.tobytes()
    for name in ("e", "q", "keys", "vals", "att", "z", "pre"):
        out[f"prior_weight.{name}"] = getattr(tape, name).tobytes()
    grads, dlogits_prior = prior_backward(tape, grad_w)
    out["prior_backward"] = dlogits_prior.tobytes()
    for name, g in grads.tensors().items():
        out[f"prior_backward.{name}"] = g.tobytes()

    cfg = LossConfig(beta=0.8, ood_weight=50.0)
    res = total_loss(LogitField(values=values, class_spec=spec), labels, spec,
                     ScoreMethod.EXTENDED_ENERGY, params, cfg, work=work)
    out["total_loss"] = np.array([res.total, res.ce, res.aux, res.void,
                                  res.prior_grads.b]).tobytes()
    out["total_loss.dlogits"] = res.dlogits.tobytes()
    for name, g in res.prior_grads.tensors().items():
        out[f"total_loss.{name}"] = g.tobytes()
    return out


@pytest.mark.parametrize("rows, sizes", [
    (400, [301]),                # capacity larger than M
    (400, [120, 301, 60]),       # M growing, then shrinking, within the capacity
    (301, [301, 301]),           # two steps in a row
    (4099, [4099, 301]),         # the largest row chunk (a folded rest), then a smaller scan
])
def test_workspace_keeps_bytes(rows, sizes):
    work = Workspace(rows, 9, 5, 6)
    for i, m in enumerate(sizes):
        case = step_case(m, seed=30 + i)
        want = step_bytes(case, None)
        got = step_bytes(case, work)
        assert got.keys() == want.keys()
        assert not [name for name in want if got[name] != want[name]], (i, m)


@pytest.mark.parametrize("call", ["forward", "backbone_backward", "prior_weight", "wide"])
def test_take_past_the_workspace_rejected(call):
    """A workspace does not grow: a step function of more rows than it
    holds, or a take wider than its slot, raises ContractError."""
    spec, bb, features, dlogits, values, labels, params, grad_w = step_case(65, seed=35)
    work = Workspace(64, 9, 5, 6)
    with pytest.raises(ContractError, match="workspace slot"):
        if call == "forward":
            forward(bb, features, spec, work=work)
        elif call == "backbone_backward":
            backbone_backward(bb, features, dlogits, work=work)
        elif call == "prior_weight":
            prior_weight(values, params, work=work)
        else:
            work.take("x", 64, 5)


def ref_step(bb, params, features, labels, spec, cfg):
    """One training step's gradients and loss terms: the reference
    expressions on each row chunk, with the scan's loss normalizers, added
    in row order onto the first chunk's; one chunk is the whole scan."""
    counts = [np.count_nonzero(labels.role == r) for r in (Role.INLIER, Role.AUX_OOD, Role.VOID)]
    grads, terms = None, np.zeros(4)
    for rows in row_chunks(labels.count):
        part = LabelMap(semantic=labels.semantic[rows], instance=labels.instance[rows],
                        role=labels.role[rows])
        values = ref_forward(bb, features[rows])
        (total, ce, aux, void, b), dlogits, prior_grads = ref_total_loss(
            values, part, spec, cfg.method, params, cfg.loss, True, counts)
        chunk = dict(ref_backbone_backward(bb, features[rows], dlogits), b=np.asarray(b),
                     **prior_grads)
        if grads is None:
            grads = chunk
        else:
            for name, g in chunk.items():
                grads[name] = grads[name] + g
        terms += (0.0, ce, aux, void)
    terms[0] = terms[1] + terms[2] + terms[3]
    return grads, terms


@pytest.mark.parametrize("m", [301, 4099, 4100, 9000])
def test_chunked_step_matches_reference(m):
    """The step that ``train`` takes, a chunk at a time in a workspace of
    one chunk, against the chunk-summed reference. At most 4099 rows are
    one chunk, so that reference is the whole-array one: those steps keep
    the bytes of a whole-scan step."""
    spec, bb, features, _, _, labels, params, _ = step_case(m, seed=36)
    cfg = trainer.TrainConfig(hidden=9, latent_dim=5, loss=LossConfig(beta=0.8, ood_weight=50.0))
    rows = max(r.stop - r.start for r in row_chunks(m))
    got, terms, live = trainer._step_grads(bb, params, features, labels, spec, cfg,
                                           Workspace(rows, 9, 5, spec.logit_width))
    want, want_terms = ref_step(bb, params, features, labels, spec, cfg)
    assert_same_bytes(got, want)
    assert np.array(terms).tobytes() == want_terms.tobytes()
    pre = ref_prior_weight(ref_forward(bb, features), params)[1]["pre"]
    assert 0 < live == np.count_nonzero(pre > 0.0) < m


def test_train_drops_its_workspace(monkeypatch):
    made = []

    class Recorded(Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(trainer, "Workspace", Recorded)
    spec = default_class_spec(extended=True)
    data = [generate_scene(SceneConfig(seed=s, extent=5.0, class_budget=default_budget(1200)))
            for s in (100, 101)]
    trainer.train(data, spec, trainer.TrainConfig(lr=1e-3, epochs=2, seed=3))
    assert len(made) == 1
    assert made[0]() is None  # freed on return, without waiting for the cycle collector


@pytest.mark.parametrize("totals", [[1200, 1500], [5000, 1200]], ids=["one-chunk", "two-chunks"])
def test_train_sizes_its_workspace_to_one_chunk(monkeypatch, totals):
    """A scan of 4099 rows or fewer is one chunk, and its workspace holds
    only its rows; a larger scan's holds its largest chunk's."""
    made = []

    class Recorded(Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self.rows)

    monkeypatch.setattr(trainer, "Workspace", Recorded)
    data = [generate_scene(SceneConfig(seed=100 + i, extent=5.0,
                                       class_budget=default_budget(total)))
            for i, total in enumerate(totals)]
    trainer.train(data, default_class_spec(extended=True), trainer.TrainConfig(epochs=1, seed=3))
    counts = [cloud.count for cloud, _ in data]
    assert made == [max(counts) if max(counts) <= 4099 else 4096]
