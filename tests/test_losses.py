"""Loss terms: closed forms, hinge behavior, and exact gradients."""

import math

import numpy as np
import pytest

from lidarood.core import ClassSpec, ContractError, LabelMap, LogitField, Role
from lidarood.losses import (
    LossConfig, Orientation, aux_logistic_loss, ce_loss, total_loss, void_soft_loss,
)
from lidarood.priornet import init_params, prior_backward, prior_weight
from lidarood.scoring import ScoreMethod, static_score, static_score_grad


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


@pytest.fixture
def spec():
    return ClassSpec(inlier_classes=(1, 2, 3), void_id=0, ood_id=9,
                     ignore_id=8, extended=True)


def toy_batch(spec, seed=0, m=6):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(m, spec.logit_width))
    roles = np.array([Role.INLIER, Role.INLIER, Role.AUX_OOD,
                      Role.VOID, Role.INLIER, Role.AUX_OOD][:m], dtype=np.int8)
    sem = np.array([1, 2, 9, 0, 3, 9][:m])
    labels = LabelMap(semantic=sem, instance=np.zeros(m, dtype=np.int64), role=roles)
    return LogitField(values=logits, class_spec=spec), labels


class TestCeLoss:
    def test_one_hot_scaled_is_tiny(self, spec):
        values = np.zeros((1, 6))
        values[0, 0] = 100.0
        field = LogitField(values=values, class_spec=spec)
        labels = LabelMap(semantic=[1], instance=[0], role=[Role.INLIER])
        loss, _ = ce_loss(field, labels, spec)
        assert loss < 1e-10

    def test_uniform_is_ln_c(self, spec):
        field = LogitField(values=np.zeros((4, 6)), class_spec=spec)
        labels = LabelMap(semantic=[1, 2, 3, 1], instance=[0] * 4,
                          role=[Role.INLIER] * 4)
        loss, _ = ce_loss(field, labels, spec)
        assert abs(loss - math.log(6)) < 1e-12
        loss_pos, _ = ce_loss(field, labels, spec, positive_only=True)
        assert abs(loss_pos - math.log(3)) < 1e-12

    def test_non_inlier_roles_ignored(self, spec):
        rng = np.random.default_rng(1)
        field = LogitField(values=rng.normal(size=(3, 6)), class_spec=spec)
        labels = LabelMap(semantic=[9, 0, 9], instance=[0] * 3,
                          role=[Role.AUX_OOD, Role.VOID, Role.REAL_OOD])
        loss, grad = ce_loss(field, labels, spec)
        assert loss == 0.0
        assert not grad.any()

    def test_bad_inlier_label_rejected(self, spec):
        field = LogitField(values=np.zeros((1, 6)), class_spec=spec)
        labels = LabelMap(semantic=[9], instance=[0], role=[Role.INLIER])
        with pytest.raises(ContractError):
            ce_loss(field, labels, spec)

    def test_gradient_matches_fd(self, spec):
        field, labels = toy_batch(spec, seed=2)
        _, grad = ce_loss(field, labels, spec)
        values = np.array(field.values)
        h = 1e-6
        for i in range(values.shape[0]):
            for j in range(values.shape[1]):
                vp = values.copy(); vp[i, j] += h
                vm = values.copy(); vm[i, j] -= h
                lp, _ = ce_loss(LogitField(values=vp, class_spec=spec), labels, spec)
                lm, _ = ce_loss(LogitField(values=vm, class_spec=spec), labels, spec)
                fd = (lp - lm) / (2 * h)
                assert abs(fd - grad[i, j]) < 1e-5


class TestAuxLogisticLoss:
    def test_midpoint_value(self):
        loss, _, _, _ = aux_logistic_loss(np.array([0.0]), np.array([0.0]), b=0.0)
        assert abs(loss - 2 * math.log(2)) < 1e-12

    def test_limits_vanish(self):
        loss, _, _, _ = aux_logistic_loss(np.array([-50.0]), np.array([50.0]), b=0.0)
        assert loss < 1e-20

    def test_orientation_swap(self):
        s_in, s_aux = np.array([1.3]), np.array([-0.4])
        lo_, *_ = aux_logistic_loss(s_in, s_aux, b=0.2, orientation=Orientation.ID_LOW)
        hi, *_ = aux_logistic_loss(s_aux, s_in, b=0.2, orientation=Orientation.ID_HIGH)
        assert abs(lo_ - hi) < 1e-12

    def test_empty_subsets(self):
        loss, g_in, g_aux, b_grad = aux_logistic_loss(np.array([]), np.array([]), b=1.0)
        assert loss == 0.0 and b_grad == 0.0
        assert g_in.size == 0 and g_aux.size == 0

    def test_monotonicity(self):
        """Raising an aux score lowers the loss; raising an ID score raises it."""
        rng = np.random.default_rng(3)
        s_in, s_aux = rng.normal(size=5), rng.normal(size=4)
        base, *_ = aux_logistic_loss(s_in, s_aux, b=0.1)
        up_aux, *_ = aux_logistic_loss(s_in, s_aux + 0.5, b=0.1)
        up_in, *_ = aux_logistic_loss(s_in + 0.5, s_aux, b=0.1)
        assert up_aux < base < up_in

    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_gradients_match_fd(self, orientation):
        rng = np.random.default_rng(4)
        s_in, s_aux, b = rng.normal(size=6), rng.normal(size=5), 0.3
        _, g_in, g_aux, b_grad = aux_logistic_loss(s_in, s_aux, b, orientation, aux_weight=3.0)
        h = 1e-6

        def f(si, sa, bb):
            return aux_logistic_loss(si, sa, bb, orientation, aux_weight=3.0)[0]

        for i in range(6):
            sp = s_in.copy(); sp[i] += h
            sm = s_in.copy(); sm[i] -= h
            assert abs((f(sp, s_aux, b) - f(sm, s_aux, b)) / (2 * h) - g_in[i]) < 1e-8
        for i in range(5):
            sp = s_aux.copy(); sp[i] += h
            sm = s_aux.copy(); sm[i] -= h
            assert abs((f(s_in, sp, b) - f(s_in, sm, b)) / (2 * h) - g_aux[i]) < 1e-8
        assert abs((f(s_in, s_aux, b + h) - f(s_in, s_aux, b - h)) / (2 * h) - b_grad) < 1e-8


class TestVoidSoftLoss:
    def test_saturated_void_term_vanishes(self):
        # sigma(s) >= beta for all void scores -> hinge inactive
        beta = 0.9
        s_void = np.array([3.0, 5.0, 10.0])
        assert np.all(sigmoid(s_void) >= beta)
        loss, _, g_void, _ = void_soft_loss(np.array([]), s_void, b=0.0, beta=beta)
        assert loss == 0.0
        assert not g_void.any()

    def test_id_midpoint(self):
        loss, *_ = void_soft_loss(np.array([0.0]), np.array([]), b=0.0)
        assert loss == 0.5

    def test_hinge_invariance_above_threshold(self):
        """Void scores above the saturation point do not change the loss."""
        base, *_ = void_soft_loss(np.array([]), np.array([10.0]), b=0.0, beta=0.9)
        more, *_ = void_soft_loss(np.array([]), np.array([25.0]), b=0.0, beta=0.9)
        assert base == more == 0.0

    def test_gradients_match_fd_away_from_kink(self):
        rng = np.random.default_rng(5)
        s_in = rng.normal(size=4)
        s_void = rng.normal(size=4)  # sigma far from beta w.h.p.
        b = 0.1
        _, g_in, g_void, b_grad = void_soft_loss(s_in, s_void, b, beta=0.9, void_weight=2.0)
        h = 1e-6

        def f(si, sv, bb):
            return void_soft_loss(si, sv, bb, beta=0.9, void_weight=2.0)[0]

        for i in range(4):
            sp = s_in.copy(); sp[i] += h
            sm = s_in.copy(); sm[i] -= h
            assert abs((f(sp, s_void, b) - f(sm, s_void, b)) / (2 * h) - g_in[i]) < 1e-8
            vp = s_void.copy(); vp[i] += h
            vm = s_void.copy(); vm[i] -= h
            assert abs((f(s_in, vp, b) - f(s_in, vm, b)) / (2 * h) - g_void[i]) < 1e-8
        assert abs((f(s_in, s_void, b + h) - f(s_in, s_void, b - h)) / (2 * h) - b_grad) < 1e-8


class TestTotalLoss:
    def test_reduces_to_ce_plus_id_terms_without_aux_void(self, spec):
        rng = np.random.default_rng(6)
        m = 4
        field = LogitField(values=rng.normal(size=(m, 6)), class_spec=spec)
        labels = LabelMap(semantic=[1, 2, 3, 1], instance=[0] * m, role=[Role.INLIER] * m)
        params = init_params(6, 5, seed=0)
        cfg = LossConfig(ood_weight=100.0)
        res = total_loss(field, labels, spec, ScoreMethod.EXTENDED_ENERGY, params, cfg)
        want_ce, _ = ce_loss(field, labels, spec)
        assert abs(res.ce - want_ce) < 1e-12
        # aux/void terms keep only their inlier sides
        assert res.aux > 0 and res.void > 0

    def test_ood_weight_linearity(self, spec):
        field, labels = toy_batch(spec, seed=7)
        params = init_params(6, 5, seed=1)
        r1 = total_loss(field, labels, spec, ScoreMethod.ENERGY, params,
                        LossConfig(ood_weight=100.0))
        r2 = total_loss(field, labels, spec, ScoreMethod.ENERGY, params,
                        LossConfig(ood_weight=200.0))
        in_mask = labels.role == Role.INLIER
        aux_mask = labels.role == Role.AUX_OOD
        # subtract the unweighted inlier side to isolate the weighted term
        from lidarood.scoring import static_score
        s = static_score(field, ScoreMethod.ENERGY)
        in_term, _, _, _ = aux_logistic_loss(s[in_mask], np.array([]), params.b)
        aux1 = r1.aux - in_term
        aux2 = r2.aux - in_term
        np.testing.assert_allclose(aux2, 2.0 * aux1, rtol=1e-12)

    def test_end_to_end_gradients_vs_fd(self, spec):
        """Analytic gradients through the prior-weighted extended energy
        match central finite differences."""
        rng = np.random.default_rng(8)
        m = 5
        values = rng.normal(size=(m, 6))
        roles = np.array([Role.INLIER, Role.AUX_OOD, Role.VOID,
                          Role.INLIER, Role.AUX_OOD], dtype=np.int8)
        labels = LabelMap(semantic=[1, 9, 0, 2, 9], instance=[0] * m, role=roles)
        params = init_params(6, 4, seed=2)
        params.w_head = rng.normal(size=8) * 0.7
        cfg = LossConfig(ood_weight=5.0, beta=0.8)

        def f(vals, p):
            fld = LogitField(values=vals, class_spec=spec)
            return total_loss(fld, labels, spec, ScoreMethod.EXTENDED_ENERGY,
                              p, cfg).total

        field = LogitField(values=values, class_spec=spec)
        res = total_loss(field, labels, spec, ScoreMethod.EXTENDED_ENERGY, params, cfg)
        h = 1e-5
        for i in range(m):
            for j in range(6):
                vp = values.copy(); vp[i, j] += h
                vm = values.copy(); vm[i, j] -= h
                fd = (f(vp, params) - f(vm, params)) / (2 * h)
                an = res.dlogits[i, j]
                assert abs(fd - an) / max(abs(fd), abs(an), 1e-8) < 1e-3
        for name in ("psi", "w_proj", "w_head"):
            arr = getattr(params, name)
            an = getattr(res.prior_grads, name)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + h
                plus = f(values, params)
                arr[ix] = orig - h
                minus = f(values, params)
                arr[ix] = orig
                fd = (plus - minus) / (2 * h)
                assert abs(fd - an[ix]) / max(abs(fd), abs(an[ix]), 1e-8) < 1e-3
        orig_b = params.b
        params.b = orig_b + h
        plus = f(values, params)
        params.b = orig_b - h
        minus = f(values, params)
        params.b = orig_b
        fd_b = (plus - minus) / (2 * h)
        assert abs(fd_b - res.prior_grads.b) / max(abs(fd_b), 1e-8) < 1e-6

    def test_all_terms_nonnegative(self, spec):
        for seed in range(10):
            field, labels = toy_batch(spec, seed=seed)
            params = init_params(6, 4, seed=seed)
            res = total_loss(field, labels, spec, ScoreMethod.ENTROPY, params, LossConfig())
            assert res.ce >= 0 and res.aux >= 0 and res.void >= 0

    def test_static_path_has_zero_attention_grads(self, spec):
        field, labels = toy_batch(spec, seed=11)
        params = init_params(6, 4, seed=3)
        res = total_loss(field, labels, spec, ScoreMethod.EXTENDED_ENERGY, params,
                         LossConfig(), use_prior=False)
        for name in ("w_proj", "psi", "w_q", "w_k", "w_v", "w_head"):
            assert not getattr(res.prior_grads, name).any()
        assert res.prior_grads.b != 0.0


class TestTotalLossComposition:
    """``total_loss`` shares one softmax pass between its terms; its result
    equals, bitwise, the composition of the separately computed terms, each
    on a field of its own."""

    @pytest.mark.parametrize("use_prior", [False, True])
    @pytest.mark.parametrize("positive_only", [False, True])
    @pytest.mark.parametrize("method, extended", [
        (method, extended) for method in ScoreMethod for extended in (False, True)
        if extended or not method.requires_extended])
    def test_matches_composition_bitwise(self, method, extended, positive_only, use_prior):
        spec = ClassSpec(inlier_classes=(1, 2, 3), void_id=0, ood_id=9,
                         ignore_id=8, extended=extended)
        rng = np.random.default_rng(12)
        m = 400
        values = rng.normal(scale=4.0, size=(m, spec.logit_width))
        roles = rng.choice([Role.INLIER, Role.AUX_OOD, Role.VOID], size=m, p=[0.8, 0.1, 0.1])
        sem = np.where(roles == Role.INLIER, rng.integers(1, 4, size=m),
                       np.where(roles == Role.AUX_OOD, 9, 0))
        labels = LabelMap(semantic=sem, instance=np.zeros(m, dtype=np.int64), role=roles)
        params = init_params(spec.logit_width, 4, seed=5)
        params.w_head = rng.normal(size=8)
        params.b = 0.3
        cfg = LossConfig(beta=0.8, ood_weight=50.0, ce_positive_only=positive_only)

        res = total_loss(LogitField(values=values, class_spec=spec), labels, spec, method,
                         params, cfg, use_prior=use_prior)

        def fresh():
            return LogitField(values=values, class_spec=spec)

        ce, dlogits = ce_loss(fresh(), labels, spec, positive_only=positive_only)
        base = static_score(fresh(), method)
        base_grad = static_score_grad(fresh(), method)
        weights, tape = prior_weight(fresh(), params) if use_prior else (np.ones(m), None)
        scores = base * weights
        in_mask = roles == Role.INLIER
        aux_mask = roles == Role.AUX_OOD
        void_mask = roles == Role.VOID
        aux, g_in_a, g_aux, b_a = aux_logistic_loss(
            scores[in_mask], scores[aux_mask], params.b, aux_weight=cfg.ood_weight)
        void, g_in_v, g_void, b_v = void_soft_loss(
            scores[in_mask], scores[void_mask], params.b, beta=cfg.beta,
            void_weight=cfg.ood_weight)
        g = np.zeros(m)
        g[in_mask] = g_in_a + g_in_v
        g[aux_mask] = g_aux
        g[void_mask] = g_void
        want_dlogits = dlogits + (g * weights)[:, None] * base_grad
        if use_prior:
            prior_grads, dlogits_prior = prior_backward(tape, g * base)
            want_dlogits = want_dlogits + dlogits_prior

        assert (res.total, res.ce, res.aux, res.void) == (ce + aux + void, ce, aux, void)
        assert res.prior_grads.b == b_a + b_v
        assert res.dlogits.tobytes() == want_dlogits.tobytes()
        for name, grad in res.prior_grads.tensors().items():
            want = prior_grads.tensors()[name] if use_prior else np.zeros_like(grad)
            assert grad.tobytes() == want.tobytes(), name
