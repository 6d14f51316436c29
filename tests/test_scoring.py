"""Static anomaly scores: closed forms, identities, and oracles."""

import math

import numpy as np
import pytest

from lidarood.core import ClassSpec, ContractError, LogitField, ScoreField
from lidarood.priornet import init_params
from lidarood.scoring import (
    ScoreMethod, classify, energy_score, entropy_score, extended_energy_score,
    maxlogit_score, reweighted_score, static_score, static_score_grad,
)


def make_field(values, k=None, extended=False):
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    width = values.shape[1]
    k = k if k is not None else (width // 2 if extended else width)
    spec = ClassSpec(inlier_classes=tuple(range(1, k + 1)), void_id=0,
                     ood_id=100, ignore_id=101, extended=extended)
    return LogitField(values=values, class_spec=spec)


class TestEntropy:
    def test_uniform_is_ln_k(self):
        field = make_field([[2.5, 2.5, 2.5, 2.5]])
        assert abs(entropy_score(field)[0] - math.log(4)) < 1e-12

    def test_near_one_hot(self):
        field = make_field([[100.0, 0, 0, 0]])
        assert entropy_score(field)[0] < 1e-10

    def test_matches_fsum_oracle(self):
        rng = np.random.default_rng(0)
        values = rng.normal(scale=3, size=(50, 6))
        field = make_field(values)
        got = entropy_score(field)
        for i in range(50):
            exps = [math.exp(v - max(values[i])) for v in values[i]]
            z = math.fsum(exps)
            p = [e / z for e in exps]
            want = -math.fsum(pi * math.log(pi) for pi in p)
            assert abs(got[i] - want) < 1e-12

    def test_range(self):
        rng = np.random.default_rng(1)
        field = make_field(rng.normal(scale=10, size=(500, 5)))
        h = entropy_score(field)
        assert np.all(h >= 0) and np.all(h <= math.log(5) + 1e-12)


class TestEnergy:
    def test_two_zeros(self):
        field = make_field([[0.0, 0.0]])
        assert abs(energy_score(field)[0] - (-math.log(2))) < 1e-12

    def test_all_ones_closed_form(self):
        for k in (2, 3, 7):
            field = make_field([np.ones(k)])
            assert abs(energy_score(field)[0] - (-(1 + math.log(k)))) < 1e-12

    def test_shift_identity(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(100, 4))
        shifts = rng.normal(size=(100, 1)) * 5
        base = energy_score(make_field(values))
        shifted = energy_score(make_field(values + shifts))
        np.testing.assert_allclose(shifted, base - shifts[:, 0], rtol=1e-9)


class TestExtendedEnergy:
    def test_all_equal_is_ln2(self):
        for k in (2, 4):
            field = make_field([np.full(2 * k, 1.7)], extended=True)
            assert abs(extended_energy_score(field)[0] - math.log(2)) < 1e-12

    def test_softplus_closed_form(self):
        # all positive channels at 10, all negative at -10: the ratio
        # collapses to 1 + e^-20 regardless of K
        field = make_field([[10.0, 10.0, -10.0, -10.0]], extended=True)
        want = math.log1p(math.exp(-20))
        assert abs(extended_energy_score(field)[0] - want) < 1e-15

    def test_strictly_positive(self):
        rng = np.random.default_rng(3)
        field = make_field(rng.normal(scale=5, size=(300, 8)), extended=True)
        assert np.all(extended_energy_score(field) > 0)

    def test_refuses_standard_field(self):
        field = make_field([[0.0, 0, 0, 0]])
        with pytest.raises(ContractError):
            extended_energy_score(field)

    def test_monotonicity_by_gradient_sign(self):
        """Raising a negative channel increases the score; raising a
        positive channel decreases it (analytic gradient signs)."""
        rng = np.random.default_rng(4)
        k = 4
        field = make_field(rng.normal(size=(1000, 2 * k)), extended=True)
        grad = static_score_grad(field, ScoreMethod.EXTENDED_ENERGY)
        assert np.all(grad[:, k:] > 0)
        assert np.all(grad[:, :k] < 0)


class TestMaxLogit:
    def test_basic(self):
        field = make_field([[3.0, 1.0, 2.0]])
        assert maxlogit_score(field)[0] == -3.0

    def test_shift(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(50, 4))
        c = 2.75
        np.testing.assert_allclose(
            maxlogit_score(make_field(values + c)),
            maxlogit_score(make_field(values)) - c, rtol=1e-12)

    def test_naive_loop_oracle(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=(40, 5))
        got = maxlogit_score(make_field(values))
        for i in range(40):
            assert got[i] == -max(values[i])


class TestGradients:
    @pytest.mark.parametrize("method", list(ScoreMethod))
    def test_matches_finite_differences(self, method):
        rng = np.random.default_rng(7)
        extended = method.requires_extended
        values = rng.normal(size=(6, 8 if extended else 4))
        field = make_field(values, extended=extended)
        grad = static_score_grad(field, method)
        h = 1e-6
        for i in range(values.shape[0]):
            for j in range(values.shape[1]):
                if method is ScoreMethod.MAXLOGIT:
                    continue  # kinked; sign checked via construction below
                vp = values.copy(); vp[i, j] += h
                vm = values.copy(); vm[i, j] -= h
                fd = (static_score(make_field(vp, extended=extended), method)[i]
                      - static_score(make_field(vm, extended=extended), method)[i]) / (2 * h)
                assert abs(fd - grad[i, j]) < 1e-6

    def test_maxlogit_grad(self):
        field = make_field([[1.0, 5.0, 2.0]])
        grad = static_score_grad(field, ScoreMethod.MAXLOGIT)
        np.testing.assert_array_equal(grad[0], [0.0, -1.0, 0.0])


class TestSoftmaxParts:
    """The softmax parts of a field are the one-pass expressions, bitwise,
    whichever part is asked for first."""

    @staticmethod
    def reference(values):
        m = values.max(axis=1, keepdims=True)
        log_sum = np.log(np.exp(values - m).sum(axis=1, keepdims=True))
        logp = (values - m) - log_sum
        p = np.exp(logp)
        return {"max": m[:, 0], "lse": (m + log_sum)[:, 0], "logp": logp, "p": p,
                "entropy": -(p * logp).sum(axis=1)}

    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("order", [("lse", "logp", "p", "entropy", "max"),
                                       ("entropy", "p", "max", "logp", "lse")])
    def test_bitwise_in_any_order(self, extended, order):
        rng = np.random.default_rng(3)
        values = rng.normal(scale=20.0, size=(500, 12 if extended else 6))
        values[:50] = values[:50, :1]  # rows of ties
        field = make_field(values, extended=extended)
        groups = {"softmax": (field.softmax, values),
                  "inlier_softmax": (field.inlier_softmax, values[:, :6])}
        for name, (soft, block) in groups.items():
            want = self.reference(block)
            for part in order:
                got = getattr(soft, part)
                got = got() if callable(got) else got  # (M, c) parts are methods
                assert got.tobytes() == want[part].tobytes(), (name, part)
        assert (field.inlier_softmax is field.softmax) is not extended


class TestReweighted:
    def test_zero_head_reduction_bitwise(self):
        rng = np.random.default_rng(8)
        for method in ScoreMethod:
            extended = method.requires_extended
            width = 8 if extended else 4
            field = make_field(rng.normal(size=(2000, width)), extended=extended)
            params = init_params(width, d=5, seed=1)
            got = reweighted_score(field, method, params).scores
            want = static_score(field, method)
            assert np.array_equal(got, want)

    def test_factorization(self):
        """With a live head, reweighted / static equals the separately
        computed weight."""
        from lidarood.priornet import prior_weight
        rng = np.random.default_rng(9)
        field = make_field(rng.normal(size=(100, 8)), extended=True)
        params = init_params(8, d=6, seed=2)
        params.w_head = rng.normal(size=12)
        w, _ = prior_weight(field, params)
        got = reweighted_score(field, ScoreMethod.EXTENDED_ENERGY, params).scores
        base = static_score(field, ScoreMethod.EXTENDED_ENERGY)
        np.testing.assert_allclose(got / base, w, rtol=1e-12)

    def test_sign_preserved(self):
        rng = np.random.default_rng(10)
        field = make_field(rng.normal(size=(200, 4)))
        params = init_params(4, d=5, seed=3)
        params.w_head = rng.normal(size=10)
        got = reweighted_score(field, ScoreMethod.ENERGY, params).scores
        base = static_score(field, ScoreMethod.ENERGY)
        np.testing.assert_array_equal(np.sign(got), np.sign(base))


class TestClassify:
    def test_boundary_is_inlier(self):
        scores = ScoreField(scores=np.array([-1.0, 0.0, 1.0]))
        np.testing.assert_array_equal(classify(scores, 0.0), [False, False, True])

    def test_gamma_infinite(self):
        scores = ScoreField(scores=np.array([1e30, -1e30]))
        assert not classify(scores, np.inf).any()

    def test_nan_gamma_rejected(self):
        with pytest.raises(ContractError):
            classify(ScoreField(scores=np.array([0.0])), float("nan"))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=(64, 4))
        perm = rng.permutation(64)
        a = entropy_score(make_field(values))[perm]
        b = entropy_score(make_field(values[perm]))
        np.testing.assert_array_equal(a, b)
