"""Prior-attention weighting network: forward contracts, exact backward."""

import io
import struct

import numpy as np
import pytest

from lidarood.core import ClassSpec, ContractError, FormatError, Workspace
from lidarood.priornet import (
    init_params, load_params, prior_backward, prior_weight, save_params,
)
from lidarood.trainer import backbone_backward, forward, init_backbone


def fd_max_rel_err(seed, h=1e-4, entries_per_group=None):
    """Finite-difference check of the parameters and input logits on one
    random instance; returns the worst relative error.

    ``entries_per_group`` limits the check to that many seeded-random
    coordinates per tensor (None checks every coordinate).
    """
    rng = np.random.default_rng(seed)
    c = int(rng.choice([4, 8]))
    d = int(rng.choice([5, 16]))
    m = int(rng.integers(1, 11))
    params = init_params(c, d, seed=seed)
    params.w_head = rng.normal(size=2 * d)  # live head so ReLU paths fire
    logits = rng.normal(size=(m, c))
    grad_w = rng.normal(size=m)

    _, tape = prior_weight(logits, params)
    grads, dlogits = prior_backward(tape, grad_w)

    def objective():
        w, _ = prior_weight(logits, params)
        return float((grad_w * w).sum())

    def coords(arr):
        flat = np.arange(arr.size)
        if entries_per_group is not None and arr.size > entries_per_group:
            flat = rng.choice(flat, size=entries_per_group, replace=False)
        return [np.unravel_index(i, arr.shape) for i in flat]

    worst = 0.0
    tensors = [(getattr(params, n), getattr(grads, n))
               for n in ("w_proj", "psi", "w_q", "w_k", "w_v", "w_head")]
    tensors.append((logits, dlogits))
    for arr, analytic in tensors:
        for ix in coords(arr):
            orig = arr[ix]
            arr[ix] = orig + h
            plus = objective()
            arr[ix] = orig - h
            minus = objective()
            arr[ix] = orig
            fd = (plus - minus) / (2 * h)
            denom = max(abs(fd), abs(analytic[ix]), 1e-8)
            worst = max(worst, abs(fd - analytic[ix]) / denom)
    return worst


class TestInit:
    def test_default_latent_dim_is_16(self):
        assert init_params(6).latent_dim == 16

    def test_fresh_params_weight_is_one(self):
        rng = np.random.default_rng(0)
        params = init_params(8, d=7, seed=4)
        w, _ = prior_weight(rng.normal(scale=10, size=(500, 8)), params)
        np.testing.assert_array_equal(w, np.ones(500))

    def test_seed_determinism(self):
        a = init_params(6, d=9, seed=3)
        b = init_params(6, d=9, seed=3)
        for name in ("w_proj", "psi", "w_q", "w_k", "w_v", "w_head"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_glorot_bounds(self):
        params = init_params(10, d=4, seed=5)
        bound = np.sqrt(6.0 / (10 + 4))
        assert np.abs(params.w_proj).max() <= bound
        assert np.abs(params.psi).max() <= bound

    def test_validation(self):
        with pytest.raises(ContractError):
            init_params(1, d=4)
        with pytest.raises(ContractError):
            init_params(4, d=0)


class TestForward:
    def test_weight_at_least_one(self):
        rng = np.random.default_rng(1)
        for seed in range(20):
            params = init_params(6, d=5, seed=seed)
            params.w_head = rng.normal(scale=3, size=10)
            w, _ = prior_weight(rng.normal(scale=5, size=(50, 6)), params)
            assert np.all(w >= 1.0)

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        params = init_params(8, d=6, seed=7)
        _, tape = prior_weight(rng.normal(size=(40, 8)), params)
        np.testing.assert_allclose(tape.att.sum(axis=1), 1.0, atol=1e-12)

    def test_dimension_mismatch(self):
        params = init_params(6, d=5, seed=0)
        with pytest.raises(ContractError):
            prior_weight(np.zeros((3, 7)), params)

    @pytest.mark.parametrize("shape", [(6,), ()])
    def test_not_a_matrix_rejected(self, shape):
        params = init_params(6, d=5, seed=0)
        with pytest.raises(ContractError, match="logits must be"):
            prior_weight(np.zeros(shape), params)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raw_logits_rejected(self, bad):
        params = init_params(3, d=4, seed=0)
        params.w_head = np.ones(8)
        logits = np.zeros((3, 3))
        logits[1, 2] = bad
        with pytest.raises(ContractError, match="finite"):
            prior_weight(logits, params)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        params = init_params(5, d=4, seed=1)
        params.w_head = rng.normal(size=8)
        x = rng.normal(size=(30, 5))
        perm = rng.permutation(30)
        a, _ = prior_weight(x, params)
        b, _ = prior_weight(x[perm], params)
        np.testing.assert_array_equal(a[perm], b)


class TestBackward:
    def test_zero_grad_w(self):
        rng = np.random.default_rng(4)
        params = init_params(4, d=5, seed=2)
        params.w_head = rng.normal(size=10)
        _, tape = prior_weight(rng.normal(size=(6, 4)), params)
        grads, dlogits = prior_backward(tape, np.zeros(6))
        assert not dlogits.any()
        for name in ("w_proj", "psi", "w_q", "w_k", "w_v", "w_head"):
            assert not getattr(grads, name).any()

    def test_head_gradient_is_concat_when_active(self):
        """Single point, pre-activation > 0: d w / d head = [e, z]."""
        rng = np.random.default_rng(5)
        params = init_params(4, d=3, seed=3)
        params.w_head = np.abs(rng.normal(size=6)) + 0.1
        x = rng.normal(size=(1, 4))
        w, tape = prior_weight(x, params)
        if tape.pre[0] <= 0:  # flip the head so the ReLU is active
            params.w_head = -params.w_head
            w, tape = prior_weight(x, params)
        assert tape.pre[0] > 0
        grads, _ = prior_backward(tape, np.ones(1))
        np.testing.assert_allclose(
            grads.w_head, np.concatenate([tape.e[0], tape.z[0]]), rtol=1e-12)

    @pytest.mark.parametrize("edit", ["tensor_in_place", "tensor_rebound", "logits_in_place"])
    def test_edits_after_the_forward_pass_do_not_reach_the_backward(self, edit):
        """The tape keeps copies of the tensors and raw logits: every
        gradient byte matches the backward of an untouched tape."""
        rng = np.random.default_rng(6)
        head = rng.normal(size=6)  # a live head, so every tensor gets gradient
        logits = rng.normal(size=(5, 4))
        grad_w = rng.normal(size=5)

        def taped(values):
            params = init_params(4, d=3, seed=4)
            params.w_head = head.copy()
            return params, prior_weight(values, params)[1]

        _, untouched = taped(logits.copy())
        params, tape = taped(logits)
        if edit == "tensor_in_place":
            params.w_q *= 2.0
        elif edit == "tensor_rebound":
            params.w_proj = params.w_proj + 1.0
        else:
            logits *= -1.0
        want_grads, want_dlogits = prior_backward(untouched, grad_w)
        grads, dlogits = prior_backward(tape, grad_w)
        assert dlogits.tobytes() == want_dlogits.tobytes()
        for name, g in grads.tensors().items():
            assert g.tobytes() == getattr(want_grads, name).tobytes(), name

    def test_tape_of_a_refilled_workspace_rejected(self):
        rng = np.random.default_rng(7)
        params = init_params(4, d=3, seed=4)
        work = Workspace(5, 6, 3, 4)
        _, first = prior_weight(rng.normal(size=(3, 4)), params, work=work)
        _, second = prior_weight(rng.normal(size=(5, 4)), params, work=work)
        with pytest.raises(ContractError, match="refilled"):
            prior_backward(first, np.ones(3))
        prior_backward(second, np.ones(5))

    @pytest.mark.parametrize("step", ["forward", "backbone_backward"])
    def test_tape_after_a_backbone_pass_on_its_workspace_rejected(self, step):
        """The backbone's hidden layer shares a buffer with the tape's e and
        q, so a backbone pass between the two prior passes overwrites them."""
        rng = np.random.default_rng(8)
        spec = ClassSpec(inlier_classes=(1, 2), void_id=0, ood_id=9, ignore_id=8,
                         extended=True)
        backbone = init_backbone(6, spec.logit_width, seed=2)
        features = rng.normal(size=(5, 4))
        params = init_params(spec.logit_width, d=3, seed=4)
        params.w_head = rng.normal(size=6)
        values = rng.normal(size=(5, spec.logit_width))
        want = prior_backward(prior_weight(values, params)[1], np.ones(5))[1]

        work = Workspace(5, 6, 3, 4)
        _, tape = prior_weight(values, params, work=work)
        if step == "forward":
            forward(backbone, features, spec, work=work)
        else:
            backbone_backward(backbone, features, rng.normal(size=(5, 4)), work=work)
        with pytest.raises(ContractError, match="stale tape"):
            prior_backward(tape, np.ones(5))
        _, tape = prior_weight(values, params, work=work)
        assert prior_backward(tape, np.ones(5))[1].tobytes() == want.tobytes()

    def test_second_backward_on_one_tape_rejected(self):
        """The backward pass overwrites its tape's buffers with its own arrays,
        so a tape made in a workspace serves one backward pass; a tape made
        without one serves any number, with the same bytes."""
        rng = np.random.default_rng(9)
        params = init_params(4, d=3, seed=4)
        params.w_head = rng.normal(size=6)
        values = rng.normal(size=(5, 4))
        grad_w = rng.normal(size=5)

        _, tape = prior_weight(values, params, work=Workspace(5, 6, 3, 4))
        first = prior_backward(tape, grad_w)[1].copy()
        with pytest.raises(ContractError, match="stale tape"):
            prior_backward(tape, grad_w)

        _, fresh = prior_weight(values, params)
        for _ in range(2):
            assert prior_backward(fresh, grad_w)[1].tobytes() == first.tobytes()

    @pytest.mark.parametrize("seed", range(10))
    def test_finite_difference_small(self, seed):
        assert fd_max_rel_err(seed) < 1e-4


class TestCheckpoint:
    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        params = init_params(6, d=5, seed=9)
        params.w_head = rng.normal(size=10).astype(np.float32).astype(np.float64)
        params.b = 0.25
        # float32 container: store values already representable
        for name in ("w_proj", "psi", "w_q", "w_k", "w_v"):
            setattr(params, name,
                    getattr(params, name).astype(np.float32).astype(np.float64))
        buf = io.BytesIO()
        save_params(params, buf)
        buf.seek(0)
        loaded = load_params(buf)
        for name in ("w_proj", "psi", "w_q", "w_k", "w_v", "w_head"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(params, name))
        assert loaded.b == params.b

    @pytest.mark.parametrize("name", ["psi", "w_head", "b"])
    def test_float32_overflow_rejected_before_writing(self, name):
        params = init_params(6, d=5, seed=9)
        if name == "b":
            params.b = 1e39
        else:
            getattr(params, name)[0] = -1e39
        buf = io.BytesIO()
        with pytest.raises(ContractError):
            save_params(params, buf)
        assert buf.getvalue() == b""

    def test_bad_magic(self):
        with pytest.raises(ContractError):
            load_params(io.BytesIO(b"XXXX" + b"\x00" * 32))

    @pytest.mark.parametrize("c, d", [(1, 4), (6, 0)])
    def test_dims_below_init_bounds_rejected(self, c, d):
        """A well-formed container that init_params could not have made
        (C < 2 or d < 1) is refused when it is read."""
        n_floats = 2 * c * d + 3 * d * d + 2 * d + 1
        blob = b"PRW1" + struct.pack("<III", 1, c, d) + bytes(4 * n_floats)
        with pytest.raises(ContractError):
            load_params(io.BytesIO(blob))

    def test_truncated_or_trailing_bytes_rejected(self):
        buf = io.BytesIO()
        save_params(init_params(6, d=5, seed=9), buf)
        good = buf.getvalue()
        for bad in [good[:size] for size in range(len(good))] + [good + b"\0"]:
            with pytest.raises(FormatError):
                load_params(io.BytesIO(bad))
