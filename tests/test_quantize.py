import numpy as np
import pytest

from fsglab.errors import DomainError, EvaluationError
from fsglab.quantize import preprocess, quantize, ste_backward
from fsglab.rng import Rng
from fsglab.tensor import finite_diff_check


class TestPreprocess:
    def test_symmetric_endpoints(self):
        w_hat, _ = preprocess(np.array([-1.0, 0.0, 1.0]))
        assert np.allclose(w_hat, [0.0, 0.5, 1.0])

    def test_zero_tensor_guard(self):
        w_hat, da = preprocess(np.zeros((3, 3)))
        assert np.all(w_hat == 0.5)
        assert np.all(da == 0.0)
        assert np.all(np.isfinite(w_hat))

    def test_nonfinite_rejected(self):
        with pytest.raises(EvaluationError):
            preprocess(np.array([1.0, np.inf]))

    def test_derivative_matches_constant_max_surrogate(self):
        rng = Rng(1)
        w = rng.normals((3, 3))
        w_hat, da = preprocess(w)
        m = np.max(np.abs(np.tanh(w)))
        cot = rng.normals((3, 3))

        def surrogate(p):
            # same map with the normalization held fixed
            return float(np.sum(cot * (np.tanh(p) / (2.0 * m) + 0.5)))

        err = finite_diff_check(surrogate, w, cot * da)
        assert err < 1e-6

    @pytest.mark.parametrize("scale", [1.0, 1e-13, 0.0], ids=["normal", "below-eps", "zero"])
    def test_given_layer_max_is_the_frozen_normalization(self, scale):
        """preprocess(w, m) is the trainer's surrogate map, bit for bit, with m the base
        weights' layer max; below EPS_MAX it is 0.5 with zero derivative."""
        rng = Rng(4)
        w_base, w = scale * rng.normals((3, 4)), rng.normals((3, 4))
        t = np.tanh(w)
        m = np.max(np.abs(np.tanh(w_base)))
        if m < 1e-12:
            expect = np.full_like(w, 0.5), np.zeros_like(w)
        else:
            expect = t / (2.0 * m) + 0.5, (1.0 - t * t) / (2.0 * m)
        got = preprocess(w, m)
        assert all(np.array_equal(a, b) for a, b in zip(got, expect))
        assert np.array_equal(preprocess(w, np.max(np.abs(t)))[0], preprocess(w)[0])

    def test_monotone_per_entry(self):
        rng = Rng(2)
        w = rng.normals(50)
        w_hat, _ = preprocess(w)
        order = np.argsort(w)
        assert np.all(np.diff(w_hat[order]) >= 0.0)


class TestQuantize:
    def test_k1_rounding(self):
        assert quantize(np.array([0.2]), 1)[0] == -1.0
        assert quantize(np.array([0.8]), 1)[0] == 1.0

    def test_k1_endpoints(self):
        assert quantize(np.array([0.0]), 1)[0] == -1.0
        assert quantize(np.array([1.0]), 1)[0] == 1.0

    def test_tie_half_away_from_zero(self):
        # documented tie rule: w_hat = 0.5 lands on +1 at k=1
        assert quantize(np.array([0.5]), 1)[0] == 1.0

    def test_k2_grid(self):
        out = quantize(np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]), 2)
        assert np.allclose(out, [-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0])

    def test_domain_error(self):
        with pytest.raises(DomainError):
            quantize(np.array([1.1]), 1)
        with pytest.raises(DomainError):
            quantize(np.array([-0.1]), 1)

    def test_bad_bit_width(self):
        with pytest.raises(DomainError):
            quantize(np.array([0.5]), 0)


class TestSte:
    def test_zeros(self):
        assert not ste_backward(np.zeros(4)).any()

    def test_identity(self):
        g = np.array([1.5, -2.0])
        assert np.array_equal(ste_backward(g), g)

    def test_composed_path_matches_surrogate(self):
        # d/dW of loss(A(W)) with frozen normalization equals STE(cot) * dA_dW
        rng = Rng(9)
        w = rng.normals((4, 4))
        cot = rng.normals((4, 4))
        _, da = preprocess(w)
        m = np.max(np.abs(np.tanh(w)))
        analytic = ste_backward(cot) * da

        def surrogate(p):
            return float(np.sum(cot * (np.tanh(p) / (2.0 * m) + 0.5)))

        assert finite_diff_check(surrogate, w, analytic) < 1e-5


class TestContract:
    def test_binary_outputs_and_range(self):
        rng = Rng(77)
        for i in range(300):
            w = rng.normals((3, 4)) * 10.0 ** (i % 6 - 3)
            w_hat, _ = preprocess(w)
            assert w_hat.min() >= 0.0 and w_hat.max() <= 1.0
            w_b = quantize(w_hat, 1)
            assert np.all(np.isin(w_b, (-1.0, 1.0)))

    def test_sign_preserved_at_binary_fixed_points(self):
        w_b = np.array([-1.0, 1.0, 1.0, -1.0])
        w_hat, _ = preprocess(w_b)
        again = quantize(w_hat, 1)
        assert np.array_equal(np.sign(again), np.sign(w_b))
