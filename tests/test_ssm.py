import math

import numpy as np
import pytest

from fsglab.errors import ContractError, DimensionError, DomainError
from fsglab.rng import Rng
from fsglab.ssm import (
    discretize_zoh,
    linear_recurrence,
    linear_recurrence_backward,
    ssm_conv,
    ssm_conv_kernel,
    ssm_scan,
)
from fsglab.tensor import finite_diff_check


def sequential_scan(ld, inp, h0=None):
    """h_t = exp(ld_t) h_{t-1} + inp_t, one token at a time from h0 (zero by default)."""
    h = np.zeros(inp.shape[1:]) if h0 is None else h0
    out = np.empty_like(inp)
    for t in range(inp.shape[0]):
        h = np.exp(ld[t]) * h + inp[t]
        out[t] = h
    return out


class TestDiscretize:
    def test_scalar_hand_values(self):
        a_bar, b_bar = discretize_zoh(np.array(-1.0), np.array(1.0), np.array(0.1))
        assert abs(float(a_bar) - math.exp(-0.1)) < 1e-12
        assert abs(float(b_bar) - (1.0 - math.exp(-0.1))) < 1e-12
        # the quoted decimals
        assert abs(float(a_bar) - 0.904837418) < 1e-9
        assert abs(float(b_bar) - 0.0951625820) < 1e-9

    def test_small_delta_first_order(self):
        delta = np.array(1e-5)
        a_bar, b_bar = discretize_zoh(np.array(-2.0), np.array(3.0), delta)
        assert abs(float(a_bar) - 1.0) < 3e-5
        assert abs(float(b_bar) - 3e-5) < 1e-9

    def test_zero_a_guard_exact(self):
        a_bar, b_bar = discretize_zoh(np.array(0.0), np.array(2.5), np.array(0.3))
        assert float(a_bar) == 1.0
        assert float(b_bar) == 0.75

    def test_nonpositive_delta(self):
        with pytest.raises(DomainError):
            discretize_zoh(np.array(-1.0), np.array(1.0), np.array(0.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_delta(self, bad):
        # NaN compares False with 0 and an infinite delta makes b_bar 0 * inf: both would be NaN
        with pytest.raises(DomainError, match="finite and positive"):
            discretize_zoh(np.array(-1.0), np.array(1.0), np.array([0.1, bad]))


class TestScan:
    def test_zero_input(self):
        y = ssm_scan(np.array(0.5), np.array(1.0), np.array(1.0), np.zeros(5))
        assert not y.any()

    def test_hand_unroll(self):
        y = ssm_scan(np.array(0.5), np.array(1.0), np.array(1.0),
                     np.array([1.0, 0.0, 0.0]))
        assert np.allclose(y, [1.0, 0.5, 0.25], atol=1e-15)

    def test_per_step_parameter_length_mismatch(self):
        with pytest.raises(DimensionError):
            ssm_scan(np.zeros((4, 1, 2)), np.zeros((4, 1, 2)), np.zeros(2),
                     np.zeros(3))

    def test_causality(self):
        rng = Rng(4)
        a_bar, b_bar = discretize_zoh(-rng.uniforms(3) - 0.1, rng.normals(3),
                                      np.array(0.4))
        c = rng.normals(3)
        x = rng.normals(20)
        y_full = ssm_scan(a_bar, b_bar, c, x)
        x_cut = x.copy()
        x_cut[12:] = 0.0
        y_cut = ssm_scan(a_bar, b_bar, c, x_cut)
        assert np.array_equal(y_full[:12], y_cut[:12])


class TestConv:
    def test_single_tap(self):
        y = ssm_conv(np.array(0.3), np.array(2.0), np.array(1.5), np.array([4.0]))
        assert abs(y[0] - 2.0 * 1.5 * 4.0) < 1e-14

    def test_kernel_expansion(self):
        k = ssm_conv_kernel(np.array(0.5), np.array(1.0), np.array(1.0), 3)
        assert np.allclose(k[:, 0], [1.0, 0.5, 0.25], atol=1e-15)

    def test_matches_scan_scalar(self):
        rng = Rng(6)
        a_bar, b_bar = discretize_zoh(np.array(-0.7), np.array(1.3), np.array(0.2))
        c = np.array(0.9)
        x = rng.normals(16)
        assert np.max(np.abs(ssm_scan(a_bar, b_bar, c, x)
                             - ssm_conv(a_bar, b_bar, c, x))) < 1e-10

    def test_rejects_time_varying(self):
        with pytest.raises(ContractError):
            ssm_conv(np.zeros((4, 1, 2)), np.zeros((4, 1, 2)), np.zeros(2),
                     np.zeros(4))

    def test_duality_random_systems(self):
        rng = Rng(13)
        worst = 0.0
        for _ in range(200):
            n = 1 + rng.integer(4)
            a = -(0.05 + rng.uniforms(n))
            a_bar, b_bar = discretize_zoh(a, rng.normals(n),
                                          np.array(0.1 + 0.6 * rng.uniform()))
            c = rng.normals(n)
            x = rng.normals(4 + rng.integer(61))
            diff = np.max(np.abs(ssm_scan(a_bar, b_bar, c, x)
                                 - ssm_conv(a_bar, b_bar, c, x)))
            worst = max(worst, float(diff))
        assert worst < 1e-10

    def test_conv_causality(self):
        rng = Rng(14)
        a_bar, b_bar = discretize_zoh(np.array(-0.4), np.array(1.0), np.array(0.3))
        x = rng.normals(12)
        y_full = ssm_conv(a_bar, b_bar, np.array(1.0), x)
        x_cut = x.copy()
        x_cut[7:] = 0.0
        y_cut = ssm_conv(a_bar, b_bar, np.array(1.0), x_cut)
        assert np.allclose(y_full[:7], y_cut[:7], atol=1e-15)


def run_chunks(ld, inp, h0, chunk):
    """linear_recurrence over consecutive chunks of (ld, inp) from h0; returns h_0 .. h_{L-1}."""
    out = np.empty_like(inp)
    h = h0
    for s in range(0, inp.shape[0], chunk):
        e = min(s + chunk, inp.shape[0])
        hs = np.empty((e - s + 1,) + inp.shape[1:])
        hs[0] = h
        linear_recurrence(np.exp(np.cumsum(ld[s:e], axis=0)), inp[s:e], hs)
        out[s:e] = hs[1:]
        h = hs[-1]
    return out


def run_adjoint(ld, g_h, chunk):
    """linear_recurrence_backward over the same chunks in reverse.

    Returns lambda and the gradient of the state entering the first chunk.
    """
    lam = g_h.copy()
    carry = np.zeros(g_h.shape[1:])
    for s in reversed(range(0, g_h.shape[0], chunk)):
        e = min(s + chunk, g_h.shape[0])
        decay = np.exp(np.cumsum(ld[s:e], axis=0))
        linear_recurrence_backward(decay, lam[s:e], carry)
        carry = decay[0] * lam[s]
    return lam, carry


class TestLinearRecurrence:
    @pytest.mark.parametrize("total", [1, 5, 16, 17, 63, 64, 65, 128, 200])
    def test_matches_sequential(self, total):
        """One chunk of each length from a nonzero entering state (200 exceeds the default 128)."""
        rng = Rng(total)
        ld = -np.abs(rng.normals((total, 3, 2))) * 0.8
        inp = rng.normals((total, 3, 2))
        h0 = rng.normals((3, 2))
        fast = run_chunks(ld, inp, h0, total)
        assert np.max(np.abs(fast - sequential_scan(ld, inp, h0))) < 1e-12

    def test_selective_chunks_match_ssm_scan(self):
        rng = Rng(31)
        length, channels, n = 40, 3, 2
        delta = 0.1 + rng.uniforms((length, channels))
        a = -(0.2 + rng.uniforms((channels, n)))
        a_bar, b_bar = discretize_zoh(a, rng.normals((length, 1, n)), delta[:, :, None])
        c = rng.normals((length, n))
        x = rng.normals((length, channels))
        states = run_chunks(delta[:, :, None] * a, b_bar * x[:, :, None],
                            np.zeros((channels, n)), 16)
        y = np.einsum("tcn,tn->tc", states, c)
        assert np.max(np.abs(y - ssm_scan(a_bar, b_bar, c, x))) < 1e-12

    def test_extreme_decay_is_finite_and_exact(self):
        """One-token chunks are exact where exp(-S) would overflow (|ld| ~ 900)."""
        rng = Rng(5)
        ld = -np.abs(rng.normals((80, 2, 2))) * 900.0
        inp = rng.normals((80, 2, 2))
        h0 = rng.normals((2, 2))
        fast = run_chunks(ld, inp, h0, 1)
        assert np.all(np.isfinite(fast))
        assert np.max(np.abs(fast - sequential_scan(ld, inp, h0))) < 1e-12
        g_h = rng.normals((80, 2, 2))
        lam, _ = run_adjoint(ld, g_h, 1)
        # lambda_t = g_h_t + exp(ld_{t+1}) lambda_{t+1}: the recurrence run from the end
        ref = sequential_scan(np.concatenate((ld[:1], ld[:0:-1])), g_h[::-1])[::-1]
        assert np.all(np.isfinite(lam))
        assert np.max(np.abs(lam - ref)) < 1e-12

    def test_backward_finite_differences(self):
        """The adjoint over chunks of 5 (the factored form, with a two-token last chunk) and of
        1 (the plain recurrence) against central differences in inp, the entering state and
        ld (g_ld_t = lambda_t exp(ld_t) h_{t-1})."""
        rng = Rng(21)
        total = 12
        ld = -np.abs(rng.normals((total, 2, 2))) * 0.6
        inp = rng.normals((total, 2, 2))
        h0 = rng.normals((2, 2))
        cot = rng.normals((total, 2, 2))
        for chunk in (5, 1):
            lam, g_h0 = run_adjoint(ld, cot, chunk)
            h_prev = np.concatenate((h0[None], run_chunks(ld, inp, h0, chunk)[:-1]))

            def loss(ld_, inp_, h0_, chunk=chunk):
                return float(np.sum(cot * run_chunks(ld_, inp_, h0_, chunk)))

            assert finite_diff_check(lambda p: loss(ld, p, h0), inp, lam, h=1e-6) < 1e-5
            assert finite_diff_check(lambda p: loss(ld, inp, p), h0, g_h0, h=1e-6) < 1e-5
            g_ld = lam * np.exp(ld) * h_prev
            assert finite_diff_check(lambda p: loss(p, inp, h0), ld, g_ld, h=1e-6) < 1e-5


def test_time_varying_scan_matches_hand_recurrence():
    rng = Rng(99)
    length, channels, n = 7, 2, 3
    a_bar = np.exp(-rng.uniforms((length, channels, n)))
    b_bar = rng.normals((length, channels, n))
    c = rng.normals((length, n))
    x = rng.normals((length, channels))
    y = ssm_scan(a_bar, b_bar, c, x)
    h = np.zeros((channels, n))
    for t in range(length):
        h = a_bar[t] * h + b_bar[t] * x[t][:, None]
        assert np.allclose(y[t], h @ c[t], atol=1e-14)
