import numpy as np
import pytest

from fsglab.convergence import (
    IterateTrace,
    identity_phi,
    make_phi,
    make_quadratic_problem,
    pk_recursion_check,
    rate_fit,
    run_fsg_convex,
    theorem_bound,
)
from fsglab.errors import ContractError, FitError
from fsglab.rng import Rng


class TestProblems:
    def test_quadratic_minimizer(self):
        prob = make_quadratic_problem(3, 32, 0.2, Rng(1))
        assert np.allclose(prob.grad(prob.x_star), 0.0, atol=1e-14)
        assert prob.value(prob.x_star) == pytest.approx(prob.f_star)

    def test_closed_form_matches_finite_sum(self):
        """value and grad read x* and f*; the finite-sum definitions are the oracle."""
        prob = make_quadratic_problem(3, 16, 0.4, Rng(4))
        x = Rng(5).normals(3)
        parts = [0.5 * np.sum((x - c) ** 2) for c in prob.centers]
        assert prob.value(x) == pytest.approx(np.mean(parts), rel=1e-13)
        grads = [prob.grad_component(x, i) for i in range(prob.n_components)]
        assert np.allclose(prob.grad(x), np.mean(grads, axis=0), rtol=0, atol=1e-14)
        noise_sq = np.mean([np.sum((g - prob.grad(x)) ** 2) for g in grads])
        assert 2.0 * prob.f_star == pytest.approx(noise_sq, rel=1e-12)

    def test_stochastic_gradient_unbiased(self):
        prob = make_quadratic_problem(4, 32, 0.3, Rng(2))
        rng = Rng(3)
        x = rng.normals(4)
        total = np.zeros(4)
        draws = 100_000
        for _ in range(draws):
            total += prob.grad_component(x, rng.integer(prob.n_components))
        mean = total / draws
        # componentwise within 3 standard errors
        dev_sq = np.mean([np.sum((prob.grad_component(x, i) - prob.grad(x)) ** 2)
                          for i in range(prob.n_components)])
        se = np.sqrt(dev_sq / prob.dim / draws)
        assert np.max(np.abs(mean - prob.grad(x))) < 3.0 * se + 1e-12


class TestRunConvex:
    def test_gd_reduction_monotone(self):
        # beta=0, identity map, noiseless 1-D quadratic: plain gradient descent
        prob = make_quadratic_problem(1, 1, 0.0, Rng(5))
        trace = run_fsg_convex(prob, C=1.0, beta=0.0, T=500, repeats=1,
                               rng=Rng(6), phi=identity_phi(1))
        assert not trace.failed
        assert np.all(np.diff(trace.gaps) <= 1e-15)

    def test_fixed_point_at_optimum(self):
        prob = make_quadratic_problem(2, 1, 0.0, Rng(7))
        trace = run_fsg_convex(prob, C=1.0, beta=0.5, T=100, repeats=1,
                               rng=Rng(8), x0=prob.x_star)
        assert np.max(trace.gaps) < 1e-28

    def test_longer_horizon_closes_gap(self):
        prob = make_quadratic_problem(2, 1, 0.0, Rng(9))
        short = run_fsg_convex(prob, C=1.0, beta=0.5, T=100, repeats=1, rng=Rng(10))
        long = run_fsg_convex(prob, C=1.0, beta=0.5, T=10_000, repeats=1, rng=Rng(10))
        assert long.gaps[-1] * 10.0 <= short.gaps[-1]

    def test_divergence_marks_run_failed(self):
        prob = make_quadratic_problem(2, 4, 0.1, Rng(11))
        trace = run_fsg_convex(prob, C=1e9, beta=0.9, T=2000, repeats=1,
                               rng=Rng(12), x0=1e9 * np.ones(2))
        assert trace.failed

    def test_bad_c_rejected(self):
        prob = make_quadratic_problem(2, 4, 0.1, Rng(13))
        with pytest.raises(ContractError):
            run_fsg_convex(prob, C=0.0, beta=0.5, T=10, repeats=1, rng=Rng(0))

    def test_nan_c_rejected(self):
        prob = make_quadratic_problem(2, 4, 0.1, Rng(13))
        with pytest.raises(ContractError, match="C must be positive, got nan"):
            run_fsg_convex(prob, C=float("nan"), beta=0.5, T=10, repeats=1, rng=Rng(0))

    def test_nan_iterate_marks_run_failed(self):
        """C = inf at x* of a one-component problem: alpha * grad = inf * 0 makes x_1 NaN,
        whose norm is no number above the divergence limit."""
        prob = make_quadratic_problem(2, 1, 0.0, Rng(7))
        with np.errstate(invalid="ignore"):
            trace = run_fsg_convex(prob, C=np.inf, beta=0.5, T=20, repeats=2, rng=Rng(2),
                                   x0=prob.x_star)
        assert np.isnan(trace.xs[0][-1]).all()
        assert trace.failed_repeats == [0, 1]
        assert trace.x_hat == [None, None]

    @pytest.mark.parametrize("beta", [-0.1, 1.0, 1.5, np.nan])
    def test_beta_outside_unit_interval_rejected(self, beta):
        prob = make_quadratic_problem(2, 4, 0.1, Rng(13))
        with pytest.raises(ContractError, match=rf"beta must be in \[0, 1\), got {beta}"):
            run_fsg_convex(prob, C=1.0, beta=beta, T=10, repeats=1, rng=Rng(0))

    @pytest.mark.parametrize("noise", [np.nan, np.inf, -np.inf])
    def test_nonfinite_slow_noise_rejected(self, noise):
        prob = make_quadratic_problem(2, 4, 0.1, Rng(13))
        with pytest.raises(ContractError, match="slow_noise must be finite"):
            run_fsg_convex(prob, C=1.0, beta=0.5, T=10, repeats=1, rng=Rng(0),
                           slow_noise=noise)

    @pytest.mark.parametrize("x0", [1.0, np.ones(3), np.ones((1, 2)), [np.nan, 1.0],
                                    [1.0, -np.inf]],
                             ids=["scalar", "length-3", "shape-1x2", "nan", "inf"])
    def test_bad_x0_rejected(self, x0):
        prob = make_quadratic_problem(2, 4, 0.1, Rng(13))
        with pytest.raises(ContractError, match=r"x0 must be a finite \(2,\) vector"):
            run_fsg_convex(prob, C=1.0, beta=0.5, T=10, repeats=1, rng=Rng(0), x0=x0)

    @pytest.mark.parametrize("T,repeats,named", [(0, 1, "T = 0"), (-3, 1, "T = -3"),
                                                 (10, 0, "repeats = 0")])
    def test_sizes_below_one_rejected(self, T, repeats, named):
        prob = make_quadratic_problem(2, 4, 0.1, Rng(13))
        with pytest.raises(ContractError, match=named):
            run_fsg_convex(prob, C=1.0, beta=0.5, T=T, repeats=repeats, rng=Rng(0))

    @pytest.mark.parametrize("dim,n_components,named", [(0, 4, "dim = 0"),
                                                        (2, 0, "n_components = 0")])
    def test_problem_sizes_below_one_rejected(self, dim, n_components, named):
        with pytest.raises(ContractError, match=named):
            make_quadratic_problem(dim, n_components, 0.1, Rng(13))


def _pk_residual_loop(trace, beta):
    """The recursion residual one iteration at a time: the oracle of the array form."""
    worst = 0.0
    ratio = beta / (1.0 - beta)
    for xs, phig, xi in zip(trace.xs, trace.phi_g, trace.noise):
        p = ratio * np.diff(xs, axis=0)
        p_prev = np.zeros_like(xs[0])
        for k in range(phig.shape[0]):
            rhs = xs[k] + p_prev - trace.alpha / (1.0 - beta) * phig[k] + ratio * xi[k]
            worst = np.maximum(worst, np.max(np.abs(xs[k + 1] + p[k] - rhs)))
            p_prev = p[k]
    return float(worst)


class TestPkRecursion:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("beta,c,poison", [(0.0, 1.0, None), (0.3, 1.0, None),
                                               (0.9, 1.0, None), (0.9, 1e9, None),
                                               (0.5, 1.0, (1, 7, 0))],
                             ids=["beta-0", "beta-0.3", "beta-0.9", "diverged", "nan"])
    def test_array_form_equals_loop_by_repr(self, beta, c, poison):
        prob = make_quadratic_problem(3, 16, 0.2, Rng(18))
        trace = run_fsg_convex(prob, C=c, beta=beta, T=300, repeats=2, rng=Rng(19),
                               slow_noise=0.1, x0=np.full(3, 1e9) if c > 1 else None)
        if poison is not None:  # a NaN in the second run, after a finite first run
            rep, k, j = poison
            trace.phi_g[rep][k, j] = np.nan
        got = pk_recursion_check(trace, beta)
        assert repr(got) == repr(_pk_residual_loop(trace, beta))
        assert (c > 1) == trace.failed and (poison is not None) == np.isnan(got)

    def test_base_case_and_identity(self):
        prob = make_quadratic_problem(1, 8, 0.2, Rng(14))
        trace = run_fsg_convex(prob, C=1.0, beta=0.5, T=100, repeats=2,
                               rng=Rng(15), slow_noise=0.1)
        assert pk_recursion_check(trace, 0.5) < 1e-10

    def test_beta_zero_collapses_to_raw_update(self):
        prob = make_quadratic_problem(2, 8, 0.2, Rng(16))
        trace = run_fsg_convex(prob, C=1.0, beta=0.0, T=50, repeats=1, rng=Rng(17))
        # p_k = 0 everywhere; residual is the raw update identity
        assert pk_recursion_check(trace, 0.0) < 1e-12

    def test_requires_recorded_terms(self):
        trace = IterateTrace(ts=np.array([1]), gaps=np.zeros(1),
                             gap_stderr=np.zeros(1), alpha=0.1, beta=0.5, C=1.0)
        with pytest.raises(ContractError):
            pk_recursion_check(trace, 0.5)


class TestRateFit:
    def test_planted_half_power(self):
        ts = np.unique(np.round(np.logspace(0, 4, 60)).astype(int))
        gaps = 1.0 / np.sqrt(ts + 1.0)
        assert abs(rate_fit(ts, gaps) + 0.5) < 1e-6

    def test_planted_first_power(self):
        ts = np.unique(np.round(np.logspace(0, 4, 60)).astype(int))
        gaps = 1.0 / (ts + 1.0)
        assert abs(rate_fit(ts, gaps) + 1.0) < 1e-6

    def test_nonpositive_gap_reports_index(self):
        ts = np.array([100, 200, 400])
        gaps = np.array([0.5, -0.1, 0.2])
        with pytest.raises(FitError) as err:
            rate_fit(ts, gaps)
        assert err.value.index == 1


class TestBookkeepingAndBound:
    def test_running_average_matches_batch_recompute(self):
        prob = make_quadratic_problem(3, 8, 0.2, Rng(18))
        trace = run_fsg_convex(prob, C=1.0, beta=0.5, T=200, repeats=1,
                               rng=Rng(19), slow_noise=0.05)
        xs = trace.xs[0]
        recomputed = xs.mean(axis=0)
        assert np.max(np.abs(recomputed - trace.x_hat[0])) < 1e-12

    @pytest.mark.parametrize("c", [1.0, 1e3], ids=["finished", "diverged"])
    def test_record_and_distance_constants(self, c):
        """One Phi(G_k) per step; kappa and rho span ||x_k - x*|| over the kept iterates x_1 ...,
        a diverged repeat's last row left out; on f = 0.5 ||x - x*||^2 + f*, G = rho."""
        prob = make_quadratic_problem(3, 16, 0.2, Rng(18))
        trace = run_fsg_convex(prob, C=c, beta=0.9, T=300, repeats=2, rng=Rng(19),
                               slow_noise=0.1)
        assert trace.failed_repeats == ([0, 1] if c > 1 else [])
        for xs, phig in zip(trace.xs, trace.phi_g):
            assert len(xs) == len(phig) + 1
            assert (len(xs) < 301) if trace.failed else (len(xs) == 301)
        kept = np.concatenate([xs[1:-1] if trace.failed else xs[1:] for xs in trace.xs])
        assert len(kept) > 0
        dists = np.linalg.norm(kept - prob.x_star, axis=1)
        consts = trace.constants
        assert consts["kappa"] == pytest.approx(dists.min(), rel=1e-14)
        assert consts["rho"] == pytest.approx(dists.max(), rel=1e-14)
        assert consts["G"] == consts["rho"]

    def test_bound_upper_bounds_measured_gap(self):
        rng = Rng(20)
        prob = make_quadratic_problem(10, 64, 0.1, rng.derive("p"))
        phi = make_phi(10, 0.8, 1.25, rng.derive("phi"))
        trace = run_fsg_convex(prob, C=4.0, beta=0.5, T=2000, repeats=2,
                               rng=rng.derive("r"), phi=phi, slow_noise=0.5)
        bound = theorem_bound(trace, trace.ts)
        assert np.all(trace.gaps <= bound)

    @pytest.mark.parametrize("omega,theta", [(1.5, 1.0), (-1.0, 1.0), (0.0, 1.0)])
    def test_phi_bracket_rejected(self, omega, theta):
        with pytest.raises(ContractError, match=f"omega = {omega}, theta = {theta}"):
            make_phi(4, omega, theta, Rng(21))

    def test_phi_one_dimensional_is_the_bracket_midpoint(self):
        phi = make_phi(1, 0.8, 1.25, Rng(21))
        assert np.array_equal(phi.matrix, [[0.5 * (0.8 + 1.25)]])
        assert (phi.omega, phi.theta) == (0.8, 1.25)

    def test_phi_singular_bracket(self):
        phi = make_phi(6, 0.8, 1.25, Rng(21))
        svals = np.linalg.svd(phi.matrix, compute_uv=False)
        assert svals.min() >= 0.8 - 1e-9
        assert svals.max() <= 1.25 + 1e-9
        rng = Rng(22)
        for _ in range(20):
            v = rng.normals(6)
            n = np.linalg.norm(phi(v))
            assert 0.8 * np.linalg.norm(v) - 1e-9 <= n <= 1.25 * np.linalg.norm(v) + 1e-9

