"""Empirical convergence bench for the fast/slow update on convex problems.

The iteration under test is

    x_{k+1} = x_k - alpha * Phi_f(G_k) + beta * ((x_k - x_{k-1}) + xi_k)

where G_k is an unbiased stochastic gradient, Phi_f a fixed well-conditioned
linear map standing in for the fast net (singular values inside a known
[omega, theta] bracket), and the slow branch is the exact previous step plus
zero-mean noise xi_k, honoring the zero-expected-error assumption on the
generated momentum.  alpha is held at C / sqrt(T+1) for the whole horizon.

The iteration loop only records each run: its iterates and its realized
update terms.  The rest is derived from that record afterwards: the
averaged-iterate gap curve, the auxiliary-sequence recursion

    x_{k+1} + p_{k+1} = x_k + p_k - alpha/(1-beta) * Phi_f(G_k)
                        + beta/(1-beta) * xi_k,
    p_k = beta/(1-beta) * (x_k - x_{k-1}),  p_0 = 0

checked as an algebraic identity, and the constants (G, delta, kappa, rho)
of the theoretical bound

    gap(t) <= beta (f0 - f*) / ((1-beta)(t+1))
              + (1-beta) ||x0 - x*||^2 / (2 C omega kappa sqrt(t+1))
              + C theta rho (G^2 + delta^2) / (2 omega kappa (1-beta) sqrt(t+1)).

On these quadratics grad f(x) = x - x*, so G = max ||grad f(x_k)|| is
rho = max ||x_k - x*||.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, FitError
from .rng import Rng
from .tensor import DTYPE, orthogonal_init

DIVERGENCE_LIMIT = 1e12
FIT_WINDOW = (100, 10000)  # iteration counts `rate_fit` fits over by default


# ---------------------------------------------------------------------------
# problems
# ---------------------------------------------------------------------------


@dataclass
class ConvexProblem:
    """Finite-sum quadratic f_i = 0.5 ||x - c_i||^2 with its minimizer x* = mean c_i
    and f* = f(x*), so f(x) = 0.5 ||x - x*||^2 + f* and E||grad_i - grad||^2 = 2 f*."""

    dim: int
    n_components: int
    x_star: np.ndarray
    f_star: float
    centers: np.ndarray

    def value(self, x) -> float:
        return 0.5 * float(np.sum((x - self.x_star) ** 2)) + self.f_star

    def grad(self, x) -> np.ndarray:
        return x - self.x_star

    def grad_component(self, x, i: int) -> np.ndarray:
        return x - self.centers[i]


def make_quadratic_problem(dim: int, n_components: int, noise: float,
                           rng: Rng) -> ConvexProblem:
    """Component quadratics with gradient-noise RMS ~= noise."""
    if dim < 1 or n_components < 1:
        raise ContractError(f"dim and n_components must be >= 1, got dim = {dim}, "
                            f"n_components = {n_components}")
    centers = noise * rng.normals((n_components, dim)) / np.sqrt(dim)
    x_star = centers.mean(axis=0)
    f_star = 0.5 * float(np.mean(np.sum((centers - x_star) ** 2, axis=1)))
    return ConvexProblem(dim, n_components, x_star, f_star, centers)


# ---------------------------------------------------------------------------
# the fast-map stand-in
# ---------------------------------------------------------------------------


@dataclass
class PhiMap:
    """Fixed linear map with singular values inside [omega, theta]."""

    matrix: np.ndarray
    omega: float
    theta: float

    def __call__(self, v):
        return self.matrix @ v


def make_phi(dim: int, omega: float, theta: float, rng: Rng) -> PhiMap:
    """Symmetric positive definite map with eigenvalues spanning [omega, theta].

    Positive definiteness keeps -Phi(grad) a descent direction, matching the
    proof's use of the fast map as a positive scalar-like factor; the
    eigenvalues are also the singular values, so ||Phi x|| stays inside
    [omega ||x||, theta ||x||].
    """
    if not 0.0 < omega <= theta:
        raise ContractError(f"Phi bracket needs 0 < omega <= theta, got omega = {omega}, "
                            f"theta = {theta}")
    q = orthogonal_init(dim, dim, rng)
    if dim == 1:
        eigs = np.array([0.5 * (omega + theta)], dtype=DTYPE)
    else:
        eigs = np.linspace(omega, theta, dim)
    return PhiMap(q @ np.diag(eigs) @ q.T, omega, theta)


def identity_phi(dim: int) -> PhiMap:
    return PhiMap(np.eye(dim, dtype=DTYPE), 1.0, 1.0)


# ---------------------------------------------------------------------------
# the bench itself
# ---------------------------------------------------------------------------


@dataclass
class IterateTrace:
    ts: np.ndarray  # logged iteration counts
    gaps: np.ndarray  # mean over repeats of f(x_hat_t) - f*
    gap_stderr: np.ndarray
    alpha: float
    beta: float
    C: float
    xs: list = field(default_factory=list)  # per repeat: (T+1, d) iterates
    phi_g: list = field(default_factory=list)  # per repeat: (T, d) realized Phi(G_k)
    noise: list = field(default_factory=list)  # per repeat: (T, d) slow-branch noise
    x_hat: list = field(default_factory=list)  # per repeat: final running average
    failed_repeats: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.failed_repeats)


def _log_spaced_ts(total: int, points: int = 60) -> np.ndarray:
    ts = np.unique(np.round(np.logspace(0.0, np.log10(total), points)).astype(int))
    return ts[ts >= 1]


def run_fsg_convex(problem: ConvexProblem, C: float, beta: float, T: int,
                   repeats: int, rng: Rng, phi: PhiMap | None = None,
                   slow_noise: float = 0.0, x0=None) -> IterateTrace:
    """Run the fast/slow iteration `repeats` times and log the gap curve."""
    if not C > 0:  # also a NaN C
        raise ContractError(f"C must be positive, got {C}")
    if not 0.0 <= beta < 1.0:
        raise ContractError(f"beta must be in [0, 1), got {beta}")
    if T < 1 or repeats < 1:
        raise ContractError(f"T and repeats must be >= 1, got T = {T}, repeats = {repeats}")
    if not np.isfinite(slow_noise):
        raise ContractError(f"slow_noise must be finite, got {slow_noise}")
    dim = problem.dim
    phi = phi or identity_phi(dim)
    x0 = np.full(dim, 1.0, dtype=DTYPE) if x0 is None else np.asarray(x0, dtype=DTYPE)
    if x0.shape != (dim,) or not np.isfinite(x0).all():
        raise ContractError(f"x0 must be a finite ({dim},) vector, got {x0!r}")
    log_ts = _log_spaced_ts(T)
    alpha = C / np.sqrt(T + 1.0)

    trace = IterateTrace(ts=log_ts, gaps=np.zeros(log_ts.size),
                         gap_stderr=np.zeros(log_ts.size),
                         alpha=float(alpha), beta=beta, C=C)
    gap_rows = []  # per finished repeat: its gaps at log_ts
    dists = []  # ||x_k - x*|| over every repeat's iterates x_1 ..., the diverged row left out

    for rep in range(repeats):
        rrng = rng.derive(f"repeat-{rep}")
        xs = np.empty((T + 1, dim), dtype=DTYPE)
        phig = np.empty((T, dim), dtype=DTYPE)
        xi = np.zeros((T, dim), dtype=DTYPE)
        xs[0] = x0
        x_prev = x = x0
        steps = T  # iterations whose x_{k+1} stayed bounded
        for k in range(T):
            phig[k] = phi(problem.grad_component(x, rrng.integer(problem.n_components)))
            if slow_noise:
                xi[k] = slow_noise * rrng.normals(dim) / np.sqrt(dim)
            x_prev, x = x, x - alpha * phig[k] + beta * ((x - x_prev) + xi[k])
            xs[k + 1] = x
            if not np.linalg.norm(x) <= DIVERGENCE_LIMIT:  # also a NaN iterate
                trace.failed_repeats.append(rep)
                steps = k
                break
        trace.xs.append(xs[: steps + 2])
        trace.phi_g.append(phig[: steps + 1])
        trace.noise.append(xi[: steps + 1])
        dists += [float(np.linalg.norm(row - problem.x_star)) for row in xs[1 : steps + 1]]
        if steps < T:
            trace.x_hat.append(None)
            continue
        sums = np.cumsum(xs, axis=0)  # row t is x_0 + ... + x_t, added in order
        gap_rows.append([problem.value(sums[t] / (t + 1.0)) - problem.f_star for t in log_ts])
        trace.x_hat.append(sums[T] / (T + 1.0))

    if gap_rows:
        gap_rows = np.array(gap_rows, dtype=DTYPE)
        trace.gaps = gap_rows.mean(axis=0)
        trace.gap_stderr = (gap_rows.std(axis=0, ddof=1) / np.sqrt(len(gap_rows))
                            if len(gap_rows) > 1 else np.zeros(log_ts.size))
    rho = max(dists, default=0.0)
    trace.constants = dict(
        omega=phi.omega, theta=phi.theta, G=rho,
        kappa=min(dists, default=np.inf), rho=rho,
        delta_sq=2.0 * problem.f_star + slow_noise**2,
        f0_gap=problem.value(x0) - problem.f_star,
        x0_dist=float(np.linalg.norm(x0 - problem.x_star)),
    )
    return trace


def pk_recursion_check(trace: IterateTrace, beta: float) -> float:
    """Max residual of the auxiliary-sequence recursion over all recorded runs.

    This is an algebraic identity of the implemented update, so any residual
    above float rounding is an implementation bug.
    """
    if not trace.phi_g:
        raise ContractError("trace does not store realized update terms")
    worst = 0.0
    ratio = beta / (1.0 - beta)
    for xs, phig, xi in zip(trace.xs, trace.phi_g, trace.noise):
        p = ratio * np.diff(xs, axis=0)  # row k is p_{k+1}
        p_prev = np.concatenate([np.zeros_like(xs[:1]), p[:-1]])  # row k is p_k
        lhs = xs[1:] + p
        rhs = xs[:-1] + p_prev - trace.alpha / (1.0 - beta) * phig + ratio * xi
        worst = np.max(np.abs(lhs - rhs), initial=worst)  # a NaN propagates
    return float(worst)


def rate_fit(ts, gaps, window=FIT_WINDOW) -> float:
    """Least-squares slope of log(gap) vs log(t+1) over the window."""
    ts = np.asarray(ts, dtype=DTYPE)
    gaps = np.asarray(gaps, dtype=DTYPE)
    mask = (ts >= window[0]) & (ts <= window[1])
    if not mask.any():
        raise ContractError(f"no logged points inside window {window}")
    sel_t = ts[mask]
    sel_g = gaps[mask]
    bad = np.nonzero(sel_g <= 0.0)[0]
    if bad.size:
        raise FitError(int(bad[0]), f"nonpositive gap at window index {int(bad[0])}")
    x = np.log(sel_t + 1.0)
    y = np.log(sel_g)
    a = np.stack([x, np.ones_like(x)], axis=1)
    slope, _ = np.linalg.lstsq(a, y, rcond=None)[0]
    return float(slope)


def theorem_bound(trace: IterateTrace, t) -> np.ndarray:
    """Evaluate the convergence bound's right-hand side at iteration count t."""
    c = trace.constants
    t = np.asarray(t, dtype=DTYPE)
    beta = trace.beta
    term1 = beta / ((1.0 - beta) * (t + 1.0)) * c["f0_gap"]
    term2 = (1.0 - beta) * c["x0_dist"] ** 2 / (
        2.0 * trace.C * c["omega"] * c["kappa"] * np.sqrt(t + 1.0)
    )
    term3 = trace.C * c["theta"] * c["rho"] * (c["G"] ** 2 + c["delta_sq"]) / (
        2.0 * c["omega"] * c["kappa"] * (1.0 - beta) * np.sqrt(t + 1.0)
    )
    return term1 + term2 + term3
