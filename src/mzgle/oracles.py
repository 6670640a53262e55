"""Independent reference computations for validating reduced models.

Nothing here goes through the kernel expansions or the Volterra solver:
autocorrelations and means come from closed forms or dense matrix
exponentials.

The propagated oracles share one propagator: on a uniform grid from t = 0,
the observable rows w_k = (e^{t_k A})^T e_index come from powers of one
dense step exponential.  The autocorrelation reads entry `index` of each
row and the exact mean is w_k . <x(0)>.  The Monte Carlo mean samples the
Gaussian law x(0) = <x(0)> + Q z, z ~ N(0, I_d), of a mixing matrix Q
(n x d): it is w_k . <x(0)> + (w_k Q) z_bar with standard error
sqrt((w_k Q) S (w_k Q)^T / n) from the mean z_bar and covariance S of the
n >= 2 draws of z.  The draws are made and merged in blocks of
linalg.BLOCK_CELLS values, so the Monte Carlo oracle's memory does not
depend on n.

The rows live in a Krylov space of A^T from e_index, found by
linalg.arnoldi, and the step is exponentiated on that space only.  Arnoldi
touches A^T only through ``A.T @ v``, so a sparse A (the graph chains'
SparseMatrix) stays sparse.  The run ends in one of three ways.  The space
closes, and is then invariant to rounding: on a graph whose shells around
the tag are symmetric, such as the rooted Bethe tree, it is one momentum
and one position per shell (17 of 1532 dimensions at 8 shells).  It fills
the whole space (the 20-dimensional clamped path).  Or, at a dimension k
of KRYLOV_CHECK_DIM = 32 times a power of two, Saad's a-posteriori
estimate of the error of e^{t H} e_1 over the grid, beta * max_t |e_k .
e^{t H} e_1| with beta the residual norm (Saad, SIAM J. Numer. Anal. 29,
1992; the step control of Sidje's Expokit, ACM TOMS 24, 1998), is at most
KRYLOV_EXPM_TOL = 1e-15 times the largest coordinate: the 6000-dimensional
ER(3000, 0.002) chain stops at k = 128 on [0, 10].  The estimate is the
leading term of the error, not a bound; a Krylov approximation of
e^{t A^T} v converges superlinearly once k passes t * ||A||, where the
estimate's next terms are far smaller than its first.  The
autocorrelation and the exact mean stay in the space's coordinates, with
one basis column or the projected mean, and the Monte Carlo mean with the
projected mean and mixing matrix, so none of them forms the (len(grid) x
n) table of rows: 201 x 17 values on the tree against 201 x 1531.  The
oracles use the full A, never the reduced blocks or the spectrum the
kernels use.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gle import Trajectory
from .kernels import StatsKind
from .linalg import BLOCK_CELLS, arnoldi, expm_dense, uniform_step

# The Krylov run checks its error estimate at this dimension and at each
# doubling of it, so a space that closes below it takes one exponential
KRYLOV_CHECK_DIM = 32
# Largest error estimate, relative to the largest coordinate, that ends
# the Krylov run
KRYLOV_EXPM_TOL = 1e-15


def vacf_analytic_l2(t, omega=1.0):
    """Closed-form tagged-oscillator autocorrelation of the fixed-end chain,
    J_0(2 omega t) - J_4(2 omega t).

    With x = 2 omega t, Bessel's integral gives

        J_0(x) - J_4(x) = (1/pi) int_0^pi [cos(x sin s) - cos(4s - x sin s)] ds,

    summed by the midpoint rule on N = ceil(max x) + 64 nodes.  The
    integrand is even and 2 pi-periodic in s, so the rule is the 2N-point
    trapezoid rule on a whole period, which converges geometrically: its
    error is a sum of J_{2Nk +- n}(x), n = 0, 4, k >= 1, far below the
    rounding once 2N - 4 exceeds 2x + 120 (Trefethen and Weideman, SIAM
    Rev. 56, 2014).  The nodes pair up as s and pi - s, and each pair's
    cos(4s - x sin s) terms sum to 2 cos(4s) cos(x sin s), so the rule is
    sum_k w_k cos(x sin s_k) with weights w_k = (1 - cos 4 s_k) / N: one
    cosine per node and time.  Against SciPy's ``jv`` the values are within
    about 2.5e-15 on x in [0, 200].  The times go linalg.BLOCK_CELLS cells
    at a time, so the memory does not grow with the number of times or
    with x.  Nothing here is shared with the Faber modes' Bessel
    recurrence, which this oracle checks.  t and omega must be finite and
    t >= 0.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError(f"t must be finite, got t = {t[~np.isfinite(t)][0]}")
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got omega = {omega}")
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    x = (2.0 * omega * t).ravel()
    nodes = math.ceil(x.max(initial=0.0)) + 64
    s = (np.arange(nodes) + 0.5) * (math.pi / nodes)
    sin_s, weight = np.sin(s), (1.0 - np.cos(4.0 * s)) / nodes
    out = np.empty(x.shape)
    rows = max(1, BLOCK_CELLS // nodes)
    for start in range(0, x.size, rows):
        out[start:start + rows] = np.cos(np.multiply.outer(x[start:start + rows], sin_s)) @ weight
    return out.reshape(t.shape)[()]    # a scalar t gives a scalar, as from a ufunc


def _step_rows(hess, dt, count):
    """The coordinates zs (count x k) of the rows on a grid of step dt:
    zs[0] = e_1 and zs[j + 1] = e^{dt H} zs[j], by one dense step
    exponential."""
    step = expm_dense(hess, dt)
    z = np.zeros(hess.shape[0])
    z[0] = 1.0
    zs = np.empty((count, hess.shape[0]))
    for j in range(count):
        zs[j] = z
        z = step @ z
    return zs


def _propagate(system, index, grid):
    """The grid as an array, the coordinates zs (len(grid) x k) of the
    rows w_k = (e^{t_k A})^T e_index in a Krylov space of A^T from
    e_index, and that space's orthonormal rows V (k x n), so that
    w_k = zs[k] V.

    The grid must be uniform, start at t = 0 and have at least two points.
    V and H = V A^T V^T come from linalg.arnoldi on A^T from e_index, and
    zs[k] = e^{t_k H} e_1 is stepped by one dense step exponential.  The
    run ends when the space closes (it is then invariant to rounding),
    when it fills the whole space, or at the first k = KRYLOV_CHECK_DIM
    * 2^j where Saad's estimate of the error, beta * max_j |zs[j, -1]|
    with beta the residual norm, is at most KRYLOV_EXPM_TOL * max|zs|;
    the checked zs are then the result.  The estimate is the leading term
    of the error's expansion, not a bound.
    """
    if not 1 <= index <= system.dim:
        raise ValueError(f"index must be in 1..{system.dim}")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.shape[0] < 2:
        raise ValueError("grid needs at least two points")
    if abs(grid[0]) > 1e-12:
        raise ValueError("grid must start at t = 0")
    dt, count = uniform_step(grid), grid.shape[0]
    checked = []

    def converged(hess, beta):
        k = hess.shape[0]
        if k >= KRYLOV_CHECK_DIM and not k & (k - 1):
            zs = _step_rows(hess, dt, count)
            if beta * np.abs(zs[:, -1]).max() <= KRYLOV_EXPM_TOL * np.abs(zs).max():
                checked.append(zs)
        return bool(checked)

    e = np.zeros(system.dim)
    e[index - 1] = 1.0
    basis, hess = arnoldi(system.A.T, e, system.dim, converged)
    return grid, checked[0] if checked else _step_rows(hess, dt, count), basis


def vacf_matrix_exp(system, index, grid):
    """Equilibrium autocorrelation of momentum coordinate `index` (1-based).

    With identity momentum covariance and vanishing momentum-position
    cross-correlation, C(t) equals the (index, index) entry of e^{t A}:
    of the sum over states j of [e^{tA}]_{index,j} <x_j p_index>, only the
    j = index term survives.  Evaluated exactly on a uniform grid from
    t = 0, as entry `index` of each row w_k: zs times column `index` of
    the subspace basis, no (len(grid) x n) row table.

    The system must have equilibrium-quadratic statistics, whose SystemSpec
    has the doubled layout (momentum block then position block).  Returns
    a Trajectory.
    """
    if system.stats_kind is not StatsKind.BERNE_EQUILIBRIUM_QUADRATIC:
        raise ValueError("the autocorrelation needs equilibrium-quadratic statistics")
    h = system.dim // 2
    if not 1 <= index <= h:
        raise ValueError(f"index must be a momentum coordinate in 1..{h}")
    grid, zs, basis = _propagate(system, index, grid)
    return Trajectory(times=grid, values=zs @ basis[:, index - 1])


def exact_mean(system, index, grid):
    """Mean of coordinate `index` (1-based) along the exact flow.

    <x_index(t)> = e_index . e^{t A} <x(0)> = w_k . <x(0)>, evaluated on a
    uniform grid from t = 0 as zs times the mean's subspace coordinates
    V <x(0)>.
    """
    grid, zs, basis = _propagate(system, index, grid)
    return Trajectory(times=grid, values=zs @ (basis @ system.init_mean))


@dataclass(frozen=True)
class MonteCarloMean:
    """Sample mean of an observable along exact trajectories."""

    trajectory: Trajectory
    stderr: np.ndarray


def mc_mean(system, mixing, index, grid, n_samples, seed):
    """Monte Carlo estimate of <x_index(t)> over initial states
    x(0) = system.init_mean + mixing z, z ~ N(0, I_d), mixing (dim x d).

    Each sample is propagated exactly (observable rows on a uniform grid
    from t = 0), so the only error is statistical.  The mean and standard
    error follow from the sample mean z_bar and covariance S of z, mapped
    once by W = zs (V mixing), the rows times the mixing matrix in the
    subspace coordinates of _propagate: the mean is zs V init_mean + W z_bar
    and the variance diag(W S W^T).

    z is drawn from PCG64(seed) as rows of standard normals, in consecutive
    blocks of BLOCK_CELLS // d rows that together are the rows of one draw
    of n_samples, each drawn into the same buffer.  Each block's mean and
    scatter Z^T Z about it are merged by the pairwise update of Chan,
    Golub and LeVeque (1979), so memory does not depend on n_samples;
    with one block the arithmetic is that of a single draw.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2 for a sample covariance")
    grid, zs, basis = _propagate(system, index, grid)
    mean0 = basis @ system.init_mean
    w = zs @ (basis @ mixing)
    d = w.shape[1]
    rng = np.random.Generator(np.random.PCG64(seed))
    block = BLOCK_CELLS // max(d, 1)
    buf = np.empty((min(block, n_samples), d))
    for start in range(0, n_samples, block):
        size = min(block, n_samples - start)
        z = rng.standard_normal(out=buf[:size])
        zbar = z.mean(axis=0)
        z -= zbar
        if start == 0:
            mean, scatter = zbar, z.T @ z
        else:
            total = start + size
            delta = zbar - mean
            mean += delta * (size / total)
            scatter += z.T @ z
            scatter += np.outer(delta, delta * (start * size / total))
    cov = scatter / (n_samples - 1)
    # w^T S w >= 0 in exact arithmetic; clamp the rounding below zero
    var = np.maximum(np.einsum("kd,kd->k", w @ cov, w), 0.0)
    return MonteCarloMean(trajectory=Trajectory(times=grid, values=zs @ mean0 + w @ mean),
                          stderr=np.sqrt(var / n_samples))
