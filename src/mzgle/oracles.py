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

The step is exponentiated on the smallest A^T-invariant subspace that
contains e_index, found by linalg.arnoldi on A^T from e_index: e^{t A^T}
e_index never leaves it.  On a graph whose shells around the tag are
symmetric, such as the rooted Bethe tree, that subspace is one momentum
and one position per shell (17 of 1532 dimensions at 8 shells).  Arnoldi
touches A^T only through ``A.T @ v``, so a sparse A (the graph chains'
SparseMatrix) stays sparse.  When the subspace has more than ceil(n/8)
dimensions the whole space is used, with the same arithmetic as a plain
dense exponential, for which expm_dense expands a sparse A.  A residual
beta dropped at arnoldi's closing tolerance costs
at most t * beta * sup|e^{s A^T}| * sup|e^{s H}|, about 1e-13 at t = 10 on
the tree.  The autocorrelation and the exact mean stay in the subspace's
coordinates, with one basis column or the projected mean, and the Monte
Carlo mean with the projected mean and mixing matrix, so none of them
forms the (len(grid) x n) table of rows: 201 x 17 values on the tree
against 201 x 1531.  The oracles use the full A, never the reduced
blocks or the spectrum the kernels use.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gle import Trajectory
from .kernels import _require_hamiltonian_shape
from .linalg import BLOCK_CELLS, arnoldi, expm_dense, uniform_step


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
    recurrence, which this oracle checks.
    """
    t = np.asarray(t, dtype=float)
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


def _propagate(system, index, grid):
    """The grid as an array, the coordinates zs (len(grid) x k) of the
    rows w_k = (e^{t_k A})^T e_index in the smallest A^T-invariant
    subspace that holds e_index, and that subspace's orthonormal rows V
    (k x n), so that w_k = zs[k] V; V is None for the whole space.

    The grid must be uniform, start at t = 0 and have at least two points.
    V and H = V A^T V^T come from linalg.arnoldi on A^T from e_index,
    zs[k] = e^{t_k H} V e_index, and e^{t_k H} is a power of one dense
    step exponential.  When the subspace has more than ceil(n/8)
    dimensions (arnoldi returns None) the whole space is used instead
    (H = A^T, V = I) and zs holds the rows themselves.  Dropping a residual
    beta below the closing tolerance costs at most t * beta *
    sup|e^{s A^T}| * sup|e^{s H}| at time t.
    """
    if not 1 <= index <= system.dim:
        raise ValueError(f"index must be in 1..{system.dim}")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.shape[0] < 2:
        raise ValueError("grid needs at least two points")
    if abs(grid[0]) > 1e-12:
        raise ValueError("grid must start at t = 0")
    e = np.zeros(system.dim)
    e[index - 1] = 1.0
    basis, hess = arnoldi(system.A.T, e, -(-system.dim // 8)) or (None, system.A.T)
    step = expm_dense(hess, uniform_step(grid))
    z = np.zeros(hess.shape[0])
    z[index - 1 if basis is None else 0] = 1.0
    zs = np.empty((grid.shape[0], hess.shape[0]))
    for k in range(grid.shape[0]):
        zs[k] = z
        z = step @ z
    return grid, zs, basis


def vacf_matrix_exp(system, index, grid):
    """Equilibrium autocorrelation of momentum coordinate `index` (1-based).

    With identity momentum covariance and vanishing momentum-position
    cross-correlation, C(t) equals the (index, index) entry of e^{t A}:
    of the sum over states j of [e^{tA}]_{index,j} <x_j p_index>, only the
    j = index term survives.  Evaluated exactly on a uniform grid from
    t = 0, as entry `index` of each row w_k: zs times column `index` of
    the subspace basis, no (len(grid) x n) row table.

    Returns a Trajectory.
    """
    _require_hamiltonian_shape(system.A)
    h = system.dim // 2
    if not 1 <= index <= h:
        raise ValueError(f"index must be a momentum coordinate in 1..{h}")
    grid, zs, basis = _propagate(system, index, grid)
    values = zs[:, index - 1].copy() if basis is None else zs @ basis[:, index - 1]
    return Trajectory(times=grid, values=values)


def exact_mean(system, index, grid):
    """Mean of coordinate `index` (1-based) along the exact flow.

    <x_index(t)> = e_index . e^{t A} <x(0)> = w_k . <x(0)>, evaluated on a
    uniform grid from t = 0 as zs times the mean's subspace coordinates
    V <x(0)>.
    """
    grid, zs, basis = _propagate(system, index, grid)
    mean = system.init_mean if basis is None else basis @ system.init_mean
    return Trajectory(times=grid, values=zs @ mean)


@dataclass(frozen=True)
class MonteCarloMean:
    """Sample mean of an observable along exact trajectories."""

    trajectory: Trajectory
    stderr: np.ndarray
    n_samples: int
    seed: int


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
    of n_samples.  Each block's mean and scatter Z^T Z about it are merged
    by the pairwise update of Chan, Golub and LeVeque (1979), so memory
    does not depend on n_samples; with one block the arithmetic is that of
    a single draw.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2 for a sample covariance")
    grid, zs, basis = _propagate(system, index, grid)
    mean0 = system.init_mean
    if basis is not None:
        mixing, mean0 = basis @ mixing, basis @ mean0
    w = zs @ mixing
    d = w.shape[1]
    rng = np.random.Generator(np.random.PCG64(seed))
    block = BLOCK_CELLS // max(d, 1)
    for start in range(0, n_samples, block):
        size = min(block, n_samples - start)
        z = rng.standard_normal((size, d))
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
                          stderr=np.sqrt(var / n_samples),
                          n_samples=n_samples, seed=seed)
