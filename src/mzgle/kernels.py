"""Reduction of linear systems to scalar GLE data and memory-kernel series.

For dx/dt = A x with a scalar observable (one coordinate of x), projecting
onto the observable turns the dynamics into

    dy/dt = a y(t) + b + int_0^t g(t-s) y(s) ds + int_0^t f(t-s) ds

where a and b are streaming constants and g, f are memory kernels.  With the
observable permuted to coordinate 1, every projected coefficient is a vector
product through polynomials of the trailing block: writing avec for the first
row of A (minus the diagonal entry), bvec for the first column, and M11 for
the trailing submatrix,

    a = A_11,   b = avec . mean_rest,   g(t) = bvec . e^{t M11^T} avec,
    f(t) = (e^{t M11^T} M11^T avec) . mean_rest.

Four expansions of e^{t M11^T} give four coefficient families: Faber
(elliptic polynomial basis with temporal modes
e^{t c0} t^j 0F1(; j+1; c1 t^2)/j!, Bessel J_j for c1 < 0 and I_j for
c1 > 0, orders up to faber.MAX_ORDER), Dyson (monomials, modes t^j/j!:
the Faber series of the unit disk, c0 = c1 = 0), Lagrange (spectral
interpolation, modes e^{lambda_j t}) and Newton (divided differences of
the exponential).  This module computes the coefficient tables, evaluates
kernels in time, and sums the Laplace-domain series for the Dyson and
Faber families.

Lagrange interpolation on the full spectrum of a diagonalizable M11^T turns
each basis polynomial into the spectral projector r_j l_j^H / (l_j^H r_j)
of eigenvalue lambda_j, so its coefficients are products of eigenvector
inner products from one eigendecomposition and reproduce the kernel to
rounding.  Newton's series runs on the eigenvalues of M11^T in Leja order;
its temporal modes, the divided differences of e^{t z}, come from Opitz's
theorem and stay accurate on repeated and clustered nodes.  The
eigenvalues come from one solve, reduced_spectrum, which takes half the
size on harmonic chains.

On a uniform grid of K times the Lagrange and Newton kernels are
c^T e^{t Z} v for one small matrix Z, so kernel_eval_grid tabulates them
as a product of ceil(K/B) coefficient rows c^T e^{i B dt Z} and B mode
columns e^{t_j Z} v, B = ceil(sqrt K): O(m^2 sqrt K + m K) flops and
O(m sqrt K) memory for m modes, each row and column one vector-matrix
step from the last.  These two families take one point or a uniform
grid.  Faber and Dyson modes have no such shift rule; they take any
grid and sum their (order+1) x K mode table in column blocks of
linalg.BLOCK_CELLS values, so their memory does not grow with K.
"""

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import (BLOCK_CELLS, Spectrum, as_matrix, as_vector, eigenvalues,
                     uniform_step)
from .faber import EllipseMap, faber_modes_grid, faber_recurrence_apply

# Pairwise eigenvalue gap below this fraction of the spectral radius makes
# Lagrange weights blow up; such spectra are routed to the Newton family.
LAGRANGE_GAP_TOL = 1e-8
# Zero-block test for the doubled-Hamiltonian shape, relative to max |A|.
HAMILTONIAN_BLOCK_TOL = 1e-12
# psi(w) = w, whose Faber polynomials are the monomials: Dyson's map
UNIT_DISK = EllipseMap.from_axes(0.0, 1.0, 1.0)


class StatsKind(enum.Enum):
    """Initial-condition statistics determining the projection.

    CHORIN_INITIAL: conditional expectation with respect to the initial
    density; resolved and unresolved coordinates must be statistically
    independent and only the unresolved mean enters the reduced model.

    BERNE_EQUILIBRIUM_QUADRATIC: projection onto the observable weighted by
    the equilibrium measure of a quadratic Hamiltonian, where momentum
    covariance is proportional to identity and momentum-position
    cross-correlations vanish.
    """

    CHORIN_INITIAL = "chorin-initial"
    BERNE_EQUILIBRIUM_QUADRATIC = "berne-equilibrium-quadratic"


class KernelFamily(enum.Enum):
    DYSON = "dyson"
    FABER = "faber"
    LAGRANGE = "lagrange"
    NEWTON = "newton"


@dataclass(frozen=True)
class SystemSpec:
    """A linear system dx/dt = A x with initial statistics.

    A : (N, N) generator
    init_mean : length-N mean of x(0)
    stats_kind : StatsKind
    """

    A: np.ndarray
    init_mean: np.ndarray
    stats_kind: StatsKind

    def __post_init__(self):
        a = as_matrix(self.A, square=True)
        m = as_vector(self.init_mean, length=a.shape[0])
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "init_mean", m)
        if not isinstance(self.stats_kind, StatsKind):
            raise TypeError("stats_kind must be a StatsKind")
        if self.stats_kind is StatsKind.BERNE_EQUILIBRIUM_QUADRATIC:
            _require_hamiltonian_shape(a)

    @property
    def dim(self):
        return self.A.shape[0]


def _require_hamiltonian_shape(a):
    n = a.shape[0]
    if n % 2:
        raise ValueError(
            "equilibrium-quadratic statistics need a doubled system "
            "(momentum block then position block); got odd dimension"
        )
    h = n // 2
    # max(x.max(), -x.min()) is max |x| without an |x| copy of a
    tol = HAMILTONIAN_BLOCK_TOL * max(a.max(), -a.min(), 1.0)
    if any(max(blk.max(), -blk.min()) > tol for blk in (a[:h, :h], a[h:, h:])):
        raise ValueError(
            "equilibrium-quadratic statistics need zero diagonal blocks "
            "(momenta coupled only to positions and vice versa)"
        )


@dataclass(frozen=True)
class ReducedData:
    """Lemma data of a system with the observable permuted to coordinate 1.

    a, b : streaming coefficients (b = 0 under equilibrium statistics)
    M11 : (N-1, N-1) trailing block
    avec : first row of the permuted generator minus the diagonal entry
    bvec : first column minus the diagonal entry
    mean_rest : mean of the unresolved initial coordinates (zero under
        equilibrium statistics, where it is unused)
    stats_kind : statistics the reduction was performed under
    """

    a: float
    b: float
    M11: np.ndarray
    avec: np.ndarray
    bvec: np.ndarray
    mean_rest: np.ndarray
    stats_kind: StatsKind

    def __post_init__(self):
        m = as_matrix(self.M11, square=True)
        k = m.shape[0]
        object.__setattr__(self, "M11", m)
        object.__setattr__(self, "avec", as_vector(self.avec, length=k))
        object.__setattr__(self, "bvec", as_vector(self.bvec, length=k))
        object.__setattr__(self, "mean_rest", as_vector(self.mean_rest, length=k))

    @property
    def dim_rest(self):
        return self.M11.shape[0]


@dataclass(frozen=True)
class KernelExpansion:
    """Truncated memory-kernel series in one expansion family.

    g, f : coefficient vectors of length order+1 (f is all-zero under
        equilibrium statistics, which carry no forcing term)
    mode_params : EllipseMap for the Faber family, one with c0 = c1 = 0
        (such as UNIT_DISK) for Dyson, Spectrum of M11^T for Lagrange, the
        order+1 nodes in Leja order for Newton
    """

    family: KernelFamily
    order: int
    g: np.ndarray
    f: np.ndarray
    mode_params: object

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.g))
        f = np.atleast_1d(np.asarray(self.f))
        if g.shape != (self.order + 1,) or f.shape != (self.order + 1,):
            raise ValueError("g and f must have length order+1")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "f", f)
        if self.family in (KernelFamily.DYSON, KernelFamily.FABER) and not isinstance(
                self.mode_params, EllipseMap):
            raise TypeError(f"{self.family.value.title()} expansion requires an EllipseMap")
        if self.family is KernelFamily.DYSON and (self.mode_params.c0 or self.mode_params.c1):
            raise ValueError("Dyson expansion requires the disk map c0 = c1 = 0")
        if self.family is KernelFamily.LAGRANGE and not isinstance(self.mode_params, Spectrum):
            raise TypeError("Lagrange expansion requires a Spectrum")
        if self.family is KernelFamily.NEWTON and np.shape(self.mode_params) != g.shape:
            raise ValueError("Newton expansion requires order+1 nodes")


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------

def reduce(system, observable_index):
    """Project a linear system onto one coordinate.

    Parameters
    ----------
    system : SystemSpec
    observable_index : int, 1-based coordinate to observe

    Returns
    -------
    ReducedData
    """
    n = system.dim
    if not 1 <= observable_index <= n:
        raise ValueError(f"observable_index must be in 1..{n}, got {observable_index}")
    if n < 2:
        raise ValueError("reduction needs at least one unresolved coordinate")
    i = observable_index - 1
    rest = np.r_[np.arange(i), np.arange(i + 1, n)]
    a = float(system.A[i, i])
    avec = system.A[i, rest]
    bvec = system.A[rest, i]
    m11 = system.A[np.ix_(rest, rest)]
    if system.stats_kind is StatsKind.BERNE_EQUILIBRIUM_QUADRATIC:
        if observable_index > n // 2:
            raise ValueError(
                "equilibrium-quadratic statistics require observing a "
                "momentum coordinate (index within the first block)"
            )
        b = 0.0
        mean_rest = np.zeros(n - 1)
    else:
        mean_rest = system.init_mean[rest]
        b = float(avec @ mean_rest)
    return ReducedData(a=a, b=b, M11=m11, avec=avec, bvec=bvec,
                       mean_rest=mean_rest, stats_kind=system.stats_kind)


def reduced_spectrum(r):
    """Spectrum of M11^T, the nodes of the spectral families.

    Under equilibrium-quadratic statistics M11 = [[0, S], [E, 0]] with
    h = dim_rest // 2 momentum rows, and det(lam I - M11) =
    lam det(lam^2 I - S E).  So the spectrum is +-sqrt(mu) over the
    eigenvalues mu of the h x h product S E, plus one 0.  For a harmonic
    chain S E is the symmetric stiffness with the tag removed, which takes
    the symmetric solve at half size and gives exactly imaginary values.
    Values of mu within h eps max|mu| of zero, their rounding level, are
    zero modes and are set to 0: the square root would raise that rounding
    to about 1e-8.  Other statistics solve M11^T itself.
    """
    if r.stats_kind is not StatsKind.BERNE_EQUILIBRIUM_QUADRATIC:
        return eigenvalues(r.M11.T)
    h = r.dim_rest // 2
    mu = eigenvalues(r.M11[:h, h:] @ r.M11[h:, :h]).eigenvalues
    tol = h * np.finfo(float).eps * np.max(np.abs(mu), initial=0.0)
    root = np.sqrt(np.where(np.abs(mu) <= tol, 0.0, mu))
    return Spectrum(np.concatenate([root, -root, [0.0]]))


def _has_forcing(r):
    return r.stats_kind is not StatsKind.BERNE_EQUILIBRIUM_QUADRATIC


# ---------------------------------------------------------------------------
# Coefficient families
# ---------------------------------------------------------------------------

def _faber_basis_coeffs(r, emap, n):
    """g_j = bvec.F_j(M11^T) avec and f_j = mean_rest.(M11^T F_j(M11^T) avec)
    for j <= n, one matrix-vector product per order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    mt = r.M11.T
    fv = faber_recurrence_apply(emap, mt, r.avec, n)
    f = fv @ (mt.T @ r.mean_rest) if _has_forcing(r) else np.zeros(n + 1)
    return fv @ r.bvec, f


def dyson_coeffs(r, n):
    """Monomial-basis coefficients g_j = bvec.(M11^T)^j avec for j <= n.

    Forcing coefficients f_j = mean_rest.(M11^T)^{j+1} avec.  These are the
    Faber coefficients of UNIT_DISK; powers of M11 are never formed.
    """
    g, f = _faber_basis_coeffs(r, UNIT_DISK, n)
    return KernelExpansion(family=KernelFamily.DYSON, order=n, g=g, f=f,
                           mode_params=UNIT_DISK)


def faber_coeffs(r, emap, n, spectrum=None):
    """Faber-basis coefficients g_j = bvec.F_j(M11^T) avec for j <= n.

    Forcing coefficients f_j = mean_rest.(M11^T F_j(M11^T) avec).  If the
    spectrum of M11^T is not contained in the map's ellipse a warning is
    issued (the series may then diverge); pass a precomputed spectrum to
    skip the eigenvalue solve.
    """
    g, f = _faber_basis_coeffs(r, emap, n)
    if spectrum is None and r.dim_rest > 0:
        spectrum = reduced_spectrum(r)
    if spectrum is not None and len(spectrum) and not emap.contains(spectrum.eigenvalues):
        warnings.warn(
            "spectrum of the unresolved block is not contained in the "
            "Faber ellipse; the expansion may diverge",
            RuntimeWarning,
        )
    return KernelExpansion(family=KernelFamily.FABER, order=n, g=g, f=f,
                           mode_params=emap)


def lagrange_coeffs(r):
    """Spectral-interpolation coefficients, one mode per eigenvalue of M11^T.

    The Lagrange basis polynomial at node lam_j, evaluated at the
    diagonalizable matrix M11^T, is the spectral projector
    r_j l_j^H / (l_j^H r_j) built from the right and left eigenvectors.  So
    mode j carries g_j = (bvec.r_j)(l_j^H avec) / (l_j^H r_j), the forcing
    coefficient f_j = lam_j (mean_rest.r_j)(l_j^H avec) / (l_j^H r_j), and
    the temporal factor e^{lam_j t}.  One eigendecomposition gives all
    modes; conjugate eigenvalues carry conjugate coefficients, so the
    evaluated kernel is real.
    """
    m = r.dim_rest
    if m == 0:
        raise ValueError("no unresolved coordinates: kernel is identically zero")
    mt = r.M11.T
    lam, vl, vr = scipy.linalg.eig(mt, left=True, right=True)
    order = np.lexsort((lam.imag, lam.real))   # Spectrum's ordering
    lam, vl, vr = lam[order], vl[:, order], vr[:, order]
    radius = max(float(np.max(np.abs(lam))), 1e-300)
    gaps = np.abs(lam[:, None] - lam[None, :]) + np.diag(np.full(m, np.inf))
    if float(np.min(gaps)) < LAGRANGE_GAP_TOL * radius:
        raise ValueError(
            "near-degenerate eigenvalues make the interpolation weights "
            "singular; use the Newton family instead"
        )
    lh = vl.conj()
    weight = (r.avec @ lh) / np.sum(lh * vr, axis=0)
    g = (r.bvec @ vr) * weight
    if _has_forcing(r):
        f = lam * (r.mean_rest @ vr) * weight
    else:
        f = np.zeros(m, dtype=complex)
    return KernelExpansion(family=KernelFamily.LAGRANGE, order=m - 1, g=g, f=f,
                           mode_params=Spectrum(lam))


def newton_order(lam):
    """Leja ordering of the nodes for divided differences (Reichel, BIT 30,
    1990).

    The node of largest modulus comes first; each next node maximizes the
    sum of log-distances to the nodes already chosen, so the basis
    products prod_k (M11^T - lam_k) grow like powers of the spectrum's
    capacity instead of with the order of the nodes.  Ties go to the first
    node in (real part descending, imaginary part ascending) order, so equal
    inputs give identical orders.  A repeated node is at distance zero from
    its copy, so once one copy is taken the others wait until every
    distinct node is.
    """
    lam = np.asarray(lam, dtype=complex)
    nodes = lam[np.lexsort((lam.imag, -lam.real))]
    picked = [int(np.argmax(np.abs(nodes)))]
    score = np.zeros(len(nodes))
    with np.errstate(divide="ignore"):
        for _ in range(len(nodes) - 1):
            score += np.log(np.abs(nodes - nodes[picked[-1]]))
            score[picked[-1]] = np.nan
            picked.append(int(np.nanargmax(score)))
    return nodes[picked]


def newton_coeffs(r, spectrum=None):
    """Divided-difference coefficients on the eigenvalue nodes of M11^T.

    With nodes lam_1..lam_m ordered by newton_order, mode j carries
    g_j = bvec.[prod_{k < j} (M11^T - lam_k)] avec and the temporal factor
    is the divided difference of e^{t z} over the first j nodes.  Pass a
    precomputed spectrum of M11^T to skip the eigenvalue solve.
    """
    m = r.dim_rest
    if m == 0:
        raise ValueError("no unresolved coordinates: kernel is identically zero")
    spec = reduced_spectrum(r) if spectrum is None else spectrum
    nodes = newton_order(spec.eigenvalues)
    # w_{j+1} = (M11^T - nodes[j]) w_j from w_0 = avec; M11^T is cast once
    mt = r.M11.T.astype(complex)
    g, f = np.zeros((2, m), dtype=complex)
    w = r.avec.astype(complex)
    for j, nu in enumerate(nodes):
        g[j] = r.bvec @ w
        mw = mt @ w
        if _has_forcing(r):
            f[j] = r.mean_rest @ mw
        w = mw - nu * w
    return KernelExpansion(family=KernelFamily.NEWTON, order=m - 1, g=g, f=f,
                           mode_params=nodes)


# ---------------------------------------------------------------------------
# Temporal evaluation
# ---------------------------------------------------------------------------

def _divided_diff_exp(nodes, t):
    """Divided differences of z -> e^{t z} over the leading node sets.

    Row j of the (len(nodes), len(t)) result is the difference over
    nodes[0..j].  By Opitz's theorem (McCurdy, Ng and Parlett, Math. Comp.
    43, 1984) these are the first column of e^{t Z}, Z lower bidiagonal with
    the nodes on its diagonal and ones below.  t is one point or a uniform
    grid, whose column k + 1 is e^{dt Z} times column k.
    """
    m = nodes.shape[0]
    z = np.diag(nodes) + np.eye(m, k=-1)
    out = np.empty((m, t.shape[0]), dtype=nodes.dtype)
    out[:, 0] = scipy.linalg.expm(t[0] * z)[:, 0]
    step = scipy.linalg.expm(uniform_step(t) * z)
    for j in range(1, t.shape[0]):
        out[:, j] = step @ out[:, j - 1]
    return out


def kernel_eval_grid(k, t):
    """Kernel values (g(t), f(t)) on an array of times.

    Returns a pair of arrays matching the shape of t.  Faber and Dyson take
    any times and sum their (order+1) x K mode table in blocks of
    BLOCK_CELLS // (order+1) times; the modes are pointwise in t, so the
    split changes nothing but the rounding of the final sums.  Lagrange
    and Newton take one point or a uniform grid t_k = t_0 + k dt, and raise
    ValueError otherwise: each value is c^T e^{t_k Z} v with (Z, v) the
    bidiagonal node matrix and e_0 (Newton, nodes read from mode_params)
    or (diag lam, 1) (Lagrange), and with B = ceil(sqrt K) and k = i B + j
    it factors as (c^T e^{i B dt Z}) (e^{t_j Z} v).  So the table is the
    product of ceil(K/B) coefficient rows, stepped by one direct jump
    e^{B dt Z} (for Lagrange, scaled by e^{lam i B dt}), and B mode
    columns, stepped by e^{dt Z}, instead of an m x K mode table.

    A Newton value at one point t > 0 (or at a grid's first time t_0 > 0)
    comes from one scipy.linalg.expm(t Z), whose normwise error large
    coefficients amplify; the pipeline tabulates only grids from t = 0.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    if k.family in (KernelFamily.DYSON, KernelFamily.FABER):
        g, f = np.empty((2, t.shape[0]))
        step = BLOCK_CELLS // (k.order + 1)
        for start in range(0, t.shape[0], step):
            cut = slice(start, start + step)
            h = faber_modes_grid(k.mode_params, t[cut], k.order)
            g[cut] = np.real(k.g @ h)
            f[cut] = np.real(k.f @ h)
        return g, f
    n_t = t.shape[0]
    dt = uniform_step(t)
    b = math.isqrt(n_t - 1) + 1
    steps = b * dt * np.arange(-(-n_t // b))
    coef = np.stack([k.g, k.f])
    if k.family is KernelFamily.LAGRANGE:
        lam = k.mode_params.eigenvalues
        cols = np.exp(np.multiply.outer(lam, t[:b]))
        rows = coef[:, None, :] * np.exp(np.multiply.outer(steps, lam))
    else:
        z = np.diag(k.mode_params) + np.eye(k.order + 1, k=-1)
        cols = _divided_diff_exp(k.mode_params, t[:b])
        rows = np.empty((2, steps.shape[0], k.order + 1), dtype=complex)
        rows[:, 0] = coef
        jump = scipy.linalg.expm(b * dt * z)
        for i in range(1, steps.shape[0]):
            rows[:, i] = rows[:, i - 1] @ jump
    g, f = np.real((rows @ cols).reshape(2, -1)[:, :n_t])
    return g, f


# ---------------------------------------------------------------------------
# Laplace domain
# ---------------------------------------------------------------------------

def laplace_G(k, s):
    """Laplace transform of the memory kernel g, truncated like the series.

    Faber: with u = s - c0 and w = sqrt(u^2 - 4 c1) on the principal
    branch,

        G(s) = (1/w) sum_j g_j (2 / (w + u))^j,

    which is the stable rewriting of g_j (w - u)^j / (2^j (-c1)^j w).  For
    Dyson, c0 = c1 = 0 gives w = s and the power sum sum_j g_j / s^{j+1}.
    Only these two families have the closed forms; requires Re(s) larger
    than the kernel growth rate for the transform to converge.
    """
    s = complex(s)
    if s.real <= 0:
        raise ValueError("Re(s) must be positive")
    if k.family in (KernelFamily.DYSON, KernelFamily.FABER):
        emap = k.mode_params
        u = s - emap.c0
        w = np.sqrt(u * u - 4.0 * emap.c1)
        base = 2.0 / (w + u)
        acc = 0.0 + 0.0j
        for gj in k.g[::-1]:
            acc = acc * base + gj
        return complex(acc / w)
    raise ValueError(
        "closed-form Laplace series exist only for the Dyson and Faber families"
    )
