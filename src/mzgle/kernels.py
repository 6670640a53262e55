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

Four expansions of e^{t M11^T} give four coefficient families: Dyson
(monomials t^j/j!), Faber (elliptic polynomial basis with Bessel temporal
modes), Lagrange (spectral interpolation, modes e^{lambda_j t}) and Newton
(divided differences of the exponential).  This module computes the
coefficient tables, evaluates kernels in time, and sums the Laplace-domain
series for the Dyson and Faber families.

Lagrange interpolation on the full spectrum of a diagonalizable M11^T turns
each basis polynomial into the spectral projector r_j l_j^H / (l_j^H r_j)
of eigenvalue lambda_j, so its coefficients are products of eigenvector
inner products from one eigendecomposition and reproduce the kernel to
rounding.  Newton uses the same nodes with divided differences, which also
handle repeated eigenvalues.
"""

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import Spectrum, as_matrix, as_vector, eigenvalues
from .faber import EllipseMap, faber_modes_grid, faber_recurrence_apply

# Pairwise eigenvalue gap below this fraction of the spectral radius makes
# Lagrange weights blow up; such spectra are routed to the Newton family.
LAGRANGE_GAP_TOL = 1e-8
# Divided differences switch to the confluent limit below this gap.
NEWTON_CONFLUENT_TOL = 1e-10
# Zero-block test for the doubled-Hamiltonian shape, relative to max |A|.
HAMILTONIAN_BLOCK_TOL = 1e-12


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
    scale = max(float(np.max(np.abs(a))), 1.0)
    if (np.max(np.abs(a[:h, :h])) > HAMILTONIAN_BLOCK_TOL * scale
            or np.max(np.abs(a[h:, h:])) > HAMILTONIAN_BLOCK_TOL * scale):
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
    mode_params : EllipseMap for the Faber family, Spectrum of M11^T for
        Lagrange and Newton, None for Dyson
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
        if self.family is KernelFamily.FABER and not isinstance(self.mode_params, EllipseMap):
            raise TypeError("Faber expansion requires an EllipseMap")
        if self.family in (KernelFamily.LAGRANGE, KernelFamily.NEWTON) \
                and not isinstance(self.mode_params, Spectrum):
            raise TypeError("Lagrange/Newton expansions require a Spectrum")
        if self.family is KernelFamily.DYSON and self.mode_params is not None:
            raise TypeError("Dyson expansion carries no mode parameters")


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
    perm = np.r_[i, rest]
    ap = system.A[np.ix_(perm, perm)]
    a = float(ap[0, 0])
    avec = ap[0, 1:].copy()
    bvec = ap[1:, 0].copy()
    m11 = ap[1:, 1:].copy()
    if system.stats_kind is StatsKind.BERNE_EQUILIBRIUM_QUADRATIC:
        if observable_index > n // 2:
            raise ValueError(
                "equilibrium-quadratic statistics require observing a "
                "momentum coordinate (index within the first block)"
            )
        b = 0.0
        mean_rest = np.zeros(n - 1)
    else:
        mean_rest = system.init_mean[perm][1:].copy()
        b = float(avec @ mean_rest)
    return ReducedData(a=a, b=b, M11=m11, avec=avec, bvec=bvec,
                       mean_rest=mean_rest, stats_kind=system.stats_kind)


def _has_forcing(r):
    return r.stats_kind is not StatsKind.BERNE_EQUILIBRIUM_QUADRATIC


# ---------------------------------------------------------------------------
# Coefficient families
# ---------------------------------------------------------------------------

def dyson_coeffs(r, n):
    """Monomial-basis coefficients g_j = bvec.(M11^T)^j avec for j <= n.

    Forcing coefficients f_j = mean_rest.(M11^T)^{j+1} avec.  Iterated
    matrix-vector products; powers of M11 are never formed.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    mt = r.M11.T
    g = np.empty(n + 1)
    f = np.zeros(n + 1)
    w = r.avec.copy()
    forcing = _has_forcing(r)
    for j in range(n + 1):
        g[j] = r.bvec @ w
        w = mt @ w
        if forcing:
            f[j] = r.mean_rest @ w
    return KernelExpansion(family=KernelFamily.DYSON, order=n, g=g, f=f,
                           mode_params=None)


def faber_coeffs(r, emap, n, spectrum=None):
    """Faber-basis coefficients g_j = bvec.F_j(M11^T) avec for j <= n.

    Forcing coefficients f_j = mean_rest.(M11^T F_j(M11^T) avec).  If the
    spectrum of M11^T is not contained in the map's ellipse a warning is
    issued (the series may then diverge); pass a precomputed spectrum to
    skip the eigenvalue solve.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    mt = np.ascontiguousarray(r.M11.T)
    if spectrum is None and r.dim_rest > 0:
        spectrum = eigenvalues(mt)
    if spectrum is not None and len(spectrum) and not emap.contains(spectrum.eigenvalues):
        warnings.warn(
            "spectrum of the unresolved block is not contained in the "
            "Faber ellipse; the expansion may diverge",
            RuntimeWarning,
        )
    fv = faber_recurrence_apply(emap, mt, r.avec, n)
    g = fv @ r.bvec
    if _has_forcing(r):
        f = fv @ (mt.T @ r.mean_rest)
    else:
        f = np.zeros(n + 1)
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
    mt = np.ascontiguousarray(r.M11.T)
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
    """Deterministic node ordering for divided differences:
    real part descending, imaginary part ascending."""
    lam = np.asarray(lam, dtype=complex)
    idx = np.lexsort((lam.imag, -lam.real))
    return lam[idx]


def newton_coeffs(r, n_full=None, spectrum=None):
    """Divided-difference coefficients on the eigenvalue nodes of M11^T.

    With nodes lam_1..lam_m ordered by newton_order, mode j carries
    g_j = bvec.[prod_{k < j} (M11^T - lam_k)] avec and the temporal factor
    is the divided difference of e^{t z} over the first j nodes.  Pass a
    precomputed spectrum of M11^T to skip the eigenvalue solve.
    """
    m = r.dim_rest
    if m == 0:
        raise ValueError("no unresolved coordinates: kernel is identically zero")
    if n_full is None:
        n_full = m
    if not 1 <= n_full <= m:
        raise ValueError(f"n_full must be in 1..{m}")
    mt = np.ascontiguousarray(r.M11.T)
    spec = eigenvalues(mt) if spectrum is None else spectrum
    lam = newton_order(spec.eigenvalues)
    g = np.empty(n_full, dtype=complex)
    f = np.zeros(n_full, dtype=complex)
    forcing = _has_forcing(r)
    w = r.avec.astype(complex)
    for j in range(n_full):
        g[j] = r.bvec @ w
        if forcing:
            f[j] = r.mean_rest @ (mt @ w)
        if j + 1 < n_full:
            w = mt @ w - lam[j] * w
    return KernelExpansion(family=KernelFamily.NEWTON, order=n_full - 1, g=g, f=f,
                           mode_params=spec)


# ---------------------------------------------------------------------------
# Temporal evaluation
# ---------------------------------------------------------------------------

def _divided_diff_exp(lam, t):
    """Divided differences of z -> e^{t z} over the leading node sets.

    Returns an (m, len(t)) array whose row j-1 is the difference over nodes
    lam_1..lam_j.  Confluent nodes (gap below NEWTON_CONFLUENT_TOL) use the
    limit t^{j-i} e^{lam t} / (j-i)!; the ordering places equal nodes
    adjacently so a small endpoint gap means the whole block is confluent.
    Only the previous depth of the table is kept, so memory is O(m len(t)).
    """
    m = lam.shape[0]
    t = np.asarray(t, dtype=float)
    prev = np.exp(np.multiply.outer(lam, t))    # depth 0: f_{i,i}
    out = np.empty((m,) + t.shape, dtype=complex)
    out[0] = prev[0]
    for d in range(1, m):
        gap = lam[:m - d] - lam[d:]
        confluent = np.abs(gap) < NEWTON_CONFLUENT_TOL
        prev = prev[:-1] - prev[1:]
        prev /= np.where(confluent, 1.0, gap)[:, None]
        for i in np.flatnonzero(confluent):
            prev[i] = t**d * np.exp(lam[i] * t) / math.factorial(d)
        out[d] = prev[0]
    return out


def _mode_values(k, t):
    """Temporal basis values h_j(t), shape (order+1, len(t))."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    n = k.order
    if k.family is KernelFamily.DYSON:
        h = np.empty((n + 1, t.shape[0]))
        term = np.ones_like(t)
        h[0] = term
        for j in range(1, n + 1):
            term = term * t / j
            h[j] = term
        return h
    if k.family is KernelFamily.FABER:
        return faber_modes_grid(k.mode_params, t, n)
    lam = k.mode_params.eigenvalues
    if k.family is KernelFamily.LAGRANGE:
        return np.exp(np.multiply.outer(lam, t))
    return _divided_diff_exp(newton_order(lam)[: n + 1], t)


def kernel_eval_grid(k, t):
    """Kernel values (g(t), f(t)) on an array of times.

    Returns a pair of arrays matching the shape of t.
    """
    h = _mode_values(k, t)
    g = np.real(k.g @ h)
    f = np.real(k.f @ h)
    return g, f


def kernel_eval(k, t):
    """Kernel values (g(t), f(t)) at a single time t >= 0."""
    g, f = kernel_eval_grid(k, [float(t)])
    return float(g[0]), float(f[0])


# ---------------------------------------------------------------------------
# Laplace domain
# ---------------------------------------------------------------------------

def laplace_G(k, s):
    """Laplace transform of the memory kernel g, truncated like the series.

    Dyson: G(s) = sum_j g_j / s^{j+1}.  Faber: with u = s - c0 and
    w = sqrt(u^2 - 4 c1) on the principal branch,

        G(s) = (1/w) sum_j g_j (2 / (w + u))^j,

    which is the stable rewriting of g_j (w - u)^j / (2^j (-c1)^j w).
    Only these two families have the closed forms; requires Re(s) larger
    than the kernel growth rate for the transform to converge.
    """
    s = complex(s)
    if s.real <= 0:
        raise ValueError("Re(s) must be positive")
    if k.family is KernelFamily.DYSON:
        # Horner in 1/s
        acc = 0.0 + 0.0j
        for gj in k.g[::-1]:
            acc = (acc + gj) / s
        return acc
    if k.family is KernelFamily.FABER:
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
