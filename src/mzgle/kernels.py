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
kernels in time.  dyson_coeffs and faber_coeffs take one order n and run
their own recurrence to n, so each (family, order) task has an expansion
of its own: an overflow above order n fails only the orders that reach
it.

Lagrange interpolation on the full spectrum of a diagonalizable M11^T turns
each basis polynomial into the spectral projector r_j l_j^H / (l_j^H r_j)
of eigenvalue lambda_j, so its coefficients are products of eigenvector
inner products from one eigendecomposition and reproduce the kernel to
rounding.  On harmonic chains M11 = [[0, S], [E, 0]] with S E exactly
symmetric, and the eigenvectors come from that half-size product.
Newton's series runs on the eigenvalues of M11^T in Leja order; its
temporal modes, the divided differences of e^{t z}, come from Opitz's
theorem and stay accurate on repeated and clustered nodes.  The
eigenvalues, and Lagrange's eigenvectors, come from one solve,
reduced_spectrum, which takes half the size on harmonic chains and is a
run's one dense eigensolve; the caller says what it needs and passes the
Spectrum to lagrange_coeffs, newton_coeffs and faber_coeffs.  Faber and
Dyson need only the spectrum's extent, for the ellipse and its
containment check; on a chain reduced_spectrum(r, "extent") finds it by
Lanczos on the sparse half-size product, which is linalg.arnoldi (the
oracles' Krylov loop too) with a Ritz-value stopping test, and certifies
it with Gershgorin's bound, with no dense h x h array, and falls back to
the dense solve whenever it cannot.  Lanczos starts from a fixed
SplitMix64 vector, integer arithmetic on numpy arrays, so the extent
draws nothing from numpy.random.

On a uniform grid of K times the Lagrange and Newton kernels are
c^T e^{t Z} v for one matrix Z, diagonal or lower bidiagonal, so
kernel_eval_grid tabulates them as a product of ceil(K/B) coefficient
rows c^T e^{i B dt Z} and B mode columns e^{t_j Z} v, B = ceil(sqrt K):
O(m sqrt K) memory and O(m K) flops for the product, for m modes.
Newton's rows and columns come from Taylor actions of e^{h Z}, one
bidiagonal product per term, so no m x m matrix is formed.  These two
families take one point or a uniform grid.  Faber and Dyson modes have no
such shift rule; they take any ascending grid and sum their (order+1) x K
mode table in column blocks of linalg.BLOCK_CELLS values, so their memory
does not grow with K.
"""

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import (BLOCK_CELLS, TAYLOR_STEP_NORM, Spectrum, arnoldi,
                     as_matrix, as_vector, eigenvalues, is_symmetric,
                     taylor_terms, uniform_step)
from .faber import EllipseMap, faber_modes_grid, faber_recurrence_apply

# Pairwise eigenvalue gap below this fraction of the spectral radius makes
# Lagrange weights blow up; such spectra are routed to the Newton family.
LAGRANGE_GAP_TOL = 1e-8
# Rows of pairwise gaps formed at once by that check
GAP_ROWS = 64
# Zero-block test for the doubled-Hamiltonian shape, relative to max |A|.
HAMILTONIAN_BLOCK_TOL = 1e-12
# psi(w) = w, whose Faber polynomials are the monomials: Dyson's map
UNIT_DISK = EllipseMap.from_axes(0.0, 1.0, 1.0)
# Lanczos extent of S E: the Krylov dimension at which it gives up for the
# dense solve, the Ritz residual bound (relative to |theta|) at which it
# stops, the fewest steps between its convergence checks, and the seed of
# its fixed start vector
LANCZOS_MAX_DIM = 256
LANCZOS_TOL = 1e-14
LANCZOS_CHECK = 8
LANCZOS_SEED = 20170
# SplitMix64's state increment (2^64 / golden ratio) and its two
# xor-shift-multiply rounds, (shift, multiplier), before the final xor-shift
SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
SPLITMIX_MIX = ((30, np.uint64(0xBF58476D1CE4E5B9)), (27, np.uint64(0x94D049BB133111EB)))


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

    A : (N, N) generator, an ndarray or, for the graph chains, a
        linalg.SparseMatrix
    init_mean : length-N mean of x(0)
    stats_kind : StatsKind
    """

    A: object
    init_mean: np.ndarray
    stats_kind: StatsKind

    def __post_init__(self):
        a = as_matrix(self.A)
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
    """ValueError unless a (an ndarray or a SparseMatrix) has even dimension
    and zero diagonal blocks."""
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
    M11 : (N-1, N-1) trailing block, in the form of the system's A: an
        ndarray, or a linalg.SparseMatrix for the graph chains
    avec : first row of the permuted generator minus the diagonal entry
    bvec : first column minus the diagonal entry
    mean_rest : mean of the unresolved initial coordinates (zero under
        equilibrium statistics, where it is unused)
    stats_kind : statistics the reduction was performed under
    """

    a: float
    b: float
    M11: object
    avec: np.ndarray
    bvec: np.ndarray
    mean_rest: np.ndarray
    stats_kind: StatsKind

    def __post_init__(self):
        m = as_matrix(self.M11)
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
        (such as UNIT_DISK) for Dyson; for Lagrange and Newton the order+1
        complex nodes of the modes, the eigenvalues of M11^T sorted by
        (real part, imag part) for Lagrange and in Leja order for Newton

    A coefficient that is not finite raises ValueError naming the first.
    Each expansion is built for its own order (see _faber_basis_series).
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
        bad = np.flatnonzero(~(np.isfinite(g) & np.isfinite(f)))
        if bad.size:
            raise ValueError(f"{self.family.value.title()} expansion overflowed: coefficient "
                             f"j = {bad[0]} of {self.order + 1} is not finite")
        if self.family in (KernelFamily.DYSON, KernelFamily.FABER) and not isinstance(
                self.mode_params, EllipseMap):
            raise TypeError(f"{self.family.value.title()} expansion requires an EllipseMap")
        if self.family is KernelFamily.DYSON and (self.mode_params.c0 or self.mode_params.c1):
            raise ValueError("Dyson expansion requires the disk map c0 = c1 = 0")
        if self.family in (KernelFamily.LAGRANGE, KernelFamily.NEWTON) and np.shape(
                self.mode_params) != g.shape:
            raise ValueError(f"{self.family.value.title()} expansion requires order+1 nodes")


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
    # a sparse A gives dense avec and bvec but a sparse M11, never expanded
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


def _hamiltonian_blocks(r):
    """(S, E) of M11 = [[0, S], [E, 0]] under equilibrium-quadratic
    statistics: S = M11[:h, h:] and E = M11[h:, :h] with h = dim_rest // 2
    momentum rows, sliced without expanding a sparse M11."""
    h = r.dim_rest // 2
    return r.M11[:h, h:], r.M11[h:, :h]


def _roots(mu):
    """Principal sqrt(mu) for the h eigenvalues mu of S E.

    Values of mu within h eps max|mu| of zero, their rounding level, are
    zero modes and are set to 0 first: the square root would raise that
    rounding to about 1e-8."""
    mu = np.asarray(mu, dtype=complex)
    tol = len(mu) * np.finfo(float).eps * np.max(np.abs(mu), initial=0.0)
    return np.sqrt(np.where(np.abs(mu) <= tol, 0.0, mu))


def reduced_spectrum(r, need="values"):
    """Spectrum of M11^T, the nodes of the spectral families.

    need says what the caller reads of it: "values", every eigenvalue (for
    Newton's nodes); "extent", possibly only its extreme points (for the
    Faber ellipse and its containment check); or "modes", the eigenvalues
    with the eigenvectors that lagrange_coeffs takes.

    Under equilibrium-quadratic statistics M11 = [[0, S], [E, 0]] with
    h = dim_rest // 2 momentum rows, and det(lam I - M11) =
    lam det(lam^2 I - S E).  So the spectrum is +-sqrt(mu) over the
    eigenvalues mu of the h x h product S E, plus one 0.  For a harmonic
    chain S E is -(k/m) times the graph Laplacian with the tag's row and
    column removed: symmetric, with every mu <= 0, so the spectrum is
    exactly imaginary.  Rounding-level values of mu are zero modes (see
    _roots).  Other statistics solve M11^T itself.

    The whole spectrum takes one dense solve of S E (a sparse S E is
    expanded): the symmetric one on a chain, 57 ms at the 766-node Bethe
    tree's h = 765.  With "modes" that solve is the run's only one and gives
    the eigenvectors too, in Spectrum.modes: eigh of an exactly symmetric
    S E, as on every chain, with modes (lam, p) for
    lam = [+sqrt(mu), -sqrt(mu), 0] and the h eigenvector columns p of
    S E, one per mu and so per pair +-sqrt(mu); any other M11, a
    nonsymmetric S E among them, takes eig of M11^T, with modes its values
    and right eigenvectors.  With "extent" the spectrum is instead
    +-i sqrt|mu_min| and 0 when _extent_mu finds mu_min and certifies
    max mu <= 0.  The whole spectrum then lies on the segment between
    +-i sqrt|mu_min|, which a convex ellipse holds exactly when it holds
    both ends, and fit_ellipse reads only the extent.  No h x h array is
    formed: with the 3070-node tree (h = 3069), where the dense S E alone
    takes 75 MB, a Faber and Dyson run of orders 8, 14 and 20 takes about
    0.4 s and 37 MB of peak RSS; through the dense solve it took about 5 s
    and 214 MB (one BLAS thread, 2-vCPU VM).  When S E is not exactly
    symmetric or _extent_mu cannot certify the extent, "extent" gives the
    whole spectrum.
    """
    if need not in ("extent", "values", "modes"):
        raise ValueError(f"need must be 'extent', 'values' or 'modes', got {need!r}")
    modes = need == "modes"
    if r.stats_kind is not StatsKind.BERNE_EQUILIBRIUM_QUADRATIC:
        return eigenvalues(r.M11.T, vectors=modes)
    s, e = _hamiltonian_blocks(r)
    se = s @ e
    symmetric = is_symmetric(se)
    if modes and not symmetric:
        return eigenvalues(r.M11.T, vectors=True)
    mu = _extent_mu(se) if need == "extent" and symmetric else None
    if mu is None:
        solved = eigenvalues(se, vectors=modes)
        mu = solved.modes[0] if modes else solved.eigenvalues
    root = _roots(mu)
    lam = np.concatenate([root, -root, [0.0]])
    return Spectrum(lam, modes=(lam, solved.modes[1]) if modes else None)


def _lanczos_start(h):
    """The fixed Lanczos start: the first h outputs of SplitMix64 seeded
    with LANCZOS_SEED (Steele, Lea and Flood, OOPSLA 2014), each output's
    top 53 bits mapped to [-1, 1).  Output i mixes the counter state
    LANCZOS_SEED + i * SPLITMIX_GAMMA, so the vector is plain uint64
    arithmetic on arrays and needs no numpy.random.  Lanczos needs a
    start that is generic, not random: one with a component on every
    eigenvector, which a random vector has with probability one, so no
    symmetry of the graph can hide the extreme one from the Krylov space
    (Kuczynski and Wozniakowski, SIAM J. Matrix Anal. Appl. 13, 1992).  A
    fixed pseudo-random vector is as generic as a fixed random draw, and
    keeps a run's extent a pure function of its graph; a start constant
    on the shells around the tag would stay in the shell-symmetric
    subspace."""
    # every wrapping product stays on arrays: numpy warns on uint64
    # scalar overflow, and the tests turn warnings into errors
    z = np.arange(1, h + 1, dtype=np.uint64)
    z *= SPLITMIX_GAMMA
    z += LANCZOS_SEED
    for shift, mult in SPLITMIX_MIX:
        z ^= z >> shift
        z *= mult
    z ^= z >> 31
    return (z >> 11).astype(float) * 2.0 ** -52 - 1.0


def _tridiagonal(hess):
    """The symmetric tridiagonal of Lanczos from the Hessenberg H of
    linalg.arnoldi on a symmetric matrix: H's diagonal, and its
    subdiagonal (the residual norms beta_j) on both sides."""
    beta = np.diag(hess, -1)
    return np.diag(np.diag(hess)) + np.diag(beta, 1) + np.diag(beta, -1)


def _ritz_converged(hess, beta):
    """Whether the least Ritz value theta of the Lanczos tridiagonal has
    its residual bound beta |y_k| (y the Ritz vector) at most LANCZOS_TOL
    |theta|.

    The bound is checked, by a dense np.linalg.eigh of the tridiagonal,
    only every max(LANCZOS_CHECK, P / 8) steps, P the least power of two
    above the k steps taken, and at LANCZOS_MAX_DIM.  A solve costs
    O(k^3), so one at every step would dominate the run; this way the
    solves cost a few of the last one, and the iteration takes at most a
    quarter more steps than it needs.
    """
    k = hess.shape[0]
    if k % max(LANCZOS_CHECK, (1 << k.bit_length()) // 8) and k < LANCZOS_MAX_DIM:
        return False
    theta, y = np.linalg.eigh(_tridiagonal(hess))
    return beta * abs(y[-1, 0]) <= LANCZOS_TOL * abs(theta[0])


def _extent_mu(se):
    """[mu_min] of the exactly symmetric h x h product S E, or None when
    the extent cannot be certified and the dense solve must run.

    Lanczos is linalg.arnoldi on S E from _lanczos_start, through
    ``se @ v`` only, until _ritz_converged holds, the Krylov space closes
    or spans the whole space; None is returned when none of these happens
    within LANCZOS_MAX_DIM steps.  The tridiagonal's Ritz values come from
    one eigenvalues call, and mu_min is the least of them.  None is also
    returned when the Gershgorin bound max_i (se_ii + sum_{j != i}
    |se_ij|) on max mu exceeds h eps |mu_min|, the level below which
    _roots takes a value of mu for a zero mode; the dense solve is then a
    second eigenvalues call.  On a chain S E is -(k/m) times a grounded
    Laplacian, whose rows sum to at most 0, so the bound is 0.
    """
    run = arnoldi(se, _lanczos_start(se.shape[0]), LANCZOS_MAX_DIM, _ritz_converged)
    if run is None:
        return None
    mu = eigenvalues(_tridiagonal(run[1])).eigenvalues[:1].real
    d = se.diagonal()
    upper = np.max(d + (abs(se).sum(axis=1) - np.abs(d)))
    if upper > se.shape[0] * np.finfo(float).eps * abs(mu[0]):
        return None
    return mu


def _has_forcing(r):
    return r.stats_kind is not StatsKind.BERNE_EQUILIBRIUM_QUADRATIC


# ---------------------------------------------------------------------------
# Coefficient families
# ---------------------------------------------------------------------------

def _faber_basis_series(r, family, emap, n):
    """The family's expansion in the Faber basis of emap at order n:
    g_j = bvec.F_j(M11^T) avec and f_j = mean_rest.(M11^T F_j(M11^T) avec)
    for j <= n, from one recurrence to order n.  Each order is built on its
    own, so a task's expansion fails only when its own coefficients are not
    finite, whatever higher orders a run also lists.
    """
    mt = r.M11.T
    # overflowing vectors leave inf or NaN coefficients, which the
    # expansion rejects
    with np.errstate(over="ignore", invalid="ignore"):
        fv = faber_recurrence_apply(emap, mt, r.avec, n)
        f = fv @ (mt.T @ r.mean_rest) if _has_forcing(r) else np.zeros(n + 1)
        return KernelExpansion(family=family, order=n, g=fv @ r.bvec, f=f,
                               mode_params=emap)


def dyson_coeffs(r, n):
    """Monomial-basis coefficients g_j = bvec.(M11^T)^j avec for j <= n.

    Forcing coefficients f_j = mean_rest.(M11^T)^{j+1} avec.  These are the
    Faber coefficients of UNIT_DISK; powers of M11 are never formed.
    """
    return _faber_basis_series(r, KernelFamily.DYSON, UNIT_DISK, n)


def faber_coeffs(r, emap, n, spectrum):
    """Faber-basis coefficients g_j = bvec.F_j(M11^T) avec for j <= n.

    Forcing coefficients f_j = mean_rest.(M11^T F_j(M11^T) avec).  spectrum
    is that of M11^T or its extent (see reduced_spectrum), which decides
    containment as the whole spectrum does.  If it is not contained in the
    map's ellipse a warning is issued (the series may then diverge).
    """
    if not emap.contains(spectrum.eigenvalues):
        warnings.warn("spectrum of the unresolved block is not contained in the "
                      "Faber ellipse; the expansion may diverge", RuntimeWarning)
    return _faber_basis_series(r, KernelFamily.FABER, emap, n)


def lagrange_coeffs(r, spectrum):
    """Spectral-interpolation coefficients, one mode per eigenvalue of M11^T.

    The Lagrange basis polynomial at node lam_j, evaluated at the
    diagonalizable matrix M11^T, is the spectral projector
    r_j l_j^H / (l_j^H r_j) built from the right and left eigenvectors.  So
    mode j carries g_j = (bvec.r_j)(l_j^H avec) / (l_j^H r_j), the forcing
    coefficient f_j = lam_j (mean_rest.r_j)(l_j^H avec) / (l_j^H r_j), and
    the temporal factor e^{lam_j t}.  Conjugate eigenvalues carry conjugate
    coefficients, so the evaluated kernel is real.

    spectrum is reduced_spectrum(r, "modes"), whose modes (lam, vectors)
    hold the eigenvalues and right eigenvectors of the run's one
    eigensolve: those of M11^T, or, from an exactly symmetric h x h
    product S E of M11 = [[0, S], [E, 0]] as on every harmonic chain, the
    h eigenvectors of S E (see _hamiltonian_modes).  A spectrum with two
    values closer than LAGRANGE_GAP_TOL times its radius raises
    ValueError; that check comes first, so a defective M11^T, whose right
    eigenvectors are singular, fails it too.  Only then are the left
    eigenvectors of M11^T formed, as the columns of inv(R)^H, so that
    l_j^H r_j = 1.
    """
    m = r.dim_rest
    if m == 0:
        raise ValueError("no unresolved coordinates: kernel is identically zero")
    lam, right = spectrum.modes
    _require_distinct(lam)
    if right.shape[0] < m:
        g, f = _hamiltonian_modes(r, lam[:right.shape[0]], right)
    else:
        lh = np.linalg.inv(right).T
        weight = (r.avec @ lh) / np.sum(lh * right, axis=0)
        g = (r.bvec @ right) * weight
        f = lam * (r.mean_rest @ right) * weight
    order = np.lexsort((lam.imag, lam.real))   # Spectrum's ordering
    return KernelExpansion(family=KernelFamily.LAGRANGE, order=m - 1, g=g[order],
                           f=f[order], mode_params=np.asarray(lam, complex)[order])


def _hamiltonian_modes(r, root, p):
    """Kernel coefficients g and f (all zero) of the eigenvalues
    [root, -root, 0] of M11^T, from the eigenvector columns p of the
    symmetric S E and root = +sqrt(mu) of its eigenvalues mu.

    For an eigenvalue mu of S E with eigenvector p and
    lam = +-sqrt(mu), M11^T has the right eigenvector [p; S^T p / lam] and
    M11 the right eigenvector [p; E p / lam], whose inner product is
    2 p.p.  So with avec = [a1; a2] and bvec = [b1; b2] split like M11,

        g = (b1.p + (S b2).p / lam)(a1.p + (E^T a2).p / lam) / (2 p.p).

    The remaining eigenvalue is 0, and its projector is the identity minus
    the others' once the values are distinct, so its coefficient is
    bvec.avec minus the other coefficients.  A zero of S E would make 0 a
    multiple eigenvalue, which lagrange_coeffs' distinctness check rejects
    before any division by root.
    """
    s, e = _hamiltonian_blocks(r)
    h = s.shape[0]
    a1, a2, b1, b2 = r.avec[:h], r.avec[h:], r.bvec[:h], r.bvec[h:]
    bp, bs = b1 @ p, (s @ b2) @ p
    ap, ae = a1 @ p, (e.T @ a2) @ p
    norm = 2.0 * np.einsum("ij,ij->j", p, p)
    g = np.concatenate([(bp + bs / root) * (ap + ae / root) / norm,
                        (bp - bs / root) * (ap - ae / root) / norm, [0.0]])
    g[-1] = r.bvec @ r.avec - np.sum(g[:-1])
    return g, np.zeros_like(g)


def _require_distinct(lam):
    """ValueError if two values of lam lie within LAGRANGE_GAP_TOL times
    max|lam| of each other.  The pairwise gaps are formed GAP_ROWS rows at
    a time, so the memory is O(len(lam))."""
    m = lam.shape[0]
    tol = LAGRANGE_GAP_TOL * max(float(np.max(np.abs(lam))), 1e-300)
    for start in range(0, m, GAP_ROWS):
        gaps = np.abs(lam[start:start + GAP_ROWS, None] - lam)
        rows = np.arange(gaps.shape[0])
        gaps[rows, start + rows] = np.inf
        if np.min(gaps) < tol:
            raise ValueError(
                "near-degenerate eigenvalues make the interpolation weights "
                "singular; use the Newton family instead"
            )


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
    distinct node is; then every untaken score is -inf and the copies
    follow in that order, each node taken once.
    """
    lam = np.asarray(lam, dtype=complex)
    nodes = lam[np.lexsort((lam.imag, -lam.real))]
    picked = [int(np.argmax(np.abs(nodes)))]
    taken = np.zeros(len(nodes), dtype=bool)
    score = np.zeros(len(nodes))
    with np.errstate(divide="ignore"):
        for _ in range(len(nodes) - 1):
            last = picked[-1]
            taken[last] = True
            score += np.log(np.abs(nodes - nodes[last]))
            score[last] = -np.inf
            best = int(np.argmax(score))
            # a taken node at the maximum means every score is -inf
            picked.append(int(np.argmin(taken)) if taken[best] else best)
    return nodes[picked]


def newton_coeffs(r, spectrum):
    """Divided-difference coefficients on the eigenvalue nodes of M11^T.

    With nodes lam_1..lam_m, the whole spectrum of M11^T (see
    reduced_spectrum) ordered by newton_order, mode j carries
    g_j = bvec.[prod_{k < j} (M11^T - lam_k)] avec and the temporal factor
    is the divided difference of e^{t z} over the first j nodes.

    Rounding in the products grows with j, and on a large enough spectrum
    (the 9-shell Bethe tree, m = 3067) they overflow: a coefficient that is
    not finite raises ValueError naming the first such j.
    """
    m = r.dim_rest
    if m == 0:
        raise ValueError("no unresolved coordinates: kernel is identically zero")
    nodes = newton_order(spectrum.eigenvalues)
    # w_{j+1} = (M11^T - nodes[j]) w_j from w_0 = avec; a dense M11^T is
    # cast once, a sparse one multiplies complex vectors as it is
    mt = r.M11.T
    if isinstance(mt, np.ndarray):
        mt = mt.astype(complex)
    g, f = np.zeros((2, m), dtype=complex)
    w = r.avec.astype(complex)
    with np.errstate(over="ignore", invalid="ignore"):
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

def _bidiagonal_expm(nodes, h, v, rows=False):
    """e^{h Z} applied to the vectors along the last axis of v, with Z the
    bidiagonal node matrix: nodes on its diagonal and ones below.  With
    rows=True the vectors are rows and each becomes c^T e^{h Z}.

    A truncated Taylor series with scaling (Al-Mohy and Higham, SIAM J.
    Sci. Comput. 33, 2011): h is split into s steps with
    (h/s) ||Z|| <= TAYLOR_STEP_NORM, ||Z|| <= max|node| + 1 in the max-row
    and max-column norms, and each step sums the terms (h/s)^k Z^k v / k!
    until the tail bound x^(p+1) e^x / (p+1)!, x = (h/s) ||Z||, is below
    the unit roundoff (linalg.taylor_terms).  Each term is one bidiagonal
    product, so no m x m array is formed and a batch of vectors costs
    O(m (h ||Z|| + 1)) each.
    """
    x = abs(h) * (float(np.max(np.abs(nodes))) + 1.0)
    steps = max(1, math.ceil(x / TAYLOR_STEP_NORM))
    tau, terms = h / steps, taylor_terms(x / steps)
    # (Z w)_i = nodes_i w_i + w_{i-1};  (w^T Z)_i = w_i nodes_i + w_{i+1}
    into, src = (slice(None, -1), slice(1, None)) if rows else (slice(1, None), slice(None, -1))
    out = np.array(v, dtype=complex)
    for _ in range(steps):
        term = out
        out = out.copy()
        for k in range(1, terms + 1):
            nxt = nodes * term
            nxt[..., into] += term[..., src]
            nxt *= tau / k
            out += nxt
            term = nxt
    return out


def _stepped(nodes, v, n, h, rows=False):
    """Stack of the n arrays e^{j h Z} v, j < n, for the bidiagonal node
    matrix Z (c^T e^{j h Z} with rows=True; see _bidiagonal_expm).

    Each new array is the one lag places back acted on by e^{lag h Z}, a
    batch of up to lag arrays per action.  lag doubles from 1 until
    lag h ||Z|| would exceed one Taylor step and then stays, so the stack
    takes O(log n + n h ||Z||) batched actions and about one Taylor step
    per array.
    """
    reach = abs(h) * (float(np.max(np.abs(nodes))) + 1.0)
    cap = n if reach == 0 else max(1, int(TAYLOR_STEP_NORM / reach))
    out = np.empty((n,) + v.shape, dtype=complex)
    out[0] = v
    done = 1
    while done < n:
        lag = min(done, cap)
        more = min(lag, n - done)
        out[done:done + more] = _bidiagonal_expm(
            nodes, lag * h, out[done - lag:done - lag + more], rows)
        done += more
    return out


def _divided_diff_exp(nodes, t):
    """Divided differences of z -> e^{t z} over the leading node sets.

    Row j of the (len(nodes), len(t)) result is the difference over
    nodes[0..j].  By Opitz's theorem (McCurdy, Ng and Parlett, Math. Comp.
    43, 1984) these are the first column of e^{t Z}, Z lower bidiagonal with
    the nodes on its diagonal and ones below.  t is one point or a uniform
    grid; the first column comes from one bidiagonal action on e_0 and the
    others from it in steps of dt (see _bidiagonal_expm and _stepped).
    """
    first = np.zeros(nodes.shape[0], dtype=complex)
    first[0] = 1.0
    first = _bidiagonal_expm(nodes, t[0], first)
    return _stepped(nodes, first, t.shape[0], uniform_step(t)).T


def kernel_eval_grid(k, t):
    """Kernel values (g(t), f(t)) on an array of times.

    Returns a pair of arrays matching the shape of t.  Faber and Dyson take
    ascending times and sum their (order+1) x K mode table in blocks of
    BLOCK_CELLS // (order+1) times; faber_modes_grid refuses a block whose
    times descend (ValueError).  The modes are pointwise in t, so the split
    changes nothing but the rounding of the final sums.  Lagrange
    and Newton take one point or a uniform grid t_k = t_0 + k dt, and raise
    ValueError otherwise: each value is c^T e^{t_k Z} v, with the nodes
    lam of mode_params and (Z, v) the bidiagonal node matrix and e_0
    (Newton) or (diag lam, 1) (Lagrange), and with B = ceil(sqrt K) and
    k = i B + j it factors as (c^T e^{i B dt Z}) (e^{t_j Z} v).  So the table is the
    product of ceil(K/B) coefficient rows and B mode columns instead of an
    m x K mode table.  Lagrange's rows are c scaled by e^{lam i B dt} and
    its columns e^{lam t_j}.  Newton's are stepped by Taylor actions of
    the bidiagonal exponential, e^{B dt Z} on the rows (through Z^T) and
    e^{dt Z} on the columns, in batches (see _stepped): no m x m array is
    formed, and the table holds O(m sqrt K) values.  An all-zero f, as
    under equilibrium statistics, gives an all-zero f table without
    stepping or multiplying its row.

    A Newton value at one point t > 0 (or at a grid's first time t_0 > 0)
    comes from one action of e^{t Z} on e_0, in
    ceil(t ||Z|| / TAYLOR_STEP_NORM) Taylor steps; large coefficients
    amplify its normwise error.  The pipeline tabulates only grids from
    t = 0.
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
    coef = np.stack([k.g, k.f]) if np.any(k.f) else k.g[None]
    nodes = k.mode_params
    if k.family is KernelFamily.LAGRANGE:
        cols = np.exp(np.multiply.outer(nodes, t[:b]))
        rows = coef[:, None, :] * np.exp(np.multiply.outer(steps, nodes))
    else:
        cols = _divided_diff_exp(nodes, t[:b])
        rows = _stepped(nodes, coef, steps.shape[0], b * dt, rows=True).swapaxes(0, 1)
    table = np.real((rows @ cols).reshape(coef.shape[0], -1)[:, :n_t])
    return table[0], table[1] if coef.shape[0] == 2 else np.zeros(n_t)

