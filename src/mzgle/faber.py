"""Faber polynomial machinery on elliptic domains.

A two-term Laurent map ``psi(w) = w + c0 + c1/w`` sends the circle
``|w| = gamma`` onto an ellipse with real center ``c0``.  The Faber
polynomials of that ellipse satisfy a three-term recurrence, and the Faber
expansion of ``e^{t z}`` has closed-form temporal coefficients

    a_j(t) = e^{t c0} J_j(2 t sqrt(-c1)) / sqrt(-c1)^j        (c1 < 0).

By J_j(x) = (x/2)^j 0F1(; j+1; -x^2/4) / j! (DLMF 10.16.9) this is

    a_j(t) = e^{t c0} t^j 0F1(; j+1; c1 t^2) / j!,

one formula for every sign of c1: the Taylor limit e^{t c0} t^j / j! at
c1 = 0 and modified Bessel functions I_j for c1 > 0 (ellipses wider than
they are tall).  This module fits ellipses to spectra, evaluates the
temporal modes for orders up to MAX_ORDER by Miller's backward recurrence
(numpy alone, no special-function library), applies the recurrence to
vectors, and evaluates the superlinear a-priori error bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, as_vector, dense

# Highest temporal-mode order: the range the modes are checked in against
# mpmath, from z = 0 through small |z| and out to x = 2 sqrt|z| = 1000
MAX_ORDER = 80
# Miller's start order past max(n, x) is MILLER_CBRT x^(1/3) + MILLER_PAD
# (see _miller_start)
MILLER_CBRT = 12.0
MILLER_PAD = 2
# Highest start order: the loop takes that many steps, so larger
# arguments x = 2 t sqrt|c1| are refused rather than run for minutes
MILLER_MAX_START = 10 ** 6
# A column of Miller's loop is scaled down by 2^-RESCALE_EXP once its
# values pass 2^RESCALE_EXP, checked every RESCALE_EVERY orders
RESCALE_EXP = 512
RESCALE_EVERY = 8
DEFAULT_PADDING = 0.1
AXIS_FLOOR = 1e-3
# Support-line angles of the field-of-values bound; the circumscribed
# polygon overshoots the numerical radius by at most 1/cos(pi/N) - 1.
FOV_ANGLES = 64
# Points whose normalized ellipse radius exceeds 1 by at most this still
# count as inside, so spectra on the fitted boundary are not rejected.
CONTAINS_SLACK = 1e-12


# ---------------------------------------------------------------------------
# Ellipse map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EllipseMap:
    """Parameters of psi(w) = w + c0 + c1/w restricted to |w| = capacity.

    The image is the ellipse centered at c0 with semi-axes
    (semi_real, semi_imag); capacity = (semi_real + semi_imag)/2 and
    c1 = (semi_real^2 - semi_imag^2)/4.
    """

    c0: float
    c1: float
    capacity: float
    semi_real: float
    semi_imag: float

    @classmethod
    def from_axes(cls, c0, semi_real, semi_imag):
        if semi_real < 0 or semi_imag < 0:
            raise ValueError("semi-axes must be nonnegative")
        capacity = 0.5 * (semi_real + semi_imag)
        if capacity <= 0:
            raise ValueError("degenerate ellipse: both semi-axes are zero")
        c1 = 0.25 * (semi_real**2 - semi_imag**2)
        return cls(float(c0), float(c1), float(capacity), float(semi_real), float(semi_imag))

    def psi(self, w):
        return w + self.c0 + self.c1 / w

    def contains(self, z):
        """Whether the points z lie inside the (closed) ellipse."""
        z = np.asarray(z, dtype=complex)
        a = max(self.semi_real, 1e-300)
        b = max(self.semi_imag, 1e-300)
        r = ((z.real - self.c0) / a) ** 2 + (z.imag / b) ** 2
        return bool(np.all(r <= 1.0 + CONTAINS_SLACK))


def fit_ellipse(spectrum, padding=DEFAULT_PADDING):
    """Fit an ellipse around a spectrum.

    Bounding-box rule: center c0 at the midpoint of the real extent,
    semi-axes equal to the half-extents inflated by (1 + padding).  A
    degenerate axis is floored at 1e-3 * max(1, other axis) so the map
    stays nonsingular for purely real or purely imaginary spectra.

    Parameters
    ----------
    spectrum : Spectrum
    padding : float, relative inflation of both semi-axes

    Returns
    -------
    EllipseMap
    """
    lam = np.asarray(spectrum.eigenvalues, dtype=complex)
    if lam.size == 0:
        raise ValueError("cannot fit an ellipse to an empty spectrum")
    if padding < 0:
        raise ValueError("padding must be >= 0")
    c0 = 0.5 * (lam.real.min() + lam.real.max())
    alpha = 0.5 * (lam.real.max() - lam.real.min()) * (1.0 + padding)
    beta = float(np.max(np.abs(lam.imag))) * (1.0 + padding)
    alpha = max(alpha, AXIS_FLOOR * max(1.0, beta))
    beta = max(beta, AXIS_FLOOR * max(1.0, alpha))
    return EllipseMap.from_axes(c0, alpha, beta)


# ---------------------------------------------------------------------------
# Temporal modes
# ---------------------------------------------------------------------------

def faber_modes_grid(emap, t, n):
    """Temporal coefficients a_j(t) for j = 0..n on an array of times.

    Returns an (n+1, len(t)) array a_j(t) = e^{t c0} t^j S_j with
    S_j = 0F1(; j+1; z) / j! and z = c1 t^2, for every sign of c1.  With
    x = 2 sqrt|z|, (x/2)^j S_j is J_j(x) for c1 < 0 and I_j(x) for c1 > 0.

    The S_j come from Miller's backward recurrence (Gautschi, SIAM Rev. 9,
    1967): the downward recurrence S_{k-1} = k S_k + z S_{k+1}, which has
    no division and, for J_j and I_j alike, runs in the direction that
    does not amplify rounding, is started from S_{N+1} = 0, S_N = 1 at an
    order N past n and x (see _miller_start), one per column, and gives
    the S_k up to one common factor.  The factor is the Neumann sum
    1 = J_0 + 2 sum_k J_{2k} (c1 < 0) or e^x = I_0 + 2 sum_k I_k
    (c1 > 0), accumulated by Horner in the same loop; for c1 > 0 the e^x
    is folded into e^{t c0}.  A column whose values pass 2^RESCALE_EXP is
    scaled down by that power of two, which is exact, so the loop cannot
    overflow where the modes do not, and each column's values depend on
    its own t alone.  Only the n+2 rows S_0..S_{n+1} are stored; the loop
    takes about n + x + MILLER_CBRT x^(1/3) steps, so its cost grows with
    t sqrt|c1|.

    t must be finite and >= 0, and orders above MAX_ORDER raise
    ValueError; so do start orders above MILLER_MAX_START and modes that
    come out non-finite (t^j overflows while S_j underflows for large t
    and n).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(t)):
        raise ValueError(f"t must be finite, got t = {t[~np.isfinite(t)][0]}")
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    if not 0 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in 0..{MAX_ORDER}, got {n}")
    if np.any(t[1:] < t[:-1]):
        # columns go in ascending t, so each step works on a suffix of them
        order = np.argsort(t, kind="stable")
        out = faber_modes_grid(emap, t[order], n)
        for row in out:
            row[order] = row.copy()
        return out
    z = emap.c1 * t * t
    half = np.sqrt(np.abs(z))                 # x / 2
    first = _miller_start(n, 2.0 * half)      # columns first[k].. start at >= k
    if first.shape[0] > MILLER_MAX_START + 2:
        raise ValueError(f"Faber modes at t = {t[-1]:.6g} need more than "
                         f"{MILLER_MAX_START} recurrence steps; lower t_final")
    every = emap.c1 > 0                       # I_j: the Neumann sum takes every order
    # Horner's factor per order it takes; J_j's -z goes in half's storage
    weight = half if every else np.negative(z, out=half)
    s = np.empty((n + 2, t.shape[0]))         # S_0 .. S_{n+1}
    spare = np.empty((3, t.shape[0]))         # S_k for k > n + 1, two at a time, and k S_k
    acc = np.empty(t.shape[0])                # the Neumann sum from order k up

    def row(k):
        return s[k] if k <= n + 1 else spare[k % 2]

    for k in range(first.shape[0] - 2, 0, -1):
        joined = slice(first[k], first[k + 1])
        row(k + 1)[joined] = 0.0
        row(k)[joined] = 1.0
        acc[joined] = 1.0 if every or k % 2 == 0 else 0.0
        on = slice(first[k], None)
        # S_{k-1} = k S_k + z S_{k+1}, in place of S_{k+1} when not stored
        low = np.multiply(z[on], row(k + 1)[on], out=row(k - 1)[on])
        low += np.multiply(row(k)[on], k, out=spare[2, on])
        if every or k % 2 == 1:
            acc[on] *= weight[on]
            acc[on] += low
        if k % RESCALE_EVERY == 0:
            big = np.maximum(np.abs(low), np.abs(acc[on])) > 2.0 ** RESCALE_EXP
            if big.any():
                scale = np.where(big, 2.0 ** -RESCALE_EXP, 1.0)
                acc[on] *= scale
                for i in range(k - 1, max(k + 1, n + 2)):    # every live row
                    row(i)[on] *= scale
    out = s[:n + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.subtract(2.0 * acc, s[0], out=acc)
        for j in range(1, n + 1):    # row by row: no (n+1) x K power table
            out[j] *= t ** j
        # e^{t c0}, times e^x for I_j, over the norm, in z's storage
        scale = np.add(t * emap.c0, 2.0 * half if every else 0.0, out=z)
        out *= np.divide(np.exp(scale, out=scale), norm, out=scale)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"Faber modes of order {n} are not finite up to "
                         f"t = {t.max():.6g}; lower the order or t_final")
    return out


def _miller_start(n, x):
    """Start orders N of Miller's recurrence for orders 0..n at ascending
    arguments x: max(n, x) + MILLER_CBRT x^(1/3) + MILLER_PAD, rounded up
    and capped at MILLER_MAX_START + 1.  Past the turning point j = x,
    J_j(x) falls like Ai(s) with s ~ (j - x) / x^(1/3), and the start must
    be where it is below rounding, since the Neumann sum drops every order
    above N; I_j(x) e^-x falls faster.  At x = 0 every start is exact.

    Returns first, of length top + 2 for the largest start top (n + 1 for
    no x): the arguments x[first[k]:] start at orders >= k."""
    start = np.maximum(n, np.ceil(x)) + np.ceil(MILLER_CBRT * np.cbrt(x)) + MILLER_PAD
    start = np.minimum(start, MILLER_MAX_START + 1).astype(np.int64)
    top = int(start[-1]) if start.shape[0] else n + 1
    return np.searchsorted(start, np.arange(top + 2))


# ---------------------------------------------------------------------------
# Recurrence on vectors
# ---------------------------------------------------------------------------

def faber_recurrence_apply(emap, m, v, n):
    """Vectors F_0(m)v .. F_n(m)v for the two-term map.

    F_0 = 1, F_1 = z - c0, F_2 = (z - c0)^2 - 2 c1, and
    F_j = (z - c0) F_{j-1} - c1 F_{j-2} for j >= 3.  (The general-map
    correction -(j-1)c_{j-1} vanishes beyond j = 2 because the Laurent tail
    is truncated at c1.)  One matrix-vector product per step, through
    ``@``, so a sparse m is never expanded.

    Returns an (n+1, len(v)) array.
    """
    m = as_matrix(m)
    v = as_vector(v, length=m.shape[0])
    if n < 0:
        raise ValueError("n must be >= 0")
    out = np.empty((n + 1, v.shape[0]))
    out[0] = v
    if n == 0:
        return out
    out[1] = m @ v - emap.c0 * v
    for j in range(2, n + 1):
        out[j] = m @ out[j - 1] - emap.c0 * out[j - 1] - emap.c1 * out[j - 2]
        if j == 2:
            out[j] -= emap.c1 * v
    return out


# ---------------------------------------------------------------------------
# A-priori error bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundParams:
    """Constants entering the superlinear truncation bound.

    q : radius of an origin-centered disk covering the field of values of
        the generator; the bound is valid for orders n >= 4q.
    K : collected prefactor (projection norm, semigroup constant, and the
        coupling-vector constants).
    beta : exponential growth rate of the semigroup, from the logarithmic
        norm of the generator.
    """

    q: float
    K: float
    beta: float


def convergence_bound(emap, params, t, n):
    """A-priori bound R(t, n) on the truncated-memory error at order n.

    R(t,n) = K (q/(n+1))^n * (e^{t beta} - e^{t(E+n)}) / (beta - E - n)
    with E = 1 + psi(capacity).  Evaluated in log space so large n*t do
    not overflow prematurely.  Requires n >= 4q.
    """
    if n < 4.0 * params.q:
        raise ValueError(f"bound valid only for n >= 4q = {4.0 * params.q:.3g}, got n={n}")
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return 0.0
    E = 1.0 + emap.psi(emap.capacity)
    rate = E + n
    log_pref = math.log(params.K) + n * math.log(params.q / (n + 1.0))
    d = rate - params.beta
    if abs(d) < 1e-12:
        log_time = params.beta * t + math.log(t)
    else:
        # (e^{t*rate} - e^{t*beta}) / d, log form anchored at the larger rate
        hi, lo = max(rate, params.beta), min(rate, params.beta)
        log_time = hi * t + math.log1p(-math.exp(-(hi - lo) * t)) - math.log(abs(d))
    logR = log_pref + log_time
    if logR > 700.0:
        return math.inf
    return math.exp(logR)


def field_of_values_radius(m):
    """Upper bound q on the numerical radius max{|z^H m z| : ||z|| = 1}.

    Johnson's rotation method (SIAM J. Numer. Anal. 15, 1978): the field of
    values lies in every half-plane Re(e^{i theta} z) <= h(theta), with
    h(theta) the largest eigenvalue of the Hermitian part of e^{i theta} m.
    At FOV_ANGLES equally spaced angles these half-planes cut out a polygon
    inside the regular polygon of inradius max h, whose circumradius
    max h / cos(pi / FOV_ANGLES) bounds the field of values.  A sparse m
    is expanded for the dense Hermitian solves.
    """
    m = dense(as_matrix(m))
    sym = 0.5 * (m + m.T)
    skew = 0.5 * (m - m.T)
    # m is real, so h(-theta) = h(theta) and half the angles suffice
    thetas = 2.0 * math.pi * np.arange(FOV_ANGLES // 2 + 1) / FOV_ANGLES
    support = max(np.linalg.eigvalsh(math.cos(th) * sym + 1j * math.sin(th) * skew)[-1]
                  for th in thetas)
    return float(support) / math.cos(math.pi / FOV_ANGLES)


def log_norm(m):
    """Logarithmic 2-norm: max eigenvalue of the symmetric part (a dense
    solve, so a sparse m is expanded)."""
    m = dense(as_matrix(m))
    return float(np.max(np.linalg.eigvalsh(0.5 * (m + m.T))))


def _c3(vnorm, q):
    return 8.0 * math.e * vnorm * q * (1.0 + 1.0 / (8.0 * q))


def bound_params_for_vector(m, v):
    """Bound constants for the plain matrix-exponential approximation of
    e^{tm} v: K is the single coupling constant built from ||v||."""
    q = field_of_values_radius(m)
    return BoundParams(q=q, K=_c3(float(np.linalg.norm(v)), q), beta=log_norm(m))


def bound_params_for_kernel(m, avec, bvec, mean_rest, x1_0=1.0):
    """Bound constants for the memory-kernel truncation of a reduced system.

    m is the reduced generator (the matrix whose polynomials enter the
    kernel coefficients), avec/bvec the coupling vectors, mean_rest the
    unresolved initial mean, x1_0 the magnitude of the resolved initial
    datum.  Projection and semigroup constants are taken as 1.
    """
    q = field_of_values_radius(m)
    c3 = _c3(float(np.linalg.norm(avec)), q)
    c3s = _c3(float(np.linalg.norm(m @ avec)), q)
    c4 = float(np.linalg.norm(bvec)) * abs(x1_0)
    c5 = float(np.linalg.norm(mean_rest))
    c6 = 2.0 * max(c4 * c3, c5 * c3s)
    return BoundParams(q=q, K=c6, beta=log_norm(m))
