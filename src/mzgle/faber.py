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
temporal modes for orders up to MAX_ORDER, applies the recurrence to
vectors, assembles the truncated matrix-exponential approximation, and
evaluates the superlinear a-priori error bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, as_vector

# Highest temporal-mode order: from v = 88 on, scipy's hyp0f1(v, z) returns
# inf, NaN or wrong finite values for some small |z| (near 1e-4).
MAX_ORDER = 80
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
    S_j = 0F1(; j+1; c1 t^2) / j!, for every sign of c1.  S_{n+1} and S_n
    come from scipy's hyp0f1, the lower orders from the downward recurrence
    S_{k-1} = k S_k + c1 t^2 S_{k+1}, which has no division and, for J_j
    and I_j alike, runs in the direction that does not amplify rounding.
    Orders above MAX_ORDER raise ValueError, and so do modes that come out
    non-finite (t^j overflows while S_j underflows for large t and n).

    The modes are as good as hyp0f1: for c1 < 0 (negative argument) about
    1e-15 relative at every order, but for c1 > 0 only about 1e-13 near
    MAX_ORDER (9.5e-14 at v = 81, z = 0.5, against mpmath), so c1 > 0
    modes of order 60-80 are good to about 1e-13 normwise.
    """
    # imported here, not at the top: scipy.special adds 40-70 ms to start-up,
    # which a run's set-up (parse_config, assemble) does not need
    import scipy.special

    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    if not 0 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in 0..{MAX_ORDER}, got {n}")
    z = emap.c1 * t * t
    s = np.empty((n + 2, t.shape[0]))
    s[n + 1] = scipy.special.hyp0f1(n + 2, z) / math.factorial(n + 1)
    s[n] = scipy.special.hyp0f1(n + 1, z) / math.factorial(n)
    for k in range(n, 0, -1):
        s[k - 1] = k * s[k] + z * s[k + 1]
    out = s[:n + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, n + 1):    # row by row: no (n+1) x K power table
            out[j] *= t ** j
        out *= np.exp(t * emap.c0)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"Faber modes of order {n} are not finite up to "
                         f"t = {t.max():.6g}; lower the order or t_final")
    return out


# ---------------------------------------------------------------------------
# Recurrence on vectors and the truncated exponential
# ---------------------------------------------------------------------------

def faber_recurrence_apply(emap, m, v, n):
    """Vectors F_0(m)v .. F_n(m)v for the two-term map.

    F_0 = 1, F_1 = z - c0, F_2 = (z - c0)^2 - 2 c1, and
    F_j = (z - c0) F_{j-1} - c1 F_{j-2} for j >= 3.  (The general-map
    correction -(j-1)c_{j-1} vanishes beyond j = 2 because the Laurent tail
    is truncated at c1.)  One matrix-vector product per step.

    Returns an (n+1, len(v)) array.
    """
    m = as_matrix(m, square=True)
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


def expm_faber(emap, m, t, v, order):
    """Truncated Faber approximation of e^{t m} v:
    sum_{j<=order} a_j(t) F_j(m) v."""
    modes = faber_modes_grid(emap, [t], order)[:, 0]
    return modes @ faber_recurrence_apply(emap, m, v, order)


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
    max h / cos(pi / FOV_ANGLES) bounds the field of values.
    """
    m = as_matrix(m, square=True)
    sym = 0.5 * (m + m.T)
    skew = 0.5 * (m - m.T)
    # m is real, so h(-theta) = h(theta) and half the angles suffice
    thetas = 2.0 * math.pi * np.arange(FOV_ANGLES // 2 + 1) / FOV_ANGLES
    support = max(np.linalg.eigvalsh(math.cos(th) * sym + 1j * math.sin(th) * skew)[-1]
                  for th in thetas)
    return float(support) / math.cos(math.pi / FOV_ANGLES)


def log_norm(m):
    """Logarithmic 2-norm: max eigenvalue of the symmetric part."""
    m = as_matrix(m, square=True)
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
