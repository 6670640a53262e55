"""Faber polynomial machinery on elliptic domains.

A two-term Laurent map ``psi(w) = w + c0 + c1/w`` sends the circle
``|w| = gamma`` onto an ellipse with real center ``c0``.  The Faber
polynomials of that ellipse satisfy a three-term recurrence, and the Faber
expansion of ``e^{t z}`` has closed-form temporal coefficients

    a_j(t) = e^{t c0} J_j(2 t sqrt(-c1)) / sqrt(-c1)^j        (c1 < 0)

which degenerate to ``e^{t c0} t^j / j!`` as ``c1 -> 0``.  This module fits
ellipses to spectra, evaluates the temporal modes (including a Bessel
implementation good to ~1e-12 for orders <= 60 and |x| <= 100), applies the
recurrence to vectors, assembles the truncated matrix-exponential
approximation, and evaluates the superlinear a-priori error bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, as_vector

# Largest c1 accepted by the temporal modes: c1 in (0, TAYLOR_BRANCH_TOL] is
# rounding noise of a degenerate ellipse and is evaluated as c1 = 0, where
# the modes reduce to the Taylor limit e^{t c0} t^j / j!.
TAYLOR_BRANCH_TOL = 1e-10
# Below this Bessel argument the scaled ascending series is used, so small
# |c1| (down to c1 = 0) needs no separate branch.
SCALED_SERIES_X = 12.0
DEFAULT_PADDING = 0.1
AXIS_FLOOR = 1e-3
# Support-line angles of the field-of-values bound; the circumscribed
# polygon overshoots the numerical radius by at most 1/cos(pi/N) - 1.
FOV_ANGLES = 64


# ---------------------------------------------------------------------------
# Bessel functions of the first kind, integer order
# ---------------------------------------------------------------------------

def _ascending_series(j, q):
    """S_j(q) = sum_k (-q)^k / (k! (j+k)!), elementwise.

    J_j(x) = (x/2)^j S_j(x^2/4); the Faber modes use the same sum with the
    (x/2)^j factor folded into t^j.
    """
    term = np.full_like(q, 1.0 / math.factorial(j))
    out = term.copy()
    for k in range(1, 200):
        term = term * (-q) / (k * (j + k))
        out += term
        if np.all(np.abs(term) <= 1e-18 * (np.abs(out) + 1e-300)):
            break
    return out


def _bessel_miller(nmax, x):
    """All orders 0..nmax by backward recurrence, elementwise on x > 0.

    Starts well above both the order and the turning point and normalizes
    with J0 + 2*sum(J_{2k}) = 1, the stable direction for j > x.
    """
    x = np.asarray(x, dtype=float)
    m_start = int(max(nmax, math.ceil(float(np.max(x))))) + 50
    if m_start % 2:
        m_start += 1
    rows = np.zeros((nmax + 1, x.shape[0]))
    jp = np.zeros_like(x)           # J_{k+1}
    jc = np.full_like(x, 1e-30)     # J_k
    norm = np.zeros_like(x)
    for k in range(m_start, 0, -1):
        jm = (2.0 * k / x) * jc - jp
        jp, jc = jc, jm
        if k - 1 <= nmax:
            rows[k - 1] = jc
        if (k - 1) % 2 == 0 and k - 1 > 0:
            norm += jc
        big = np.abs(jc) > 1e250
        if np.any(big):
            scale = np.where(big, 1e-250, 1.0)
            jp *= scale
            jc *= scale
            norm *= scale
            rows[:, big] *= 1e-250
    norm = 2.0 * norm + jc          # jc is now J_0
    return rows / norm


def bessel_j_table(nmax, x):
    """J_j(x) for all orders j = 0..nmax.

    Parameters
    ----------
    nmax : int
    x : float or 1-d array

    Returns
    -------
    (nmax+1,) or (nmax+1, len(x)) array
    """
    if nmax < 0:
        raise ValueError("order must be >= 0")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    sign = np.where(x < 0, -1.0, 1.0)
    ax = np.abs(x)
    out = np.zeros((nmax + 1, ax.shape[0]))
    small = ax < SCALED_SERIES_X
    if np.any(small):
        half = 0.5 * ax[small]
        for j in range(nmax + 1):
            out[j, small] = half**j * _ascending_series(j, half * half)
    if np.any(~small):
        out[:, ~small] = _bessel_miller(nmax, ax[~small])
    # J_j(-x) = (-1)^j J_j(x)
    for j in range(1, nmax + 1, 2):
        out[j] *= sign
    return out[:, 0] if scalar else out


def bessel_j(order, x):
    """Bessel function of the first kind J_order(x).

    Accurate to about 1e-12 absolute for order <= 60 and |x| <= 100;
    ascending series below |x| = 12, Miller backward recurrence above.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    return bessel_j_table(order, x)[order]


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

    def contains(self, z, slack=1e-12):
        """Whether the points z lie inside the (closed) ellipse."""
        z = np.asarray(z, dtype=complex)
        a = max(self.semi_real, 1e-300)
        b = max(self.semi_imag, 1e-300)
        r = ((z.real - self.c0) / a) ** 2 + (z.imag / b) ** 2
        return bool(np.all(r <= 1.0 + slack))


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

    Returns an (n+1, len(t)) array.  Requires c1 <= 0 (up to
    TAYLOR_BRANCH_TOL).  For small Bessel arguments the scaled series keeps
    the j-th mode accurate relative to t^j/j! (no underflow in
    sqrt(-c1)^j); at c1 = 0 it is the limit form e^{t c0} t^j / j!.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    if emap.c1 > TAYLOR_BRANCH_TOL:
        raise ValueError(
            "c1 > 0 (real-axis-dominated ellipse) is not supported; "
            "temporal modes require c1 <= 0"
        )
    out = np.empty((n + 1, t.shape[0]))
    pref = np.exp(t * emap.c0)
    s = math.sqrt(max(-emap.c1, 0.0))
    x = 2.0 * t * s
    small = x < SCALED_SERIES_X
    if np.any(small):
        # a_j = e^{t c0} t^j S_j((x/2)^2)
        ts, xs = t[small], x[small]
        q = 0.25 * xs * xs
        for j in range(n + 1):
            out[j, small] = _ascending_series(j, q) * ts**j
        out[:, small] *= pref[small]
    if np.any(~small):
        tl, xl = t[~small], x[~small]
        jt = bessel_j_table(n, xl)
        ratio = np.ones_like(tl)
        for j in range(n + 1):
            out[j, ~small] = jt[j] * ratio
            ratio = ratio * (2.0 * tl / xl)    # = 1/sqrt(-c1) in stable form
        out[:, ~small] *= pref[~small]
    return out


def faber_modes(emap, t, n):
    """Temporal coefficients a_0(t)..a_n(t) at a single time."""
    return faber_modes_grid(emap, t, n)[:, 0]


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
    return faber_modes(emap, t, order) @ faber_recurrence_apply(emap, m, v, order)


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
