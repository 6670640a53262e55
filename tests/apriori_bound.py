"""The superlinear a-priori error bound of the Faber series, which no stage
of the pipeline evaluates: the acceptance gate and the Faber tests check
that it dominates the measured truncation error of e^{tm} v and of the
memory kernel of a reduced system.
"""

import math
from dataclasses import dataclass

import numpy as np

from mzgle.linalg import as_matrix, dense

# Support-line angles of the field-of-values bound; the circumscribed
# polygon overshoots the numerical radius by at most 1/cos(pi/N) - 1.
FOV_ANGLES = 64


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
    with E = 1 + psi(capacity) and psi(w) = w + c0 + c1/w.  Evaluated in
    log space so large n*t do not overflow prematurely.  Requires n >= 4q.
    """
    if n < 4.0 * params.q:
        raise ValueError(f"bound valid only for n >= 4q = {4.0 * params.q:.3g}, got n={n}")
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return 0.0
    E = 1.0 + (emap.capacity + emap.c0 + emap.c1 / emap.capacity)
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
