"""Explicit time integration of the scalar memory equation

    dy/dt = a y(t) + b + int_0^t g(t-s) y(s) ds + int_0^t f(t-s) ds.

Exterior integrator: third-order Adams-Bashforth, with the memory integral
discretized by the composite trapezoid rule over the stored history
(including the newest point) and the forcing integral by a cumulative
trapezoid.  The first two steps come from RK4 on the same right-hand side so
no implicit solve is needed.  Kernels are evaluated once per grid offset.

The trapezoid sum at step k needs the discrete convolution
c_k = sum_{j<=k} g_{k-j} y_j while y is still being computed, which
HistoryConvolution supplies with the blocked scheme of Hairer, Lubich and
Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985).  With B = NEAR_LAGS:

- near lags 0..B-1 are summed directly at each step, a dot of length <= B;
- far lags in [L, 2L), for L = B, 2B, 4B, ... <= K, are added by one FFT
  product of the aligned block y[s:s+L) with the kernel band g[L:2L) as
  soon as the block is complete, ahead of every step that needs them.

Each (j, lag) pair is summed exactly once, so the scheme and its order are
those of the direct sum and the values agree with it to rounding.  A K-step
solve costs O(K log^2 K) instead of the direct sum's O(K^2); what remains
is the O(K) Python step loop.  Each block is divided by a power of two
sigma >= max|block| before its FFT and the product is multiplied back;
powers of two scale exactly.  Without the scaling, the FFT's internal sums
over up to L values could overflow on values near the overflow threshold
that the direct sum still handles, and a blowup would be reported early.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelExpansion, kernel_eval_grid

GRID_ROUNDING_TOL = 1e-9

AB3_WEIGHTS = (23.0 / 12.0, -16.0 / 12.0, 5.0 / 12.0)

# Lags summed directly at every step; the far lags go by blocked FFT.
NEAR_LAGS = 128


@dataclass(frozen=True)
class SolverConfig:
    """Uniform-grid integration parameters.

    dt : time step, > 0
    t_final : horizon, > 0, an integer multiple of dt within rounding

    The steps before multistep history exists always use RK4.
    """

    dt: float
    t_final: float

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if not (self.t_final > 0 and math.isfinite(self.t_final)):
            raise ValueError("t_final must be positive and finite")
        steps = self.t_final / self.dt
        if abs(steps - round(steps)) > GRID_ROUNDING_TOL * max(1.0, steps):
            raise ValueError("t_final must be a whole number of steps of dt")

    @property
    def n_steps(self):
        return int(round(self.t_final / self.dt))


@dataclass(frozen=True)
class Trajectory:
    """A uniformly sampled scalar signal."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.times, dtype=float))
        y = np.atleast_1d(np.asarray(self.values, dtype=float))
        if t.ndim != 1 or t.shape != y.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
            raise ValueError("times and values must be finite")
        if t.shape[0] >= 2:
            steps = np.diff(t)
            if np.max(np.abs(steps - steps[0])) > GRID_ROUNDING_TOL * max(1.0, abs(steps[0])):
                raise ValueError("times must be uniformly spaced")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", y)

    def __len__(self):
        return self.times.shape[0]

    @property
    def dt(self):
        return float(self.times[1] - self.times[0]) if len(self) > 1 else 0.0

    def write_csv(self, path):
        """Write (t, y) rows with 17 significant digits under a header."""
        with open(path, "w") as fh:
            fh.write("t,y\n")
            for t, y in zip(self.times, self.values):
                fh.write(f"{t:.17g},{y:.17g}\n")


def read_trajectory_csv(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return Trajectory(times=data[:, 0], values=data[:, 1])


@dataclass(frozen=True)
class ReducedModel:
    """Streaming coefficients plus a memory-kernel expansion."""

    a: float
    b: float
    kernel: KernelExpansion


class BlowupError(RuntimeError):
    """Integration produced a non-finite value.

    last_valid_index is the largest step index with a finite solution value.
    """

    def __init__(self, message, last_valid_index):
        super().__init__(message)
        self.last_valid_index = last_valid_index


class HistoryConvolution:
    """Running convolution c_n = sum_{j<=n} g[n-j] y_j of a fixed table
    g[0..K] with values y_0, y_1, ... that arrive one at a time.

    push(y_n) stores y_n and returns c_n; at most K + 1 values are pushed.
    Lags below NEAR_LAGS are summed directly; each completed aligned block
    y[s:s+L), s a multiple of L, adds its lags in [L, 2L) to the steps
    s+L .. s+3L-2 by one FFT product (see the module docstring).
    """

    def __init__(self, g):
        g = np.asarray(g, dtype=float)
        self._size = g.shape[0]
        self._y = np.zeros(self._size)
        self._far = np.zeros(self._size)
        self._n = 0
        near = np.zeros(NEAR_LAGS)
        near[: min(NEAR_LAGS, self._size)] = g[:NEAR_LAGS]
        self._near_rev = near[::-1].copy()
        # (L, transform of the band g[L:2L), zero-padded to length 2L)
        self._bands = []
        width = NEAR_LAGS
        while width < self._size:
            self._bands.append((width, np.fft.rfft(g[width : 2 * width], 2 * width)))
            width *= 2

    def push(self, value):
        n = self._n
        y = self._y
        y[n] = value
        if n >= NEAR_LAGS:
            c = self._near_rev @ y[n + 1 - NEAR_LAGS : n + 1] + self._far[n]
        else:   # no far lags yet
            c = self._near_rev[NEAR_LAGS - 1 - n :] @ y[: n + 1]
        self._n = n = n + 1
        if n % NEAR_LAGS == 0:
            self._add_far(n)
        return c

    def _add_far(self, n):
        # the blocks y[n-L:n] of every level L that divides n are complete;
        # the levels ascend in powers of two, so the first miss ends the scan
        for width, band in self._bands:
            stop = min(n + 2 * width - 1, self._size)
            if n % width or stop <= n:
                break
            blk = self._y[n - width : n]
            peak = float(np.max(np.abs(blk)))
            if peak == 0.0:
                continue
            # exact power-of-two scale >= peak (capped at the largest finite one)
            sigma = math.ldexp(1.0, min(math.frexp(peak)[1], 1023))
            prod = np.fft.irfft(np.fft.rfft(blk / sigma, 2 * width) * band, 2 * width)
            self._far[n:stop] += sigma * prod[: stop - n]


def solve_gle(model, y0, cfg):
    """Integrate the scalar memory equation from y(0) = y0.

    Parameters
    ----------
    model : ReducedModel
    y0 : float
    cfg : SolverConfig

    Returns
    -------
    Trajectory on the uniform grid 0, dt, ..., t_final.

    Raises
    ------
    BlowupError if the solution leaves the finite range.
    """
    if not math.isfinite(y0):
        raise ValueError("y0 must be finite")
    a, b = model.a, model.b
    dt = cfg.dt
    kk = cfg.n_steps
    times = dt * np.arange(kk + 1)
    gtab, ftab = kernel_eval_grid(model.kernel, times)
    # forcing integral F(t_k) = int_0^{t_k} f, cumulative trapezoid
    fint = np.zeros(kk + 1)
    if kk >= 1:
        fint[1:] = np.cumsum(0.5 * dt * (ftab[1:] + ftab[:-1]))
    # kernel on the half grid for the RK4 startup stages
    half = 0.5 * dt * np.arange(5)
    gh, fh = kernel_eval_grid(model.kernel, half)

    y = np.empty(kk + 1)
    y[0] = y0
    rhist = np.empty(kk + 1)    # rhs at grid points, for the AB3 tail

    history = HistoryConvolution(gtab)

    def rhs_node(k):
        # called once for each k, in order, as soon as y[k] is known
        dot = history.push(y[k])
        # composite trapezoid of g(t_k - s) y(s) over s = 0..t_k
        mem = dt * (dot - 0.5 * (gtab[k] * y[0] + gtab[0] * y[k])) if k else 0.0
        return a * y[k] + b + mem + fint[k]

    def rhs_half(k, yv):
        # stage time t_k + dt/2 with k in {0, 1}: trapezoid over the known
        # nodes plus the half-width segment ending at the stage value yv
        if k == 0:
            mem = 0.25 * dt * (gh[1] * y[0] + gh[0] * yv)
            fpart = 0.25 * dt * (ftab[0] + fh[1])
        else:
            mem = dt * (0.5 * gh[3] * y[0] + 0.75 * gh[1] * y[1] + 0.25 * gh[0] * yv)
            fpart = fint[1] + 0.25 * dt * (ftab[1] + fh[3])
        return a * yv + b + mem + fpart

    def rhs_full(k, yv):
        # stage time t_{k+1}: uniform trapezoid with yv as the newest endpoint
        acc = 0.5 * gtab[k + 1] * y[0]
        for j in range(1, k + 1):
            acc += gtab[k + 1 - j] * y[j]
        acc += 0.5 * gtab[0] * yv
        return a * yv + b + dt * acc + fint[k + 1]

    def check(k):
        if not math.isfinite(y[k + 1]):
            raise BlowupError(
                f"solution became non-finite at t = {times[k + 1]:.6g} "
                f"(step {k + 1}); last valid step index is {k}",
                last_valid_index=k,
            )

    # overflow en route to a detected blowup is reported via BlowupError,
    # not floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        rhist[0] = rhs_node(0)
        n_start = min(2, kk)
        for k in range(n_start):
            # RK4 with the memory integral extended to the stage point
            y1 = y[k]
            k1 = rhist[k]
            k2 = rhs_half(k, y1 + 0.5 * dt * k1)
            k3 = rhs_half(k, y1 + 0.5 * dt * k2)
            k4 = rhs_full(k, y1 + dt * k3)
            y[k + 1] = y1 + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            check(k)
            rhist[k + 1] = rhs_node(k + 1)

        w0, w1, w2 = AB3_WEIGHTS
        for k in range(2, kk):
            y[k + 1] = y[k] + dt * (w0 * rhist[k] + w1 * rhist[k - 1] + w2 * rhist[k - 2])
            check(k)
            rhist[k + 1] = rhs_node(k + 1)

    return Trajectory(times=times, values=y)


def observed_order(model, y0, cfg_sequence, reference=None):
    """Richardson estimate of the scheme's convergence order.

    cfg_sequence : >= 3 SolverConfig with a common t_final and dt values in
        geometric progression.
    reference : optional callable t -> exact y(t); when omitted the order is
        estimated from differences of successive resolutions at t_final.

    Raises
    ------
    ValueError if the error sequence is non-monotone (inconclusive).
    """
    cfgs = list(cfg_sequence)
    if len(cfgs) < 3:
        raise ValueError("need at least 3 resolutions")
    tf = cfgs[0].t_final
    if any(abs(c.t_final - tf) > 1e-12 * max(1.0, tf) for c in cfgs):
        raise ValueError("all resolutions must share t_final")
    dts = np.array([c.dt for c in cfgs])
    ratios = dts[:-1] / dts[1:]
    if np.max(np.abs(ratios - ratios[0])) > 1e-9 * ratios[0]:
        raise ValueError("dt values must form a geometric sequence")
    finals = np.array([solve_gle(model, y0, c).values[-1] for c in cfgs])
    if reference is not None:
        errs = np.abs(finals - reference(tf))
    else:
        errs = np.abs(np.diff(finals))
    if np.any(errs[1:] >= errs[:-1]):
        raise ValueError(
            "inconclusive: error sequence is not strictly decreasing "
            f"({errs.tolist()})"
        )
    orders = np.log(errs[:-1] / errs[1:]) / np.log(ratios[0])
    return float(np.mean(orders))
