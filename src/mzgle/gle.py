"""Explicit time integration of the scalar memory equation

    dy/dt = a y(t) + b + int_0^t g(t-s) y(s) ds + int_0^t f(t-s) ds.

Exterior integrator: third-order Adams-Bashforth, with the memory integral
discretized by the composite trapezoid rule over the stored history
(including the newest point) and the forcing integral by a cumulative
trapezoid.  The first two steps come from RK4 on the same right-hand side so
no implicit solve is needed.  Kernels are evaluated once per grid offset and
cached; the per-step memory term is a dot product against the reversed
kernel table, so a K-step solve costs O(K^2) total.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelExpansion, kernel_eval_grid

GRID_ROUNDING_TOL = 1e-9

AB3_WEIGHTS = (23.0 / 12.0, -16.0 / 12.0, 5.0 / 12.0)


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

    def mem_at_node(k):
        # composite trapezoid of g(t_k - s) y(s) over s = 0..t_k
        if k == 0:
            return 0.0
        dot = gtab[k::-1] @ y[: k + 1]
        return dt * (dot - 0.5 * (gtab[k] * y[0] + gtab[0] * y[k]))

    def rhs_node(k):
        return a * y[k] + b + mem_at_node(k) + fint[k]

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
