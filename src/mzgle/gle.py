"""Explicit time integration of the scalar memory equation

    dy/dt = a y(t) + b + int_0^t g(t-s) y(s) ds + int_0^t f(t-s) ds.

Exterior integrator: third-order Adams-Bashforth, with the memory integral
discretized by the composite trapezoid rule over the stored history
(including the newest point) and the forcing integral by a cumulative
trapezoid.  The first two steps come from the third-order Taylor polynomial
at t = 0, whose derivatives y', y'' and y''' the equation gives, with g'(0)
and f'(0) taken as the first differences of the kernel table; its local
error is O(dt^4), as for an AB3 step.  The kernels are tabulated once, on
the solver grid.

The trapezoid sum at step k needs the discrete convolution
c_k = sum_{j<=k} g_{k-j} y_j while y is still being computed, which
HistoryConvolution supplies with the blocked scheme of Hairer, Lubich and
Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985).  With B = NEAR_LAGS:

- near lags 0..2B-1 are summed directly, by one banded Toeplitz matvec;
- far lags in [L, 2L), for L = 2B, 4B, 8B, ... <= K, are added by one FFT
  product of the aligned block y[s:s+L) with the kernel band g[L:2L) as
  soon as the block is complete, ahead of every step that needs them.

The near band takes the first level's lags [B, 2B) too: at that size a
direct product is cheaper than an FFT pair through numpy's per-call
overhead.

Each (j, lag) pair is summed exactly once, so the scheme and its order are
those of the direct sum and the values agree with it to rounding.  Each
block is divided by a power of two sigma >= max|block| before its FFT and
the product is multiplied back; powers of two scale exactly.  Without the
scaling, the FFT's internal sums over up to L values could overflow on
values near the overflow threshold that the direct sum still handles, and a
blowup would be reported early.

The scheme is linear in y, so the steps after the start are solved a block
at a time, with blocks aligned to B: [3, B), [B, 2B), ..., the last one
possibly partial.  Every lag >= 2B of a block's steps reaches into earlier
blocks and is already in the far sums.  The rhs at the block's steps is
r = R u + q, where u = y[s:e] is unknown, q collects b, the forcing and the
memory terms of earlier values, R has a + dt g_0/2 on its diagonal and
dt g_l on subdiagonal l.  AB3 then reads T u = rhs with

    T = I - S_1 - dt W R,

S_1 the shift, W the AB3 weights on subdiagonals 1-3 and rhs the terms of
y_{s-1}, r_{s-3..s-1} and q.  T is unit lower-triangular Toeplitz, and so
is T^-1, whose first column comes from an O(B^2) recursion once per solve;
a partial block uses the leading parts.  Each block costs one near-lag
matvec over the earlier values, whose lagged sums enter q; one product
with T^-1 for u, written straight into the history's storage, which is
the trajectory; and one lower-triangular B x B Toeplitz product of
g_0..g_{B-1} with u, which adds the block's own lags to the lagged sums
to give the c_k of its steps.  r follows from c by the trapezoid formula,
as in the direct scheme, and only its last three values carry to the next
block; the complete block then feeds the far sums.  On a stiff model
T^-1's column overflows within the block while u is still finite; the
block is then solved by blocked forward substitution over the column's
longest finite prefix (see _BlockSolver), so a blowup is not reported
early.  A K-step solve costs O(K log^2 K) with O(K / B) Python-level
operations.

Blowup: the direct scheme stops at the first step k whose y_{k+1} is
non-finite.  In a block that is the first k < K with a non-finite c_k or
r_k (c_k may overflow while y_k is finite), or the step before the first
non-finite y_k, whichever comes first; only the finite prefix of a block
is committed to the history, so its products never meet the values past it.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .kernels import KernelExpansion, kernel_eval_grid
from .linalg import GRID_ROUNDING_TOL, uniform_step

AB3_WEIGHTS = (23.0 / 12.0, -16.0 / 12.0, 5.0 / 12.0)

# Lags summed directly at every step; the far lags go by blocked FFT.
NEAR_LAGS = 128
# Rows per formatted block of write_table
WRITE_ROWS = 4096


@dataclass(frozen=True)
class SolverConfig:
    """Uniform-grid integration parameters.

    dt : time step, > 0
    t_final : horizon, an integer multiple >= 1 of dt within rounding

    The steps before multistep history exists come from the Taylor
    polynomial at t = 0.
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
        if self.n_steps < 1:
            raise ValueError("t_final must be at least one step of dt")

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
        uniform_step(t)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", y)

    def __len__(self):
        return self.times.shape[0]

    def write_csv(self, path):
        """Write (t, y) rows with 17 significant digits under a header."""
        write_table(path, ("t", "y"), (self.times, self.values))


def write_table(path, header, columns):
    """Write equal-length columns as comma-separated rows under a header
    line, every value as %.17g: np.savetxt's bytes for that format.  Rows
    are formatted WRITE_ROWS at a time, so the Python floats and the text
    held at once do not grow with the table."""
    columns = [np.asarray(c) for c in columns]
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, columns[0].shape[0], WRITE_ROWS):
            block = np.column_stack([c[start:start + WRITE_ROWS] for c in columns])
            fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))


def read_trajectory_csv(path):
    """The rows t,y under a CSV's header line; ValueError if none or not two columns."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # no rows: raised below
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] == 0 or data.shape[1] != 2:
        raise ValueError(f"expected rows of the two columns t,y, got a {data.shape} table")
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
    g[0..K] with values y_0..y_K that arrive in order.

    values, of length K + 1, stores the y_j; the caller writes them there.
    lagged(m) returns the sums for the next m steps n..n+m-1 over the
    values committed so far, and extend(lagged), with lagged that result,
    commits values[n:n+m] and returns their c_n: lagged plus the m x m
    lower-triangular Toeplitz product of g[0..m) with the new values.  The
    m steps must not cross a multiple of NEAR_LAGS.  Lags below 2 NEAR_LAGS
    are summed by one banded Toeplitz matvec; each completed aligned block
    y[s:s+L), s a multiple of L >= 2 NEAR_LAGS, adds its lags in [L, 2L)
    to the steps s+L .. s+3L-2 by one FFT product (see the module
    docstring).
    """

    def __init__(self, g):
        g = np.asarray(g, dtype=float)
        self._size = g.shape[0]
        lags = 2 * NEAR_LAGS
        # y_j at _padded[lags - 1 + j], after lags - 1 zeros
        self._padded = np.zeros(lags - 1 + self._size)
        self.values = self._padded[lags - 1 :]
        self._far = np.zeros(self._size)
        self._n = 0
        near = np.zeros(lags)
        near[: min(lags, self._size)] = g[:lags]
        # row i is the near sum of step n + i over _padded[n : n + 3B - 1]:
        # the committed values in the first 2B - 1 columns, y_n.. after them
        self._near = np.zeros((NEAR_LAGS, NEAR_LAGS + lags - 1))
        for i in range(NEAR_LAGS):
            self._near[i, i : i + lags] = near[::-1]
        # (L, transform of the band g[L:2L), zero-padded to length 2L)
        self._bands = []
        width = lags
        while width < self._size:
            self._bands.append((width, np.fft.rfft(g[width : 2 * width], 2 * width)))
            width *= 2

    def lagged(self, m):
        n = self._n
        window = self._padded[n : n + 2 * NEAR_LAGS - 1]
        return self._near[:m, : 2 * NEAR_LAGS - 1] @ window + self._far[n : n + m]

    def extend(self, lagged):
        n = self._n
        m = len(lagged)
        if n % NEAR_LAGS + m > NEAR_LAGS:
            raise ValueError(f"values {n}..{n + m - 1} cross a multiple of {NEAR_LAGS}")
        own = self._near[:m, 2 * NEAR_LAGS - 1 : 2 * NEAR_LAGS - 1 + m]
        c = lagged + own @ self.values[n : n + m]
        self._n = n = n + m
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
            blk = self.values[n - width : n]
            peak = float(np.max(np.abs(blk)))
            # exact power-of-two scale >= peak (capped at the largest finite
            # one); an all-zero block has scale 2^0 and adds exact zeros
            sigma = math.ldexp(1.0, min(math.frexp(peak)[1], 1023))
            prod = np.fft.irfft(np.fft.rfft(blk / sigma, 2 * width) * band, 2 * width)
            self._far[n:stop] += sigma * prod[: stop - n]


def _ab3_block_column(a, dt, g):
    """First column of T = I - S_1 - dt W R, the NEAR_LAGS x NEAR_LAGS unit
    lower-triangular Toeplitz matrix of one block of AB3 steps (see the
    module docstring); g is the kernel table, of any length."""
    rcol = np.zeros(NEAR_LAGS)
    rcol[: min(NEAR_LAGS, len(g))] = dt * g[:NEAR_LAGS]
    rcol[0] = a + 0.5 * dt * g[0]
    col = np.zeros(NEAR_LAGS)
    col[0] = 1.0
    col[1] = -1.0
    for lag, w in enumerate(AB3_WEIGHTS, start=1):
        col[lag:] -= dt * w * rcol[: NEAR_LAGS - lag]
    return col


def _lower_toeplitz(col):
    """The lower-triangular Toeplitz matrix with first column col."""
    mat = np.zeros((col.shape[0], col.shape[0]))
    for i in range(col.shape[0]):
        mat[i, : i + 1] = col[i::-1]
    return mat


class _BlockSolver:
    """u = T^-1 rhs for the leading m x m part of a unit lower-triangular
    Toeplitz T with first column col, m <= len(col), by products with
    T^-1.

    T^-1 is unit lower-triangular Toeplitz too, and its first column v
    follows from T v = e_0 by the recursion v_k = -sum_{j=1..k} col_j
    v_{k-j}, once.  On a stiff model v grows like the step's
    amplification and overflows within the block, while the solution,
    which starts far below the overflow threshold, is still finite.  So
    only the longest finite prefix of v, of length p, is kept, and the
    block is solved by blocked forward substitution: each stretch of p
    unknowns is T^-1's p x p part times its rhs less the product of T
    with the unknowns already found (none for the first stretch, which
    is the whole block when m <= p).  Without that, the
    product would turn an overflowed entry of v into a non-finite u and
    a blowup would be reported early.
    """

    def __init__(self, col):
        width = col.shape[0]
        inv = np.zeros(width)
        inv[0] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, col.shape[0]):
                inv[k] = -np.dot(col[1 : k + 1], inv[k - 1 :: -1])
                if not math.isfinite(inv[k]):
                    width = k
                    break
        self._inv = _lower_toeplitz(inv[:width])
        self._mat = _lower_toeplitz(col)

    def solve(self, rhs):
        width = self._inv.shape[0]
        m = rhs.shape[0]
        u = np.empty(m)
        for i in range(0, m, width):
            e = min(i + width, m)
            u[i:e] = self._inv[: e - i, : e - i] @ (rhs[i:e] - self._mat[i:e, :i] @ u[:i])
        return u


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
    np.add(ftab[1:], ftab[:-1], out=fint[1:])
    fint *= 0.5 * dt
    np.cumsum(fint, out=fint)

    history = HistoryConvolution(gtab)
    y = history.values
    y[0] = y0

    def commit(s, lagged):
        # hand y[s:e] to the history, e - s = len(lagged), and return the rhs
        # r[s:e] from their memory sums c, the composite trapezoid of
        # g(t_k - s) y(s) over s = 0..t_k (0 at k = 0)
        e = s + len(lagged)
        yk = y[s:e]
        c = history.extend(lagged)
        return a * yk + b + dt * (c - 0.5 * (gtab[s:e] * y0 + gtab[0] * yk)) + fint[s:e]

    def blowup(k):
        return BlowupError(
            f"solution became non-finite at t = {times[k + 1]:.6g} "
            f"(step {k + 1}); last valid step index is {k}",
            last_valid_index=k,
        )

    # overflow en route to a detected blowup is reported via BlowupError,
    # not floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        # third-order Taylor start: y', y'' and y''' at t = 0 from the
        # equation, with g'(0) and f'(0) from the table's first step
        d1 = a * y0 + b
        d2 = a * d1 + gtab[0] * y0 + ftab[0]
        d3 = a * d2 + gtab[0] * d1 + ((gtab[1] - gtab[0]) * y0 + ftab[1] - ftab[0]) / dt
        n0 = min(2, kk) + 1
        h = dt * np.arange(1, n0)
        y[1:n0] = y0 + h * (d1 + h / 2 * (d2 + h / 3 * d3))
        finite = np.isfinite(y[1:n0])
        if not finite.all():
            raise blowup(int(np.argmin(finite)))
        r = commit(0, history.lagged(n0))

        block = _BlockSolver(_ab3_block_column(a, dt, gtab))
        w0, w1, w2 = AB3_WEIGHTS
        s = 3
        while s <= kk:
            e = min(s - s % NEAR_LAGS + NEAR_LAGS, kk + 1)
            # r over the block is R u + q; v holds r[s-3:s], the last three
            # values of the previous commit, then q
            lagged = history.lagged(e - s)
            v = np.concatenate((r[-3:], b + fint[s:e] + dt * (lagged - 0.5 * gtab[s:e] * y0)))
            rhs = dt * (w0 * v[2:-1] + w1 * v[1:-2] + w2 * v[:-3])
            rhs[0] += y[s - 1]
            y[s:e] = block.solve(rhs)
            # on overflow, only the finite prefix y[s:stop] is committed;
            # the direct sum stops at the first step k < K whose c_k, and so
            # r_k, is non-finite, or before the first non-finite y_k
            finite = np.isfinite(y[s:e])
            stop = e if finite.all() else s + int(np.argmin(finite))
            if stop > s:
                r = commit(s, lagged[: stop - s])
                bad = ~np.isfinite(r[: min(stop, kk) - s])
                if bad.any():
                    raise blowup(s + int(np.argmax(bad)))
            if stop < e:
                raise blowup(stop - 1)
            s = e

    return Trajectory(times=times, values=y)
