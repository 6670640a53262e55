"""Matrix representation of the operator algebra on affine observables,
shared by the oracle tests and the acceptance gate.

Projected-operator identities of the reduction (the words P L (Q L)^j
behind every memory coefficient) are checked here in an explicit dense
(N+1) x (N+1) representation, independent of the reduced formulas.
"""

from dataclasses import dataclass

import numpy as np

from mzgle.kernels import StatsKind
from mzgle.linalg import dense


@dataclass(frozen=True)
class AffineObservableRep:
    """Matrix representation of the operator algebra on affine observables.

    An observable u(x) = c + v.x is the coefficient vector (c, v) of length
    N+1.  L_rep realizes the generator (L u)(x) = (A x).grad u, whose linear
    block is A^T and which annihilates constants.  P_rep realizes the
    projection for the system's statistics; Q_rep = I - P_rep.
    """

    dim: int
    L_rep: np.ndarray
    P_rep: np.ndarray

    @property
    def Q_rep(self):
        return np.eye(self.dim) - self.P_rep

    def observable(self, index):
        """Coefficient vector of the coordinate observable x_index (1-based)."""
        e = np.zeros(self.dim)
        e[index] = 1.0
        return e


def affine_rep(system, observable_index=1):
    """Build the affine-observable representation for one resolved coordinate.

    Under initial-condition statistics the projection is the conditional
    expectation given the observed coordinate: constants and x_obs are
    fixed, every other x_j is replaced by its initial mean.  Under
    equilibrium-quadratic statistics it is the covariance projection onto
    x_obs, which keeps only the x_obs component and kills constants.
    """
    n = system.dim
    if not 1 <= observable_index <= n:
        raise ValueError(f"observable_index must be in 1..{n}")
    o = observable_index    # position in the (c, v) coefficient vector
    lrep = np.zeros((n + 1, n + 1))
    lrep[1:, 1:] = dense(system.A).T
    prep = np.zeros((n + 1, n + 1))
    if system.stats_kind is StatsKind.BERNE_EQUILIBRIUM_QUADRATIC:
        if observable_index > n // 2:
            raise ValueError(
                "equilibrium-quadratic statistics require observing a "
                "momentum coordinate (index within the first block)"
            )
        prep[o, o] = 1.0
    else:
        prep[0, 0] = 1.0
        prep[o, o] = 1.0
        for j in range(1, n + 1):
            if j != o:
                prep[0, j] = system.init_mean[j - 1]
    return AffineObservableRep(dim=n + 1, L_rep=lrep, P_rep=prep)


def operator_oracle(system, word, observable_index=1):
    """Matrix of an operator word over {L, P, Q} on affine observables.

    The word is written in mathematical order: ("P", "L") denotes the
    composition P L, i.e. L acts first.  Apply the result to a coefficient
    vector with `matrix @ vec`.
    """
    rep = affine_rep(system, observable_index)
    table = {"L": rep.L_rep, "P": rep.P_rep, "Q": rep.Q_rep}
    out = np.eye(rep.dim)
    for w in word:
        key = str(w).upper()
        if key not in table:
            raise ValueError(f"unknown operator {w!r}; expected L, P, or Q")
        out = out @ table[key]
    return out
