"""Closed forms of the Dyson and Faber series that the pipeline does not
evaluate: the Laplace transform of a truncated memory kernel and the
truncated Faber approximation of a matrix exponential acting on a vector.
The acceptance gate and the kernel and Faber tests check them against
quadrature, dense exponentials and the a-priori bound.
"""

import numpy as np

from mzgle.faber import faber_modes_grid, faber_recurrence_apply
from mzgle.kernels import KernelFamily


def laplace_G(k, s):
    """Laplace transform of the memory kernel g, truncated like the series.

    Faber: with u = s - c0 and w = sqrt(u^2 - 4 c1) on the principal
    branch,

        G(s) = (1/w) sum_j g_j (2 / (w + u))^j,

    which is the stable rewriting of g_j (w - u)^j / (2^j (-c1)^j w).  For
    Dyson, c0 = c1 = 0 gives w = s and the power sum sum_j g_j / s^{j+1}.
    Only these two families have the closed forms; requires Re(s) larger
    than the kernel growth rate for the transform to converge.
    """
    s = complex(s)
    if s.real <= 0:
        raise ValueError("Re(s) must be positive")
    if k.family in (KernelFamily.DYSON, KernelFamily.FABER):
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


def expm_faber(emap, m, t, v, order):
    """Truncated Faber approximation of e^{t m} v:
    sum_{j<=order} a_j(t) F_j(m) v."""
    modes = faber_modes_grid(emap, [t], order)[:, 0]
    return modes @ faber_recurrence_apply(emap, m, v, order)
