"""Richardson estimate of the memory-equation solver's convergence order,
shared by the solver tests and the acceptance gate."""

import numpy as np

from mzgle.gle import solve_gle


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
