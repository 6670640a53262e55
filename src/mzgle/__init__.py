"""Memory kernels and generalized Langevin equations for linear systems.

Reduces a linear ODE system onto a single observed coordinate, expands the
resulting memory kernel in operator series (Dyson/Taylor, Faber, Lagrange,
Newton), integrates the reduced integro-differential equation, and checks
everything against independent matrix-exponential, analytic, and Monte
Carlo oracles.  Benchmark model builders (harmonic chains on paths, trees,
and random graphs; a wave equation on an annulus) are included, along with
a config-driven command line runner (``mzgle``).
"""

from .faber import (EllipseMap, faber_modes_grid, faber_recurrence_apply,
                    fit_ellipse)
from .gle import (BlowupError, ReducedModel, SolverConfig, Trajectory,
                  read_trajectory_csv, solve_gle)
from .kernels import (KernelExpansion, KernelFamily, ReducedData, StatsKind,
                      SystemSpec, dyson_coeffs, faber_coeffs,
                      kernel_eval_grid, lagrange_coeffs, newton_coeffs,
                      newton_order, reduce, reduced_spectrum)
from .linalg import Spectrum, eigenvalues, expm_dense
from .models import (GraphSpec, WaveModel, WaveModelSpec, bethe_node_count,
                     build_bethe, build_chain_system, build_erdos_renyi,
                     build_path, build_wave_model)
from .oracles import (MonteCarloMean, exact_mean, mc_mean, vacf_analytic_l2,
                      vacf_matrix_exp)

__version__ = "0.1.0"

__all__ = [
    "BlowupError", "EllipseMap",
    "GraphSpec", "KernelExpansion", "KernelFamily", "MonteCarloMean",
    "ReducedData", "ReducedModel", "SolverConfig", "Spectrum", "StatsKind",
    "SystemSpec", "Trajectory", "WaveModel", "WaveModelSpec", "bethe_node_count",
    "build_bethe", "build_chain_system", "build_erdos_renyi", "build_path",
    "build_wave_model", "dyson_coeffs",
    "eigenvalues", "exact_mean", "expm_dense",
    "faber_coeffs", "faber_modes_grid",
    "faber_recurrence_apply", "fit_ellipse",
    "kernel_eval_grid", "lagrange_coeffs",
    "mc_mean", "newton_coeffs", "newton_order",
    "read_trajectory_csv", "reduce", "reduced_spectrum", "solve_gle",
    "vacf_analytic_l2", "vacf_matrix_exp",
]
