"""Seeded model-space sweep: every kernel family, on 300 random small
models, either builds within its documented level or refuses.

Five classes of 60 models each, drawn from one fixed seed per class:
clamped paths (4-40 interior nodes), 3-ary Bethe trees (2-4 shells) and
Erdos-Renyi graphs (10-60 nodes, disconnected ones among them) as harmonic
chains under equilibrium statistics, and random nonsymmetric and symmetric
systems (3-30 dimensions) under Chorin statistics.  Tags and spring
constants are drawn too.

The exact kernel is avec stepped by one dense step exponential
e^{dt M11^T} over 101 points of [0, 5]: g_k = bvec . v_k and
f_k = (M11^T v_k) . mean_rest.  The full-spectrum families (Lagrange,
Newton) must come within 1e-12 max|g, f| of it or raise ValueError, and
the refusals per class must equal REFUSALS, so a change in which models a
family accepts shows here.  Dyson and Faber at orders 20 and 40 must build
finite tables on every model, and UNCONTAINED pins the models on which
faber_coeffs warns that its ellipse misses the spectrum; whether such a
truncation has converged is not this sweep's question.
"""

import warnings

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph

from mzgle.faber import fit_ellipse
from mzgle.kernels import (StatsKind, SystemSpec, dyson_coeffs, faber_coeffs,
                           kernel_eval_grid, lagrange_coeffs, newton_coeffs, reduce,
                           reduced_spectrum)
from mzgle.linalg import dense, expm_dense
from mzgle.models import (build_bethe, build_chain_system, build_erdos_renyi,
                          build_path)

MODELS_PER_CLASS = 60
GRID = np.linspace(0.0, 5.0, 101)
TOL = 1e-12
ORDERS = (20, 40)
UNCONTAINED_WARNING = ("spectrum of the unresolved block is not contained in the Faber "
                       "ellipse; the expansion may diverge")


def spring(g):
    """Spring constant, log-uniform on [1/4, 4]."""
    return float(np.exp(g.uniform(np.log(0.25), np.log(4.0))))


def chain(graph, g, clamp=()):
    """Chain on graph with a drawn spring constant, and a drawn tag."""
    system = build_chain_system(graph, k=spring(g), clamp=clamp)
    return system, int(g.integers(1, system.dim // 2 + 1))


def clamped_path(g):
    n = int(g.integers(4, 41))
    return chain(build_path(n + 2), g, clamp=(1, n + 2))


def bethe_tree(g):
    return chain(build_bethe(3, int(g.integers(2, 5))), g)


def erdos_renyi(g):
    n = int(g.integers(10, 61))
    # mean degree 0.5-4: isolated nodes and several components are common
    graph = build_erdos_renyi(n, g.uniform(0.5, 4.0) / n, seed=int(g.integers(2**32)))
    return chain(graph, g)


def chorin(a, g):
    dim = a.shape[0]
    system = SystemSpec(A=a, init_mean=g.standard_normal(dim),
                        stats_kind=StatsKind.CHORIN_INITIAL)
    return system, int(g.integers(1, dim + 1))


def nonsymmetric(g):
    # circular law: the spectrum fills about the unit disk
    dim = int(g.integers(3, 31))
    return chorin(g.standard_normal((dim, dim)) / np.sqrt(dim), g)


def symmetric(g):
    dim = int(g.integers(3, 31))
    s = g.standard_normal((dim, dim)) / np.sqrt(dim)
    return chorin(0.5 * (s + s.T), g)


# class -> (its model builder, the seed of its draws)
CLASSES = {"path": (clamped_path, 101), "bethe": (bethe_tree, 102),
           "erdos-renyi": (erdos_renyi, 103), "nonsymmetric": (nonsymmetric, 104),
           "symmetric": (symmetric, 105)}
# class -> number of its models on which (Lagrange, Newton) raised ValueError:
# Lagrange refuses a spectrum with two values closer than LAGRANGE_GAP_TOL
# times its radius, as the symmetric shells of a tree, the two halves of a
# path whose lengths plus one share a factor, or two components of a graph
# give
REFUSALS = {"path": (20, 0), "bethe": (60, 0), "erdos-renyi": (50, 0),
            "nonsymmetric": (0, 0), "symmetric": (0, 0)}
# class -> number of its models whose Faber ellipse (the bounding-box rule of
# fit_ellipse) does not contain the spectrum, so that faber_coeffs warns
UNCONTAINED = {"path": 0, "bethe": 0, "erdos-renyi": 0, "nonsymmetric": 32, "symmetric": 0}


def exact_kernel(r):
    """(g, f) on GRID: avec stepped by e^{dt M11^T}."""
    mt = np.ascontiguousarray(dense(r.M11).T)
    step = expm_dense(mt, GRID[1] - GRID[0])
    v = np.empty((GRID.size, mt.shape[0]))
    v[0] = r.avec
    for k in range(1, GRID.size):
        v[k] = step @ v[k - 1]
    return v @ r.bvec, v @ (mt.T @ r.mean_rest)


def sweep(name):
    """Yield (model number, reduced data) for the class's models."""
    build, seed = CLASSES[name]
    g = np.random.Generator(np.random.PCG64(seed))
    for number in range(MODELS_PER_CLASS):
        system, tag = build(g)
        yield number, reduce(system, tag)


@pytest.mark.parametrize("name", list(CLASSES))
def test_full_spectrum_families_are_exact_or_refuse(name):
    refused = [0, 0]
    for number, r in sweep(name):
        g_ref, f_ref = exact_kernel(r)
        scale = max(np.max(np.abs(g_ref)), np.max(np.abs(f_ref)))
        spectrum = reduced_spectrum(r, "modes")
        for i, coeffs in enumerate((lagrange_coeffs, newton_coeffs)):
            try:
                g, f = kernel_eval_grid(coeffs(r, spectrum), GRID)
            except ValueError:
                refused[i] += 1
                continue
            error = max(np.max(np.abs(g - g_ref)), np.max(np.abs(f - f_ref)))
            assert error <= TOL * scale, (name, number, coeffs.__name__, error / scale)
    assert tuple(refused) == REFUSALS[name]


@pytest.mark.parametrize("name", list(CLASSES))
def test_truncated_families_build_finite_tables(name):
    uncontained = 0
    for number, r in sweep(name):
        spectrum = reduced_spectrum(r, "extent")
        emap = fit_ellipse(spectrum)
        warned = False
        for order in ORDERS:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                faber = faber_coeffs(r, emap, order, spectrum)
            # the one warning allowed: the ellipse misses the spectrum
            assert [str(w.message) for w in caught] in ([], [UNCONTAINED_WARNING])
            warned |= bool(caught)
            for exp in (dyson_coeffs(r, order), faber):
                g, f = kernel_eval_grid(exp, GRID)
                assert np.all(np.isfinite(g)) and np.all(np.isfinite(f)), (
                    name, number, exp.family.value, order)
        uncontained += warned
    assert uncontained == UNCONTAINED[name]


def test_erdos_renyi_class_holds_disconnected_graphs():
    g = np.random.Generator(np.random.PCG64(CLASSES["erdos-renyi"][1]))
    parts = []
    for _ in range(MODELS_PER_CLASS):
        system, _ = erdos_renyi(g)
        h = system.dim // 2
        adjacency = scipy.sparse.csr_matrix(dense(system.A[:h, h:]) != 0)
        parts.append(scipy.sparse.csgraph.connected_components(adjacency)[0])
    assert sum(p > 1 for p in parts) >= MODELS_PER_CLASS // 2
