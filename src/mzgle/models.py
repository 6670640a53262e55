"""Benchmark linear systems: harmonic oscillator networks on graphs and a
spectral wave model on an annulus.

Graph chains: unit-mass oscillators on the nodes of a graph, springs of
constant k on the edges, giving the first-order block system

    d/dt [p; q] = [[0, k (B - D)], [I, 0]] [p; q]

with B the adjacency matrix and D the (full-graph) degree matrix.  Nodes may
be clamped to zero displacement, which removes their rows/columns from B
while their neighbors keep the full degree (fixed-wall boundary).

Wave model: u_tt = Laplacian(u) on the annulus r1 <= r <= r2 with Dirichlet
walls, Galerkin-projected on the trigonometric basis
sin(i pi (r-r1)/(r2-r1)) x {1, cos(j theta), sin(j theta)}, transformed to
nodal amplitudes on a tensor collocation grid, and doubled to first order
over (w, dw/dt) with a near-inner-wall sensor node as the observable.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernels import StatsKind, SystemSpec
from .linalg import BLOCK_CELLS, SparseMatrix, as_matrix, is_symmetric, sparse

PSI_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class GraphSpec:
    """Simple undirected graph, stored as its adjacency matrix alone.

    adjacency : (n, n) symmetric 0/1 with zero diagonal, given as an
        ndarray or a linalg.SparseMatrix and stored as a
        linalg.SparseMatrix, whose nnz counts each edge twice
    n_nodes, degree : derived; degree is the length-n vector of row sums
    """

    adjacency: object

    def __post_init__(self):
        a = sparse(as_matrix(self.adjacency))
        if not is_symmetric(a):
            raise ValueError("adjacency must be symmetric")
        if np.any(a.diagonal() != 0):
            raise ValueError("adjacency must have zero diagonal")
        if not np.all(a.data == 1.0):
            raise ValueError("adjacency entries must be 0 or 1")
        object.__setattr__(self, "adjacency", a)

    @property
    def n_nodes(self):
        return self.adjacency.shape[0]

    @property
    def degree(self):
        return self.adjacency.sum(axis=1)


def _graph(n, heads, tails):
    """GraphSpec on n nodes with the undirected edges (heads[e], tails[e])."""
    return GraphSpec(SparseMatrix((n, n), np.concatenate([heads, tails]),
                                  np.concatenate([tails, heads]),
                                  np.ones(2 * len(heads))))


def build_path(n):
    """Path graph on n nodes, labeled 1..n along the path."""
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = np.arange(n - 1)
    return _graph(n, idx, idx + 1)


def bethe_node_count(l, shells):
    """1 + sum_{k=1..S} l (l-1)^{k-1}."""
    return 1 + sum(l * (l - 1) ** (k - 1) for k in range(1, shells + 1))


def build_bethe(l, shells):
    """Bethe lattice: cycle-free graph with coordination number l.

    Shell 0 is the root (label 1); the root has l children and every other
    non-leaf node has l-1 children.  Labels are breadth-first, shell by
    shell, so shell boundaries are contiguous label ranges.
    """
    if l < 2:
        raise ValueError("coordination number must be >= 2")
    if shells < 1:
        raise ValueError("shells must be >= 1")
    n = bethe_node_count(l, shells)
    # the root's children are 1..l; after them each node 1, 2, ... in turn
    # gets l - 1 children, so child c > l hangs from (c - l - 1) // (l - 1) + 1
    child = np.arange(1, n)
    parent = np.where(child <= l, 0, (child - l - 1) // (l - 1) + 1)
    return _graph(n, parent, child)


def build_erdos_renyi(n, p, seed):
    """G(n, p): every unordered pair is an edge with probability p.

    Pair (i, j), i < j, is an edge when entry (i, j) of one uniform (n, n)
    draw is below p.  The draw is made in blocks of BLOCK_CELLS // n rows;
    consecutive row blocks consume the generator as the single draw would,
    so each seed gives the same edges and no n x n array is formed.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = max(1, BLOCK_CELLS // max(n, 1))
    heads, tails = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    for start in range(0, n, rows):
        i, j = np.nonzero(rng.random((min(rows, n - start), n)) < p)
        upper = j > i + start
        heads.append(i[upper] + start)
        tails.append(j[upper])
    return _graph(n, np.concatenate(heads), np.concatenate(tails))


def build_chain_system(graph, k=1.0, clamp=()):
    """First-order oscillator system on a graph, momenta block first.

    Parameters
    ----------
    graph : GraphSpec
    k : spring constant of every edge, > 0
    clamp : 1-based node labels pinned to zero displacement; clamped nodes
        are dropped from the state while their neighbors keep the
        full-graph degree (fixed walls)

    Returns
    -------
    SystemSpec of dimension 2 * n_free with equilibrium-quadratic
    statistics, whose A is a linalg.SparseMatrix assembled from the free
    nodes' edges.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    n = graph.n_nodes
    clamp_idx = sorted(c - 1 for c in clamp)
    if clamp_idx and not (0 <= clamp_idx[0] and clamp_idx[-1] < n):
        raise ValueError("clamp labels out of range")
    if len(set(clamp_idx)) != len(clamp_idx):
        raise ValueError("clamp labels must be distinct")
    pinned = np.zeros(n, dtype=bool)
    pinned[clamp_idx] = True
    free = np.flatnonzero(~pinned)
    if free.size == 0:
        raise ValueError("all nodes clamped")
    edges = graph.adjacency[np.ix_(free, free)]
    h = free.size
    nodes = np.arange(h)
    # momentum rows: k (B - D) on the positions; position rows: I
    a = SparseMatrix((2 * h, 2 * h),
                     np.concatenate([edges.rows, nodes, h + nodes]),
                     np.concatenate([h + edges.cols, h + nodes, nodes]),
                     np.concatenate([np.full(edges.nnz, k), -k * graph.degree[free],
                                     np.ones(h)]))
    return SystemSpec(A=a, init_mean=np.zeros(2 * h),
                      stats_kind=StatsKind.BERNE_EQUILIBRIUM_QUADRATIC)


# ---------------------------------------------------------------------------
# Annulus wave model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WaveModelSpec:
    """Parameters of the annulus wave benchmark.

    n_modes : total basis size N; must factor as n_radial * n_angular with
        n_angular odd (the builder picks the largest odd divisor whose
        square does not exceed N)
    n_random_modes : number of leading modes with random initial amplitude
    r1, r2 : annulus radii
    sensor_point : (r, theta) observation point, strictly inside
    """

    n_modes: int
    n_random_modes: int
    r1: float = 1.0
    r2: float = 11.0
    sensor_point: tuple = (1.1, 0.1)

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if not 0 <= self.n_random_modes <= self.n_modes:
            raise ValueError("n_random_modes must be in 0..n_modes")
        if not 0 < self.r1 < self.r2:
            raise ValueError("need 0 < r1 < r2")
        rs = float(self.sensor_point[0])
        if not self.r1 < rs < self.r2:
            raise ValueError("sensor_point must lie strictly inside the annulus")


def _factor_modes(n):
    best = 1
    d = 1
    while d * d <= n:
        if n % d == 0 and d % 2 == 1:
            best = d
        d += 1
    return n // best, best    # (n_radial, n_angular)


@dataclass(frozen=True)
class WaveModel:
    """Built wave benchmark: the doubled nodal system plus diagnostics.

    system : SystemSpec over (w, dw/dt), dimension 2 N
    mixing : (2N, n_random_modes) matrix [psi[:, :n_random_modes]; 0]: an
        initial state is mixing z for i.i.d. standard Gaussian amplitudes
        z of the leading n_random_modes basis functions, with zero
        velocities (the law oracles.mc_mean samples)
    sensor_index : 1-based observable index into the doubled state (the
        node of the w-block nearest the requested sensor point)
    sensor_offset : Euclidean distance from the sensor point to that node
    psi : (N, N) mode-to-node transformation
    galerkin_a : (N, N) modal Galerkin matrix
    nodal_b : (N, N) nodal matrix psi galerkin_a psi^{-1}
    nodes : (N, 2) collocation nodes as (r, theta)
    n_radial, n_angular : tensor factorization of the basis
    spec : the WaveModelSpec this was built from
    """

    system: SystemSpec
    mixing: np.ndarray
    sensor_index: int
    sensor_offset: float
    psi: np.ndarray
    galerkin_a: np.ndarray
    nodal_b: np.ndarray
    nodes: np.ndarray
    n_radial: int
    n_angular: int
    spec: WaveModelSpec


def _basis_tables(spec, n_radial, n_angular, r, theta):
    """Radial/angular factor values and the Laplacian radial factor.

    Returns (rad, rad_lap, ang) where rad[i] = sin((i+1) pi rho(r)),
    rad_lap[i, a] combines d_rr + d_r/r - j_a^2/r^2 applied to rad[i] for
    angular wavenumber j_a, and ang[a] = angular factor a at theta.
    """
    span = spec.r2 - spec.r1
    ks = np.arange(1, n_radial + 1) * math.pi / span
    rad = np.sin(np.multiply.outer(ks, r - spec.r1))            # (Nr, nr)
    drad = ks[:, None] * np.cos(np.multiply.outer(ks, r - spec.r1))
    ddrad = -(ks**2)[:, None] * rad
    # angular order: 1, cos 1t, sin 1t, cos 2t, sin 2t, ...
    wavenum = np.array([0] + [(a + 1) // 2 for a in range(1, n_angular)], dtype=int)
    ang = np.empty((n_angular, theta.shape[0]))
    ang[0] = 1.0
    for a in range(1, n_angular):
        j = wavenum[a]
        ang[a] = np.cos(j * theta) if a % 2 == 1 else np.sin(j * theta)
    # Laplacian radial part per wavenumber: ddrad + drad/r - j^2 rad / r^2
    rad_lap = (ddrad + drad / r)[None, :, :] \
        - (wavenum**2)[:, None, None] * rad[None, :, :] / (r**2)[None, None, :]
    return rad, rad_lap, ang, wavenum


def build_wave_model(spec):
    """Assemble the annulus wave benchmark.

    Galerkin matrix by tensor quadrature (Gauss-Legendre radial, 4x
    oversampled; trapezoid angular, exact for the trigonometric factors),
    nodal transform on the equispaced interior tensor grid, doubling to
    first order, and the mixing matrix of the Gaussian initial law.
    """
    n_radial, n_angular = _factor_modes(spec.n_modes)
    n = spec.n_modes

    # quadrature grids
    nq_r = 4 * n_radial + 8
    xg, wg = np.polynomial.legendre.leggauss(nq_r)
    r_q = 0.5 * (spec.r2 - spec.r1) * (xg + 1.0) + spec.r1
    w_r = 0.5 * (spec.r2 - spec.r1) * wg
    nq_t = 4 * n_angular + 4
    t_q = 2.0 * math.pi * np.arange(nq_t) / nq_t
    w_t = np.full(nq_t, 2.0 * math.pi / nq_t)

    rad, rad_lap, ang, wavenum = _basis_tables(spec, n_radial, n_angular, r_q, t_q)

    # mode index = a * n_radial + i (angular-major)
    # values[m, kr] x ang[a, kt]; S_mn = sum_q w psi_m lap(psi_n)
    ang_gram = (ang * w_t) @ ang.T                      # (Na, Na)
    rad_gram = (rad * w_r) @ rad.T                      # (Nr, Nr)
    # lap integral factorizes: <psi_m, lap psi_n> =
    #   [rad_m . rad_lap[a_n, n_i]]_r * [ang_{a_m} . ang_{a_n}]_theta
    s = np.zeros((n, n))
    mass = np.zeros((n, n))
    for am in range(n_angular):
        for an in range(n_angular):
            g_ang = ang_gram[am, an]
            if abs(g_ang) < 1e-14:
                continue
            rl = (rad * w_r) @ rad_lap[an].T            # (Nr_m, Nr_n)
            rows = slice(am * n_radial, (am + 1) * n_radial)
            cols = slice(an * n_radial, (an + 1) * n_radial)
            s[rows, cols] = g_ang * rl
            mass[rows, cols] = g_ang * rad_gram
    galerkin_a = np.linalg.solve(mass, s)

    # collocation nodes: equispaced interior radii x equispaced angles
    r_nodes = spec.r1 + (spec.r2 - spec.r1) * np.arange(1, n_radial + 1) / (n_radial + 1)
    t_nodes = 2.0 * math.pi * np.arange(n_angular) / n_angular
    radN, _, angN, _ = _basis_tables(spec, n_radial, n_angular, r_nodes, t_nodes)
    # node index = l * n_radial + k (angle-major), matching the mode layout
    psi = np.zeros((n, n))
    nodes = np.zeros((n, 2))
    for l in range(n_angular):
        for kidx in range(n_radial):
            row = l * n_radial + kidx
            nodes[row] = (r_nodes[kidx], t_nodes[l])
            psi[row] = (angN[:, l][:, None] * radN[:, kidx][None, :]).ravel()
    cond = np.linalg.cond(psi)
    if cond > PSI_CONDITION_LIMIT:
        raise ValueError(
            f"collocation matrix condition number {cond:.3g} exceeds "
            f"{PSI_CONDITION_LIMIT:.0e}; choose a different node layout "
            "(n_modes factorization) for this basis size"
        )
    nodal_b = np.linalg.solve(psi.T, (psi @ galerkin_a).T).T

    doubled = np.zeros((2 * n, 2 * n))
    doubled[:n, n:] = np.eye(n)
    doubled[n:, :n] = nodal_b
    system = SystemSpec(A=doubled, init_mean=np.zeros(2 * n),
                        stats_kind=StatsKind.CHORIN_INITIAL)

    # sensor: nearest node in the plane
    rs, ts = float(spec.sensor_point[0]), float(spec.sensor_point[1])
    px, py = rs * math.cos(ts), rs * math.sin(ts)
    nx = nodes[:, 0] * np.cos(nodes[:, 1])
    ny = nodes[:, 0] * np.sin(nodes[:, 1])
    dist = np.hypot(nx - px, ny - py)
    sensor_node = int(np.argmin(dist))

    mixing = np.zeros((2 * n, spec.n_random_modes))
    mixing[:n] = psi[:, : spec.n_random_modes]

    return WaveModel(system=system, mixing=mixing,
                     sensor_index=sensor_node + 1,
                     sensor_offset=float(dist[sensor_node]),
                     psi=psi, galerkin_a=galerkin_a, nodal_b=nodal_b,
                     nodes=nodes, n_radial=n_radial, n_angular=n_angular,
                     spec=spec)
