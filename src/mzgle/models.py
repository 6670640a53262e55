"""Benchmark linear systems: harmonic oscillator networks on graphs and a
spectral wave model on an annulus.

Graph chains: unit-mass oscillators on the nodes of a graph, springs on the
edges, giving the first-order block system

    d/dt [p; q] = [[0, k_eff (B - D)], [I/m, 0]] [p; q]

with B the adjacency matrix and D the (full-graph) degree matrix.  Nodes may
be clamped to zero displacement, which removes their rows/columns from B
while their neighbors keep the full degree (fixed-wall boundary).  With
l_norm set, the spring constant is divided by the coordination number,
matching the Hamiltonian normalization k/(2l) sum B_ij (q_i - q_j)^2.

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
from .linalg import as_matrix

PSI_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class GraphSpec:
    """Simple undirected graph, stored as its adjacency matrix alone.

    adjacency : (n, n) symmetric 0/1 with zero diagonal
    n_nodes, degree : derived; degree is the length-n vector of row sums
    """

    adjacency: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.adjacency, square=True)
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise ValueError("adjacency must have zero diagonal")
        if not np.all(np.isin(a, (0.0, 1.0))):
            raise ValueError("adjacency entries must be 0 or 1")
        object.__setattr__(self, "adjacency", a)

    @property
    def n_nodes(self):
        return self.adjacency.shape[0]

    @property
    def degree(self):
        return self.adjacency.sum(axis=1)


def build_path(n):
    """Path graph on n nodes, labeled 1..n along the path."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a = np.zeros((n, n))
    idx = np.arange(n - 1)
    a[idx, idx + 1] = 1.0
    a[idx + 1, idx] = 1.0
    return GraphSpec(a)


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
    a = np.zeros((n, n))
    frontier = [0]
    next_label = 1
    for shell in range(1, shells + 1):
        new_frontier = []
        for parent in frontier:
            n_children = l if shell == 1 else l - 1
            for _ in range(n_children):
                a[parent, next_label] = 1.0
                a[next_label, parent] = 1.0
                new_frontier.append(next_label)
                next_label += 1
        frontier = new_frontier
    return GraphSpec(a)


def build_erdos_renyi(n, p, seed):
    """G(n, p): every unordered pair is an edge with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random((n, n))
    upper = np.triu(u < p, k=1).astype(float)
    return GraphSpec(upper + upper.T)


def build_chain_system(graph, k=1.0, m=1.0, l_norm=None, clamp=()):
    """First-order oscillator system on a graph, momenta block first.

    Parameters
    ----------
    graph : GraphSpec
    k : spring constant, > 0
    m : mass, > 0
    l_norm : optional coordination divisor; when given, k is replaced by
        k / l_norm (the Hamiltonian normalization k/(2l))
    clamp : 1-based node labels pinned to zero displacement; clamped nodes
        are dropped from the state while their neighbors keep the
        full-graph degree (fixed walls)

    Returns
    -------
    SystemSpec of dimension 2 * n_free with equilibrium-quadratic statistics.
    k_eff (B - D) is written into A in place, with no dense D formed.
    """
    if k <= 0 or m <= 0:
        raise ValueError("k and m must be positive")
    k_eff = k
    if l_norm is not None:
        if l_norm <= 0:
            raise ValueError("l_norm must be positive")
        k_eff = k / l_norm
    n = graph.n_nodes
    clamp_idx = sorted(c - 1 for c in clamp)
    if clamp_idx and not (0 <= clamp_idx[0] and clamp_idx[-1] < n):
        raise ValueError("clamp labels out of range")
    if len(set(clamp_idx)) != len(clamp_idx):
        raise ValueError("clamp labels must be distinct")
    free = np.setdiff1d(np.arange(n), clamp_idx)
    if free.size == 0:
        raise ValueError("all nodes clamped")
    nf = free.size
    diag = np.arange(nf)
    a = np.zeros((2 * nf, 2 * nf))
    stiffness = a[:nf, nf:]
    stiffness[...] = graph.adjacency[np.ix_(free, free)]
    stiffness[diag, diag] -= graph.degree[free]
    stiffness *= k_eff
    a[nf + diag, diag] = 1.0 / m
    return SystemSpec(A=a, init_mean=np.zeros(2 * nf),
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
    sampler : sampler(rng, n=1) -> (n, 2N) initial states, a fresh array;
        the leading n_random_modes basis amplitudes are i.i.d. standard
        Gaussian and the velocity block is zero.  It consumes rng in row
        order (one standard_normal((n, n_random_modes)) draw), so calls
        for consecutive blocks of rows, one call per block as
        oracles.mc_mean makes them, give the rows of a single call
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
    sampler: object
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
    first order, and a Gaussian initial-condition sampler.
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

    mixing = psi[:, : spec.n_random_modes]

    def sampler(rng, n_samples=1):
        return np.pad(rng.standard_normal((n_samples, spec.n_random_modes)) @ mixing.T,
                      ((0, 0), (0, n)))

    return WaveModel(system=system, sampler=sampler,
                     sensor_index=sensor_node + 1,
                     sensor_offset=float(dist[sensor_node]),
                     psi=psi, galerkin_a=galerkin_a, nodal_b=nodal_b,
                     nodes=nodes, n_radial=n_radial, n_angular=n_angular,
                     spec=spec)
