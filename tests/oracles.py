"""Reference implementations that the package is tested against.

These are the earlier operator builders, kept only as oracles: the sparse site
matrices a, σ⁻ and σ_z, site operators lifted to the lattice by Kronecker
products with identities, the JCHM summed from those lifts, the jump
operators of the master equation (the output port on site 0 last), and the
N-excitation block assembled by a Python loop over recursively enumerated
occupation configurations.  Also the random-lattice
strategy that the property tests share, and the earlier mean-field ψ search
(a grid plus a bounded Brent refinement in every cell) with the lobe-boundary
bisection built on it, both on the single-site H(ψ) assembled from the
Kronecker lifts.

The rest are independent routes to what the commands compute, which no command
runs itself: the dressed JC eigenvectors, the J = 0 Mott window from sector
ground energies, the canonical netlist text behind the parser round trip,
time evolution of a state under the Lindblad generator (which must end at the
steady state), the complex bordered generator of the driven mean field and its
linearization on vec(ρ) from Kronecker products, the random-right-hand-side
probe of steady-state uniqueness, the exact inverse of the no-jump part of a
generator (which the steady-state preconditioner approximates), the weak-drive
power series of a steady state (one sparse LU, no Krylov solve), a Lorentzian
lineshape fit (whose width is the polariton linewidth) and the global index of
a product configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import curve_fit, minimize_scalar

from cqedlat.circuits import CircuitNetlist
from cqedlat.hilbert import (
    QUBIT_DIM,
    DensityMatrix,
    LatticeSpace,
    SiteSpace,
)
from cqedlat.jc import JCParams, mixing_angle
from cqedlat.lattice import LatticeParams, sector_ground_energy
from cqedlat.lindblad import Liouvillian, StiffnessError, _BorderedBatch, _gmres
from cqedlat.meanfield import PSI_FLOOR, PSI_SEARCH_TOL, OrderParameter

PSI_GRID_POINTS = 49      # coarse ψ grid that brackets the minimum of the search oracle
ZJ_RESOLUTION = 1e-4      # resolution and lower bracket end of the lobe-boundary bisection
# tolerances of the ``evolve`` reference integration (DOP853); the driven mean
# field integrates its transients at its own, looser pair
ODE_RTOL = 1e-9
ODE_ATOL = 1e-12
UNIQUE_PROBE_RTOL = 1e-8  # the uniqueness probe counts as solved below this relative residual


@st.composite
def random_lattices(draw):
    """Random 1-3 site graphs: per-site cutoffs 1-3, any edge subset, J of either sign."""
    n_sites = draw(st.integers(1, 3))
    freq, coupling = st.floats(0.5, 1.5), st.floats(0.0, 0.3)
    sites = tuple(JCParams(draw(freq), draw(freq), draw(coupling)) for _ in range(n_sites))
    pairs = [(i, j) for i in range(n_sites) for j in range(i + 1, n_sites)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    edges = tuple((i, j, draw(st.floats(-0.3, 0.3))) for i, j in chosen)
    space = LatticeSpace(tuple(SiteSpace(draw(st.integers(1, 3))) for _ in range(n_sites)))
    return LatticeParams(sites, edges), space


# ---------------------------------------------------------------------------
# Kronecker-product lifts

def annihilation(space: SiteSpace) -> sp.csr_matrix:
    """Photon annihilation on the truncated Fock factor: a[k-1, k] = sqrt(k)."""
    n = space.photon_cutoff + 1
    return sp.csr_matrix(sp.diags(np.sqrt(np.arange(1, n)), offsets=1, shape=(n, n)),
                         dtype=np.complex128)


def qubit_lower() -> sp.csr_matrix:
    """σ⁻ = |g⟩⟨e| in the (g, e) ordering used throughout."""
    return sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]), dtype=np.complex128)


def sigma_z() -> sp.csr_matrix:
    """σ_z = σ⁺σ⁻ - σ⁻σ⁺ with eigenvalue +1 on |e⟩."""
    return sp.csr_matrix(np.diag([-1.0, 1.0]), dtype=np.complex128)


def number(space: SiteSpace) -> sp.csr_matrix:
    """a†a on the Fock factor, as the exact diagonal 0, 1, ..., n_max."""
    return sp.csr_matrix(sp.diags(np.arange(space.photon_cutoff + 1, dtype=float)),
                         dtype=np.complex128)


def qubit_number() -> sp.csr_matrix:
    """Excited-state projector σ⁺σ⁻."""
    return sp.csr_matrix(np.diag([0.0, 1.0]), dtype=np.complex128)


def basis_index(space: LatticeSpace, config: Sequence[tuple[int, int]]) -> int:
    """Global index of a product configuration [(n_photon, qubit), ...], site 0 slowest."""
    if len(config) != space.n_sites:
        raise ValueError(f"expected {space.n_sites} site configurations, got {len(config)}")
    idx = 0
    for site, (n_ph, q) in zip(space.sites, config):
        idx = idx * site.dim + site.basis_index(n_ph, q)
    return idx


def vacuum(space: LatticeSpace) -> DensityMatrix:
    """All photons absent, all qubits in the ground state."""
    rho = np.zeros((space.total_dim, space.total_dim), dtype=np.complex128)
    rho[0, 0] = 1.0
    return DensityMatrix(rho)


def embed(op: sp.spmatrix, site_index: int, space: LatticeSpace) -> sp.csr_matrix:
    """Extend a site operator by identity on every other site."""
    left = int(np.prod(space.site_dims[:site_index], initial=1))
    right = int(np.prod(space.site_dims[site_index + 1:], initial=1))
    m = sp.csr_matrix(op, dtype=np.complex128)
    if left > 1:
        m = sp.kron(sp.identity(left, format="csr"), m, format="csr")
    if right > 1:
        m = sp.kron(m, sp.identity(right, format="csr"), format="csr")
    return m


def photon_op_on(space: LatticeSpace, site_index: int, photon_op: sp.spmatrix) -> sp.csr_matrix:
    return embed(sp.kron(photon_op, sp.identity(QUBIT_DIM), format="csr"), site_index, space)


def qubit_op_on(space: LatticeSpace, site_index: int, qubit_op: sp.spmatrix) -> sp.csr_matrix:
    site = space.sites[site_index]
    return embed(sp.kron(sp.identity(site.photon_cutoff + 1), qubit_op, format="csr"),
                 site_index, space)


def total_excitation(space: LatticeSpace) -> sp.csr_matrix:
    total = sp.csr_matrix((space.total_dim, space.total_dim), dtype=np.complex128)
    for i, site in enumerate(space.sites):
        total = total + photon_op_on(space, i, number(site))
        total = total + qubit_op_on(space, i, qubit_number())
    return total


def jc_hamiltonian(p: JCParams, space: SiteSpace, rwa: bool = True) -> sp.csr_matrix:
    site = LatticeSpace((space,))
    a = photon_op_on(site, 0, annihilation(space))
    sm = qubit_op_on(site, 0, qubit_lower())
    adag, sp_ = a.getH(), sm.getH()
    h = (p.omega_r * photon_op_on(site, 0, number(space))
         + p.omega_q * qubit_op_on(site, 0, qubit_number())
         + p.g * (adag @ sm + a @ sp_))
    if not rwa:
        h = h + p.g * (adag @ sp_ + a @ sm)
    return h


def build_jchm(params: LatticeParams, space: LatticeSpace, rwa: bool = True) -> sp.csr_matrix:
    d = space.total_dim
    h = sp.csr_matrix((d, d), dtype=np.complex128)
    for i, p in enumerate(params.site_params):
        h = h + embed(jc_hamiltonian(p, space.sites[i], rwa=rwa), i, space)
    for (i, j, J) in params.edges:
        ai = photon_op_on(space, i, annihilation(space.sites[i]))
        aj = photon_op_on(space, j, annihilation(space.sites[j]))
        hop = J * (ai.getH() @ aj)
        h = h + hop + hop.getH()
    return h


def collapse_operators(rates, space: LatticeSpace) -> list[sp.csr_matrix]:
    ops: list[sp.csr_matrix] = []
    for n in range(space.n_sites):
        if rates.gamma1 > 0:
            ops.append(math.sqrt(rates.gamma1) * qubit_op_on(space, n, qubit_lower()))
        if rates.gamma_phi > 0:
            ops.append(math.sqrt(rates.gamma_phi) * qubit_op_on(space, n, sigma_z()))
        if rates.gamma_kappa > 0:
            ops.append(math.sqrt(rates.gamma_kappa) * photon_op_on(space, n, annihilation(space.sites[n])))
    if rates.kappa > 0:           # the output port, on site 0
        ops.append(math.sqrt(rates.kappa) * photon_op_on(space, 0, annihilation(space.sites[0])))
    return ops


# ---------------------------------------------------------------------------
# excitation sectors by configuration loop

def sector_configs(space: LatticeSpace, N: int) -> list[tuple[tuple[int, int], ...]]:
    """All (n_photon, qubit) configurations with Σ(n + q) = N, sorted."""
    configs: list[tuple[tuple[int, int], ...]] = []

    def fill(site: int, remaining: int, acc: list[tuple[int, int]]) -> None:
        if site == space.n_sites:
            if remaining == 0:
                configs.append(tuple(acc))
            return
        cutoff = space.sites[site].photon_cutoff
        for n_ph in range(min(remaining, cutoff) + 1):
            for q in (0, 1):
                if n_ph + q <= remaining:
                    acc.append((n_ph, q))
                    fill(site + 1, remaining - n_ph - q, acc)
                    acc.pop()

    fill(0, N, [])
    configs.sort()
    return configs


def sector_hamiltonian(params: LatticeParams, space: LatticeSpace, N: int) -> sp.csr_matrix:
    """The N-excitation block, element by element over the configurations."""
    configs = sector_configs(space, N)
    idx = {c: k for k, c in enumerate(configs)}
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []

    for k, config in enumerate(configs):
        diag = 0.0
        for (n_ph, q), p in zip(config, params.site_params):
            diag += p.omega_r * n_ph + p.omega_q * q
        rows.append(k)
        cols.append(k)
        vals.append(diag)

        for i, p in enumerate(params.site_params):
            n_ph, q = config[i]
            cutoff = space.sites[i].photon_cutoff
            if q == 1 and n_ph + 1 <= cutoff:  # a†σ⁻: |n, e⟩ -> |n+1, g⟩
                target = config[:i] + ((n_ph + 1, 0),) + config[i + 1:]
                rows.append(idx[target])
                cols.append(k)
                vals.append(p.g * np.sqrt(n_ph + 1))
            if q == 0 and n_ph >= 1:  # aσ⁺: |n, g⟩ -> |n-1, e⟩
                target = config[:i] + ((n_ph - 1, 1),) + config[i + 1:]
                rows.append(idx[target])
                cols.append(k)
                vals.append(p.g * np.sqrt(n_ph))

        for (i, j, J) in params.edges:
            for src, dst in ((j, i), (i, j)):
                n_src, q_src = config[src]
                n_dst, q_dst = config[dst]
                if n_src >= 1 and n_dst + 1 <= space.sites[dst].photon_cutoff:
                    cfg = list(config)
                    cfg[src] = (n_src - 1, q_src)
                    cfg[dst] = (n_dst + 1, q_dst)
                    rows.append(idx[tuple(cfg)])
                    cols.append(k)
                    vals.append(J * np.sqrt(n_src * (n_dst + 1)))

    return sp.coo_matrix((vals, (rows, cols)), shape=(len(configs), len(configs))).tocsr()


# ---------------------------------------------------------------------------
# mean-field ψ search in every cell

def local_mf_hamiltonian(jc: JCParams, mu: float, zj: float, psi: complex,
                         space: SiteSpace) -> sp.csr_matrix:
    """H_JC - μN - zJ(a†ψ + aψ* - |ψ|²) on one site, from the Kronecker lifts."""
    site = LatticeSpace((space,))
    a = photon_op_on(site, 0, annihilation(space))
    return (jc_hamiltonian(jc, space) - mu * total_excitation(site)
            - zj * (psi * a.getH() + np.conj(psi) * a)
            + zj * abs(psi) ** 2 * sp.identity(space.dim, format="csr"))


def search_order_parameter(jc: JCParams, mu: float, zj: float,
                           space: SiteSpace) -> OrderParameter:
    """A ``PSI_GRID_POINTS`` grid on [0, √n_max], the package's window, brackets
    the minimum of the ground energy over real ψ; SciPy's bounded Brent search
    refines it to ``PSI_SEARCH_TOL``."""
    lat = LatticeSpace((space,))
    h0 = local_mf_hamiltonian(jc, mu, zj, 0.0, space).toarray()
    a = photon_op_on(lat, 0, annihilation(space)).toarray()
    x, eye = a + a.conj().T, np.eye(space.dim)

    def matrix(psi: float) -> np.ndarray:
        return h0 - zj * psi * x + zj * psi * psi * eye

    def energy(psi: float) -> float:
        return float(np.linalg.eigvalsh(matrix(psi))[0])

    grid = np.linspace(0.0, math.sqrt(space.photon_cutoff), PSI_GRID_POINTS)
    k = int(np.argmin([energy(s) for s in grid]))
    bounds = (grid[max(k - 1, 0)], grid[min(k + 1, PSI_GRID_POINTS - 1)])
    res = minimize_scalar(energy, bounds=bounds, method="bounded",
                          options={"xatol": PSI_SEARCH_TOL})
    vals, vecs = np.linalg.eigh(matrix(res.x))
    n_tot = total_excitation(lat).toarray()
    n_val = float(np.real(vecs[:, 0].conj() @ n_tot @ vecs[:, 0]))
    return OrderParameter(psi=float(res.x), energy=float(vals[0]), n_polariton=n_val)


def bisect_lobe_boundary(jc: JCParams, mu: float, space: SiteSpace, zj_max: float = 1.0) -> float:
    """zJ where the searched ψ* first exceeds ``PSI_FLOOR``, by bisection down to
    ``ZJ_RESOLUTION`` inside [ZJ_RESOLUTION, zj_max]."""
    def superfluid(zj: float) -> bool:
        return search_order_parameter(jc, mu, zj, space).psi > PSI_FLOOR

    lo, hi = ZJ_RESOLUTION, zj_max
    if superfluid(lo) or not superfluid(hi):
        raise ValueError(f"[{lo}, {hi}] does not bracket the lobe boundary at μ = {mu}")
    while hi - lo > ZJ_RESOLUTION:
        mid = 0.5 * (lo + hi)
        if superfluid(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# single-site closed forms

def dressed_state(p: JCParams, n: int, branch: str, space: SiteSpace) -> np.ndarray:
    """Normalized dressed eigenvector |n,±⟩ in the site basis.

    |n,+⟩ = cos θ_n |n, g⟩ + sin θ_n |n-1, e⟩,
    |n,−⟩ = sin θ_n |n, g⟩ − cos θ_n |n-1, e⟩.
    """
    if n > space.photon_cutoff:
        raise ValueError(f"n = {n} exceeds photon cutoff {space.photon_cutoff}")
    theta = mixing_angle(p, n)
    c, s = math.cos(theta), math.sin(theta)
    vec = np.zeros(space.dim, dtype=np.complex128)
    vec[space.basis_index(n, 0)], vec[space.basis_index(n - 1, 1)] = (c, s) if branch == "+" else (s, -c)
    return vec


def mott_window_numeric(jc: JCParams, N: int, space: SiteSpace) -> tuple[float, float]:
    """The J = 0 window of the N-polariton lobe from the ground energies of the
    single-site sectors N - 1, N and N + 1, diagonalized numerically."""
    params, site = LatticeParams.single_site(jc), LatticeSpace((space,))
    e_below, e_at, e_above = (sector_ground_energy(params, site, k) for k in (N - 1, N, N + 1))
    return e_at - e_below, e_above - e_at


# ---------------------------------------------------------------------------
# netlist text

def serialize_netlist(netlist: CircuitNetlist) -> str:
    """Canonical text form; parse(serialize(parse(text))) is an identity."""
    lines = [f"GROUND {n}" if n == netlist.ground else f"NODE {n}" for n in netlist.nodes]
    lines += [f"C {c.node_a} {c.node_b} {c.farads!r}" for c in netlist.capacitors]
    lines += [f"L {l.node_a} {l.node_b} {l.henries!r}" for l in netlist.inductors]
    for j in netlist.junctions:
        closure = f" CLOSURE {j.closure_loop}" if j.closure_loop else ""
        lines.append(f"JJ {j.node_a} {j.node_b} {j.ej_joules!r}{closure}")
    lines += [f"FLUX {loop} {phi!r}" for loop, phi in netlist.fluxes]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# driven mean field, complex form

def driven_bordered(liouv0: Liouvillian, a: np.ndarray, zj: float, psi: complex,
                    rho: np.ndarray | None = None) -> np.ndarray:
    """Dense complex bordered generator of the driven mean field on row-major vec(ρ).

    L(ψ) = L₀ + i zJ(ψ S_{a†} + ψ* S_a), with S_X = X ⊗ I - I ⊗ Xᵀ the
    commutator [X, ·], bordered by -s|I/d⟩⟨tr| with s = ``liouv0.scale()``.
    With ρ it is the linearization of the nonlinear generator at (ψ, ρ)
    instead, bordered alike: L(ψ)δρ + i zJ[tr(aδρ) S_{a†} + tr(a†δρ) S_a]ρ.
    """
    d = a.shape[0]
    eye = np.eye(d)
    s_adag = np.kron(a.conj().T, eye) - np.kron(eye, a.conj())
    s_a = np.kron(a, eye) - np.kron(eye, a.T)
    vec_eye = eye.reshape(-1)
    m = (liouv0.matrix.toarray() + 1j * zj * (psi * s_adag + np.conj(psi) * s_a)
         - (liouv0.scale() / d) * np.outer(vec_eye, vec_eye))
    if rho is not None:
        # tr(aδρ) = vec(aᵀ)·vec(δρ) and tr(a†δρ) = vec(a*)·vec(δρ)
        r = rho.reshape(-1)
        m += 1j * zj * (np.outer(s_adag @ r, a.T.reshape(-1))
                        + np.outer(s_a @ r, a.conj().reshape(-1)))
    return m


# ---------------------------------------------------------------------------
# time evolution and lineshapes

@dataclass
class EvolveResult:
    times: np.ndarray
    states: list[DensityMatrix]
    trace_drift: float
    min_eigenvalue: float

    @property
    def final(self) -> DensityMatrix:
        return self.states[-1]


def evolve(liouv: Liouvillian, rho0: DensityMatrix, t_final: float,
           dt_control: float | None = None) -> EvolveResult:
    """ρ(t) under ∂_t ρ = Lρ from ``rho0``, by SciPy's DOP853 on the assembled
    superoperator at ``ODE_RTOL`` and ``ODE_ATOL``.

    Samples are taken at t = 0, every ``dt_control`` and at t_final (only at the
    two ends without ``dt_control``), symmetrized and validated as density
    matrices.  The trace is never renormalized; its largest drift over the
    samples is reported, next to the smallest eigenvalue of the final state.
    """
    d, mat = liouv.dim, liouv.matrix
    y0 = rho0.rho.reshape(-1).astype(np.complex128)
    times, samples = np.array([0.0]), y0[:, None]
    if t_final > 0:
        n_out = max(1, round(t_final / dt_control)) if dt_control else 1
        sol = solve_ivp(lambda _t, y: mat @ y, (0.0, t_final), y0, method="DOP853",
                        t_eval=np.linspace(0.0, t_final, n_out + 1),
                        rtol=ODE_RTOL, atol=ODE_ATOL)
        if sol.status < 0:
            raise StiffnessError(f"integration failed before t = {t_final:.6g}: {sol.message}")
        times, samples = sol.t, sol.y
    states = [DensityMatrix(0.5 * (r + r.conj().T)) for r in (y.reshape(d, d) for y in samples.T)]
    return EvolveResult(times=times, states=states,
                        trace_drift=max(abs(np.trace(s.rho) - 1.0) for s in states),
                        min_eigenvalue=float(np.linalg.eigvalsh(states[-1].rho)[0]))


def unique_probe_residual(liouv: Liouvillian) -> float:
    """Relative residual of the bordered steady-state system (L - s|I/d⟩⟨tr|)x = b,
    solved as ``steady_state`` solves it, for a random b (seed 7).

    The bordered operator is singular exactly when the steady space of L has more
    than one dimension, and a random b then has no solution: a residual above
    ``UNIQUE_PROBE_RTOL`` marks a degenerate steady space.
    """
    d = liouv.dim
    rng = np.random.default_rng(7)
    probe = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    return float(_gmres(_BorderedBatch([liouv]), probe[None], UNIQUE_PROBE_RTOL)[1][0])


def no_jump_inverse(h_eff: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Y with -i(H_eff Y - Y H_eff†) = Z: the exact inverse of the no-jump part
    of a generator, from ``scipy.linalg.solve_sylvester`` on H_eff itself, with
    no Schur factor of the package and no stationary shift."""
    return scipy.linalg.solve_sylvester(h_eff, -h_eff.conj().T, 1j * z)


@dataclass(frozen=True)
class WeakDriveSeries:
    """Coefficients of ξ^k, k = 0 … order, of ⟨a†a⟩ and ⟨a†²a²⟩ on one site in
    the steady state of a weakly driven generator."""

    n_photon: np.ndarray
    num: np.ndarray

    def g2(self, xi: float) -> float:
        """g²(0) = ⟨a†²a²⟩ / ⟨a†a⟩² at drive ξ, from the truncated series."""
        powers = xi ** np.arange(self.n_photon.size)
        return float(self.num @ powers / (self.n_photon @ powers) ** 2)


def weak_drive_series(undriven: Liouvillian, unit_drive: Liouvillian, space: LatticeSpace,
                      site: int, order: int) -> WeakDriveSeries:
    """The steady state of L₀ + ξL₁ as a power series in ξ, with L₀ the
    generator ``undriven`` (drive off) and L₁ = ``unit_drive`` - L₀, the drive
    term at ξ = 1 (the same rotating frame).

    The series ρ = Σ_k ξ^k ρ_k solves L₀ρ₀ = 0 with tr ρ₀ = 1 and
    L₀ρ_k = -L₁ρ_{k-1} with tr ρ_k = 0.  Each is one solve with a single sparse
    LU of the assembled L₀ bordered by -s|I/d⟩⟨tr| (``steady_state``'s border,
    s = ``undriven.scale()``).  The drive flips sign under a → -a, so ⟨a†a⟩
    has even orders only, from k = 2, and ⟨a†²a²⟩ even orders from k = 4.
    Only those orders are summed: the others vanish exactly, and their
    roundoff would swamp the ξ⁴ two-photon populations a weak-drive g²(0)
    rests on.  No Krylov solve and no refinement are involved.
    """
    d = undriven.dim
    l0 = undriven.matrix
    l1 = unit_drive.matrix - l0
    diag = np.arange(d) * (d + 1)                       # the ρ_ii of vec(ρ)
    scale = undriven.scale()
    border = sp.csr_matrix((np.full(d * d, scale / d), (np.repeat(diag, d), np.tile(diag, d))),
                           shape=l0.shape)
    lu = spla.splu((l0 - border).tocsc())
    source = np.zeros(d * d, dtype=np.complex128)
    source[diag] = -scale / d
    rho = lu.solve(source)
    a = photon_op_on(space, site, annihilation(space.sites[site]))
    a_dag = a.getH()
    # tr(Aρ) = vec(Aᵀ)·vec(ρ) for the row-major vec(ρ)
    n_row, num_row = ((op.T.toarray().reshape(-1)) for op in (a_dag @ a, a_dag @ a_dag @ a @ a))
    n_photon, num = np.zeros(order + 1), np.zeros(order + 1)
    for k in range(1, order + 1):
        rho = lu.solve(-(l1 @ rho))
        if k % 2 == 0:
            n_photon[k] = (n_row @ rho).real
            if k >= 4:
                num[k] = (num_row @ rho).real
    return WeakDriveSeries(n_photon=n_photon, num=num)


@dataclass(frozen=True)
class LorentzianFit:
    center: float
    fwhm: float
    height: float
    offset: float


def fit_lorentzian(x: Sequence[float], power: Sequence[float]) -> LorentzianFit:
    """Least-squares Lorentzian fit h·(Γ/2)² / ((x-c)² + (Γ/2)²) + b.

    Fit the *power* lineshape (|⟨a⟩|² for transmission scans); its full width
    at half maximum equals the polariton linewidth δε in linear response.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(power, dtype=float)
    b0 = float(np.min(y))
    h0 = float(np.max(y) - b0)
    c0 = float(x[np.argmax(y)])
    above = x[y > b0 + 0.5 * h0]
    w0 = float(above.max() - above.min()) if above.size >= 2 else (x[1] - x[0]) * 3

    def model(w, c, fwhm, h, b):
        hw = 0.5 * fwhm
        return h * hw**2 / ((w - c) ** 2 + hw**2) + b

    popt, _ = curve_fit(model, x, y, p0=[c0, max(w0, 1e-12), h0, b0], maxfev=20000)
    c, fwhm, h, b = popt
    return LorentzianFit(center=float(c), fwhm=float(abs(fwhm)), height=float(h), offset=float(b))
