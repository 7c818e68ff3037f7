"""Infinite-lattice physics via on-site mean-field decoupling.

Equilibrium: the hopping term is decoupled through the superfluid order
parameter ψ = ⟨a⟩, mapping the lattice onto the local grand-canonical
Hamiltonian

    H(ψ) = H_JC - μ(a†a + σ⁺σ⁻) - zJ(a†ψ + aψ* - |ψ|²),

whose ground energy is minimized over ψ.  The U(1) gauge freedom makes the
energy depend on |ψ| only, so the search runs over real ψ >= 0.  Mott lobes
are the regions with minimizer below ``PSI_FLOOR``; their boundary is located
by bisection in zJ, with the J = 0 lobe edges available in closed form from
the dressed-level staircase.

Driven-dissipative: the same decoupling applied to the local density matrix
gives a closed nonlinear master equation in the drive rotating frame,

    ∂_t ρ = L₀ρ - i[-zJ(ψ(t) a† + ψ(t)* a), ρ],   ψ(t) = tr(aρ),

whose fixed points are the roots of F(ψ) = tr(a ρ_ss(ψ)) - ψ, with ρ_ss(ψ)
the steady state of the linear Liouvillian at frozen ψ.  Each seed follows
the dynamics (RK45) only until it is captured: after every control interval
Newton runs on F from the current ψ, its Jacobian from a linear-response
solve, and the run stops once the root it reaches is linearly stable and the
state has moved closer to that same root over consecutive intervals.  The
stability margin is the largest real part in the spectrum of the linearized
nonlinear generator at the root, the trace mode excluded.  So only stable
branches are reported, each with its residual |F(ψ*)| and its margin;
distinct fixed points reached from different seeds signal bistability, and
runs that are never captured are reported as limit cycles or raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.integrate import RK45

from .hilbert import (
    DensityMatrix,
    LatticeSpace,
    SiteSpace,
    annihilation,
    photon_op_on,
    total_excitation,
)
from .jc import JCParams, jc_hamiltonian, polariton_energy
from .lattice import LatticeParams, build_jchm
from .lindblad import (
    DissipationRates,
    DriveSpec,
    Liouvillian,
    StiffnessError,
    VacuumStateError,
    build_liouvillian,
    g2_zero,
    steady_state,
)

__all__ = [
    "GrandCanonicalParams",
    "OrderParameter",
    "PhaseDiagramCell",
    "DrivenFixedPoint",
    "DrivenMFResult",
    "CutoffWindowError",
    "MeanFieldConvergenceError",
    "local_mf_hamiltonian",
    "minimize_order_parameter",
    "mott_window_analytic",
    "mott_window_numeric",
    "lobe_boundary",
    "phase_diagram",
    "driven_mf_steady",
]

PSI_FLOOR = 1e-5          # |ψ*| above this counts as superfluid
PSI_SEARCH_TOL = 1e-7     # golden-section window width
ZJ_RESOLUTION = 1e-4      # lobe-boundary bisection resolution (units of the scan)
CYCLE_SAMPLES = 40        # ψ samples a limit-cycle verdict needs
NEWTON_MAX_ITER = 8       # F evaluations of one Newton run before it counts as failed
CAPTURE_CONTRACTIONS = 2  # consecutive intervals over which ‖ρ(t) - ρ_ss(ψ*)‖ must shrink


class CutoffWindowError(RuntimeError):
    """The energy minimum sits at the edge of the ψ search window."""


class MeanFieldConvergenceError(RuntimeError):
    """The driven self-consistency loop neither settled nor cycled."""


@dataclass(frozen=True)
class GrandCanonicalParams:
    """JC site with chemical potential μ and mean-field hopping weight zJ."""

    jc: JCParams
    mu: float
    z: int = 1
    J: float = 0.0

    def __post_init__(self) -> None:
        if self.z < 1 or int(self.z) != self.z:
            raise ValueError(f"coordination number z must be a positive integer, got {self.z}")
        if self.J < 0:
            raise ValueError("equilibrium scans require J >= 0 (gauge away negative signs)")

    @property
    def zj(self) -> float:
        return self.z * self.J

    def with_zj(self, zj: float) -> "GrandCanonicalParams":
        return GrandCanonicalParams(jc=self.jc, mu=self.mu, z=self.z, J=zj / self.z)


@dataclass(frozen=True)
class OrderParameter:
    psi: float
    energy: float
    n_polariton: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class PhaseDiagramCell:
    mu: float
    zj: float
    psi: float
    energy: float
    n_polariton: float
    phase: str


def _site_terms(jc: JCParams, space: SiteSpace) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
    """H_JC (RWA), N = a†a + σ⁺σ⁻ and a on one site: every H(ψ) is built from these."""
    site = LatticeSpace((space,))
    return (jc_hamiltonian(jc, space), total_excitation(site),
            photon_op_on(site, 0, annihilation(space)))


def local_mf_hamiltonian(p: GrandCanonicalParams, psi: complex, space: SiteSpace) -> sp.csr_matrix:
    """H_JC - μN - zJ(a†ψ + aψ* - |ψ|²) on one site."""
    h, n_tot, a = _site_terms(p.jc, space)
    return (h - p.mu * n_tot
            - p.zj * (psi * a.getH() + np.conj(psi) * a)
            + p.zj * abs(psi) ** 2 * sp.identity(space.dim, format="csr"))


class _MFCore:
    """Cached dense pieces of H(ψ) so the ψ search costs one eigvalsh per point."""

    def __init__(self, p: GrandCanonicalParams, space: SiteSpace):
        h, n_tot, a = (m.toarray() for m in _site_terms(p.jc, space))
        self.n_tot = n_tot
        self.h0 = h - p.mu * n_tot
        self.a_plus_adag = a + a.conj().T
        self.zj = p.zj
        self.eye = np.eye(space.dim)

    def matrix(self, psi: float) -> np.ndarray:
        return self.h0 - self.zj * psi * self.a_plus_adag + self.zj * psi * psi * self.eye

    def energy(self, psi: float) -> float:
        return float(np.linalg.eigvalsh(self.matrix(psi))[0])

    def ground(self, psi: float) -> tuple[float, np.ndarray]:
        vals, vecs = np.linalg.eigh(self.matrix(psi))
        return float(vals[0]), vecs[:, 0]


def minimize_order_parameter(p: GrandCanonicalParams, space: SiteSpace,
                             psi_max: float = 3.0, grid_points: int = 49,
                             tol: float = PSI_SEARCH_TOL) -> OrderParameter:
    """Minimize the mean-field ground energy over real ψ in [0, psi_max].

    A coarse grid brackets the minimum, golden-section refinement narrows the
    bracket below ``tol``.  A minimum at the upper window edge means the
    search window (or the photon cutoff behind it) is too small and raises
    :class:`CutoffWindowError`.
    """
    core = _MFCore(p, space)
    grid = np.linspace(0.0, psi_max, grid_points)
    energies = [core.energy(s) for s in grid]
    k = int(np.argmin(energies))
    if k == grid_points - 1:
        raise CutoffWindowError(
            f"energy still decreasing at ψ = {psi_max}; enlarge psi_max and the photon cutoff")
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid_points - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1 = core.energy(x1)
    f2 = core.energy(x2)
    iterations = grid_points + 2
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = core.energy(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = core.energy(x2)
        iterations += 1
    psi_star = 0.5 * (lo + hi)
    if psi_star > psi_max - 10 * tol:
        raise CutoffWindowError(
            f"minimizer ψ* = {psi_star} sits at the window edge {psi_max}")
    energy, vec = core.ground(psi_star)
    n_val = float(np.real(vec.conj() @ (core.n_tot @ vec)))
    return OrderParameter(psi=float(psi_star), energy=energy, n_polariton=n_val,
                          converged=True, iterations=iterations)


# ---------------------------------------------------------------------------
# Mott lobes

def mott_window_analytic(jc: JCParams, N: int) -> tuple[float, float]:
    """J = 0 chemical-potential window of the N-polariton Mott lobe.

    The lobe occupies ε_N⁻ - ε_{N-1}⁻ < μ < ε_{N+1}⁻ - ε_N⁻ (lower-branch
    staircase); the window closes when its width turns negative.
    """
    if N < 1:
        raise ValueError("Mott lobes are labeled by N >= 1")
    lower = polariton_energy(jc, N, "-") - polariton_energy(jc, N - 1, "-")
    upper = polariton_energy(jc, N + 1, "-") - polariton_energy(jc, N, "-")
    return lower, upper


def mott_window_numeric(jc: JCParams, N: int, space: SiteSpace) -> tuple[float, float]:
    """Same window from numerically diagonalized sector ground energies.

    Independent cross-check of the closed-form staircase: the single-site
    spectrum is diagonalized, eigenstates are binned by their total-excitation
    expectation value and the lowest energy of each bin enters the window.
    """
    if N + 1 > space.photon_cutoff:
        raise ValueError("photon cutoff too small to resolve the N+1 sector")
    h, n_tot = (m.toarray() for m in _site_terms(jc, space)[:2])
    vals, vecs = np.linalg.eigh(h)
    labels = np.rint(np.real(np.einsum("ij,jk,ki->i", vecs.conj().T, n_tot, vecs))).astype(int)
    e_sector: dict[int, float] = {}
    for lam, lab in zip(vals, labels):
        e_sector.setdefault(int(lab), float(lam))
    lower = e_sector[N] - e_sector[N - 1]
    upper = e_sector[N + 1] - e_sector[N]
    return lower, upper


def lobe_boundary(jc: JCParams, mu: float, space: SiteSpace, z: int = 1,
                  zj_max: float = 1.0, resolution: float = ZJ_RESOLUTION,
                  psi_floor: float = PSI_FLOOR, psi_max: float = 3.0) -> float:
    """Critical zJ at fixed μ where the Mott indicator ψ* > psi_floor flips.

    Bisection over zJ down to ``resolution``; raises ValueError when the
    bracket [resolution, zj_max] does not straddle the boundary (μ outside
    the lobe, or zj_max too small).
    """
    def superfluid(zj: float) -> bool:
        p = GrandCanonicalParams(jc=jc, mu=mu, z=z, J=zj / z)
        return minimize_order_parameter(p, space, psi_max=psi_max).psi > psi_floor

    lo, hi = resolution, zj_max
    if superfluid(lo):
        raise ValueError(f"already superfluid at zJ = {lo}; μ = {mu} lies outside the Mott lobe")
    if not superfluid(hi):
        raise ValueError(f"still Mott at zJ = {hi}; enlarge zj_max")
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if superfluid(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def phase_diagram(jc: JCParams, mu_values: np.ndarray, zj_values: np.ndarray,
                  space: SiteSpace, z: int = 1, psi_floor: float = PSI_FLOOR,
                  psi_max: float = 3.0) -> list[PhaseDiagramCell]:
    """Grid scan of the order parameter; cells are labeled Mott(N) or SF."""
    cells: list[PhaseDiagramCell] = []
    for mu in mu_values:
        for zj in zj_values:
            p = GrandCanonicalParams(jc=jc, mu=float(mu), z=z, J=float(zj) / z)
            res = minimize_order_parameter(p, space, psi_max=psi_max)
            if res.psi <= psi_floor and abs(res.n_polariton - round(res.n_polariton)) <= 1e-6:
                phase = f"Mott{int(round(res.n_polariton))}"
            else:
                phase = "SF"
            cells.append(PhaseDiagramCell(mu=float(mu), zj=float(zj), psi=res.psi,
                                          energy=res.energy, n_polariton=res.n_polariton,
                                          phase=phase))
    return cells


# ---------------------------------------------------------------------------
# driven-dissipative mean field

@dataclass(frozen=True)
class DrivenFixedPoint:
    psi: complex
    rho: DensityMatrix
    g2: float
    seed: complex
    converged: bool
    limit_cycle: bool
    t_elapsed: float
    orbit: tuple[complex, ...] | None = None
    residual: float = math.nan           # |tr(aρ) - ψ| of the reported fixed point
    stability_margin: float = math.nan   # max Re λ of its linearization, trace mode excluded


@dataclass(frozen=True)
class DrivenMFResult:
    branches: tuple[DrivenFixedPoint, ...]   # one representative per fixed point
    per_seed: tuple[DrivenFixedPoint, ...]
    multistable: bool
    limit_cycle: bool


def _coherent_site_state(space: SiteSpace, alpha: complex) -> DensityMatrix:
    """Truncated coherent state in the photon factor, qubit in the ground state."""
    n = space.photon_cutoff + 1
    amps = np.array([alpha ** k / math.sqrt(math.factorial(k)) for k in range(n)],
                    dtype=np.complex128)
    amps *= math.exp(-0.5 * abs(alpha) ** 2)
    amps /= np.linalg.norm(amps)
    vec = np.zeros(space.dim, dtype=np.complex128)
    for k in range(n):
        vec[space.basis_index(k, 0)] = amps[k]
    return DensityMatrix.pure(vec)


@dataclass(frozen=True)
class _Root:
    """A self-consistent ψ: its frozen-ψ steady state, |F(ψ)| and stability margin."""

    psi: complex
    rho: DensityMatrix
    residual: float
    margin: float


class _DrivenSite:
    """One driven site under the mean field ψ.

    The generator with ψ frozen is L(ψ) = L₀ + i zJ(ψ S_{a†} + ψ* S_a), with
    S_X ρ = [X, ρ].  Superoperators act on the row-major vec(ρ); matrices on
    the traceless subspace use the coordinates of vec(ρ) without ρ_{d-1,d-1},
    which the other diagonal entries fix.
    """

    def __init__(self, jc: JCParams, rates: DissipationRates, drive: DriveSpec,
                 zj: float, space: SiteSpace):
        self.space = LatticeSpace((space,))
        self.liouv0 = build_liouvillian(build_jchm(LatticeParams.single_site(jc), self.space),
                                        rates, drive, self.space)
        self.zj = zj
        self.psi_bound = math.sqrt(space.photon_cutoff)   # |tr(aρ)|² ≤ tr(a†aρ) ≤ n_max
        d = space.dim
        a = photon_op_on(self.space, 0, annihilation(space))
        self.a = a.toarray()
        eye = sp.identity(d, format="csr", dtype=np.complex128)
        self.s_adag = sp.kron(a.getH(), eye, format="csr") - sp.kron(eye, a.conj(), format="csr")
        self.s_a = sp.kron(a, eye, format="csr") - sp.kron(eye, a.T, format="csr")
        self.a_trace = self.a.T.reshape(-1)          # tr(aρ) = vec(aᵀ)·vec(ρ)
        self.adag_trace = self.a.conj().reshape(-1)  # tr(a†ρ)
        self.diag = np.zeros(d * d)
        self.diag[np.arange(d) * (d + 1)] = 1.0      # tr ρ = diag·vec(ρ)
        self.l0 = self.liouv0.matrix
        self.rhs_terms = sp.vstack([self.l0, self.s_adag, self.s_a], format="csr")

    def rhs(self, _t: float, y: np.ndarray) -> np.ndarray:
        """The nonlinear master equation, ψ = tr(aρ) refreshed at every call."""
        psi = self.a_trace @ y
        l0_y, s_adag_y, s_a_y = (self.rhs_terms @ y).reshape(3, -1)   # one sparse product
        return l0_y + (1j * self.zj) * (psi * s_adag_y + np.conj(psi) * s_a_y)

    def steady(self, psi: complex) -> DensityMatrix:
        """ρ_ss(ψ): the steady state of H_rot - zJ(ψa† + ψ*a) with the same jumps."""
        base = self.liouv0
        h = base.h_rot - self.zj * (psi * self.a.conj().T + np.conj(psi) * self.a)
        return steady_state(Liouvillian(h, base.jumps, self.space, rotating_frame=True,
                                        rates=base.rates, drive=base.drive), check_unique=False)

    def _traceless(self, m: np.ndarray) -> np.ndarray:
        """A superoperator that maps into traceless matrices, on traceless matrices."""
        return m[:-1, :-1] - np.outer(m[:-1, -1], self.diag[:-1])

    def _lift(self, x: np.ndarray) -> np.ndarray:
        """Traceless coordinates back to vec(ρ), column by column."""
        return np.vstack([x, -(self.diag[:-1] @ x)])

    def linearization(self, psi: complex, rho: DensityMatrix | None = None) -> np.ndarray:
        """Dense L(ψ) on traceless matrices; with ρ, the linearization of the
        nonlinear generator at (ψ, ρ).

        For Hermitian δρ, δψ* = tr(a†δρ), so the linearization
        δρ ↦ L(ψ)δρ + i zJ[tr(aδρ) S_{a†} + tr(a†δρ) S_a]ρ is complex-linear
        and has the spectrum of the real-linear map on Hermitian matrices.
        """
        m = (self.l0 + (1j * self.zj) * (psi * self.s_adag + np.conj(psi) * self.s_a)).toarray()
        if rho is not None:
            r = rho.rho.reshape(-1)
            m += (1j * self.zj) * (np.outer(self.s_adag @ r, self.a_trace)
                                   + np.outer(self.s_a @ r, self.adag_trace))
        return self._traceless(m)

    def newton_step(self, psi: complex, rho: DensityMatrix, f: complex) -> complex | None:
        """Newton step on F(ψ) = tr(aρ_ss(ψ)) - ψ, or None at a singular Jacobian.

        Linear response gives the Wirtinger derivatives: L(ψ)X = -i zJ[a†, ρ]
        for X = ∂ρ_ss/∂ψ and L(ψ)X = -i zJ[a, ρ] for ∂ρ_ss/∂ψ*, both traceless.
        """
        r = rho.rho.reshape(-1)
        source = (-1j * self.zj) * np.stack([self.s_adag @ r, self.s_a @ r], axis=1)
        try:
            x = self._lift(np.linalg.solve(self.linearization(psi), source[:-1]))
        except np.linalg.LinAlgError:
            return None
        da, db = self.a_trace @ x                 # ∂F/∂ψ = da - 1, ∂F/∂ψ* = db
        da -= 1.0
        det = abs(da) ** 2 - abs(db) ** 2
        if det == 0:
            return None
        return (db * np.conj(f) - np.conj(da) * f) / det

    def newton(self, psi: complex, psi_tol: float, distinct_tol: float,
               known: list[_Root]) -> _Root | None:
        """Newton on F(ψ) from ψ.

        Returns a root of ``known`` as soon as an iterate comes within
        ``distinct_tol`` of it; otherwise the new root once |F| ≤ ``psi_tol``,
        with its stability margin, added to ``known``.  Returns None when
        ``NEWTON_MAX_ITER`` evaluations do not converge, an iterate leaves
        |ψ| ≤ √n_max, where every tr(aρ) lies, or the Jacobian is singular.
        """
        for _ in range(NEWTON_MAX_ITER):
            for root in known:
                if abs(psi - root.psi) <= distinct_tol:
                    return root
            if not abs(psi) <= self.psi_bound:
                return None
            rho = self.steady(psi)
            f = complex(self.a_trace @ rho.rho.reshape(-1)) - psi
            if abs(f) <= psi_tol:
                root = _Root(psi=complex(psi), rho=rho, residual=abs(f),
                             margin=self.stability_margin(psi, rho))
                known.append(root)
                return root
            step = self.newton_step(psi, rho, f)
            if step is None:
                return None
            psi = psi + step
        return None

    def stability_margin(self, psi: complex, rho: DensityMatrix) -> float:
        """max Re λ of the linearization at (ψ, ρ), the trace mode excluded."""
        return float(np.max(np.linalg.eigvals(self.linearization(psi, rho)).real))


def driven_mf_steady(jc: JCParams, rates: DissipationRates, drive: DriveSpec,
                     zj: float, seeds: tuple[complex, ...] = (0.0,),
                     space: SiteSpace | None = None, psi_tol: float = 1e-8,
                     t_max: float | None = None, control_interval: float | None = None,
                     rtol: float = 1e-9, atol: float = 1e-12,
                     distinct_tol: float = 1e-4) -> DrivenMFResult:
    """Self-consistent driven-dissipative mean field on one site.

    Runs the nonlinear master equation from every seed (a coherent state of
    amplitude equal to the seed value) in control intervals.  After each
    interval, Newton runs on F(ψ) = tr(aρ_ss(ψ)) - ψ from the current ψ.  The
    run is captured, and stops, when that Newton reaches a linearly stable
    root (stability margin < 0) and ‖ρ(t) - ρ_ss(ψ*)‖ has shrunk toward that
    same root over ``CAPTURE_CONTRACTIONS`` consecutive intervals.  The seed
    then reports ψ*, ρ_ss(ψ*), the residual |F(ψ*)| ≤ ``psi_tol`` and the
    margin.  Fixed points from different seeds that differ by more than
    ``distinct_tol`` are reported as distinct branches (multistability).  A run
    that is never captured within the horizon is classified as a limit cycle
    when its ψ swing over the last ``CYCLE_SAMPLES`` control intervals is not
    decaying, and returned with a sampled orbit; otherwise it raises
    :class:`MeanFieldConvergenceError`.
    """
    if not rates.any_nonzero():
        raise ValueError("driven mean field requires dissipative rates > 0")
    if space is None:
        space = SiteSpace(photon_cutoff=10)
    site = _DrivenSite(jc, rates, drive, zj, space)
    d = space.dim

    slowest = min(r for r in (rates.gamma1, rates.gamma_phi, rates.gamma_kappa,
                              *(k for _, k in rates.kappa_ports)) if r > 0)
    t_chunk = control_interval if control_interval is not None else 1.0 / slowest
    horizon = t_max if t_max is not None else 600.0 / slowest

    roots: list[_Root] = []     # every root Newton has found, from any seed
    results: list[DrivenFixedPoint] = []
    for seed in seeds:
        y = _coherent_site_state(space, seed).rho.reshape(-1).copy()
        t = 0.0
        psi_prev = complex(site.a_trace @ y)
        history: list[complex] = [psi_prev]
        last_step = float("inf")
        root: _Root | None = None
        distances: list[float] = []     # ‖ρ(t) - ρ_ss(ψ*)‖ while it keeps shrinking
        while t < horizon:
            solver = RK45(site.rhs, 0.0, y, t_chunk, rtol=rtol, atol=atol)
            while solver.status == "running":
                msg = solver.step()
                if solver.status == "failed":
                    raise StiffnessError(f"driven mean-field step failed at t = {t + solver.t:.4g}: {msg}")
            rho_m = solver.y.reshape(d, d)
            rho_m = 0.5 * (rho_m + rho_m.conj().T)
            y = rho_m.reshape(-1)
            t += t_chunk
            psi_now = complex(site.a_trace @ y)
            history.append(psi_now)
            last_step = abs(psi_now - psi_prev)
            psi_prev = psi_now

            found = site.newton(psi_now, psi_tol, distinct_tol, roots)
            if found is None or not found.margin < 0:
                root, distances = None, []
                continue
            if found is not root:
                root, distances = found, []
            distances.append(float(np.linalg.norm(rho_m - root.rho.rho)))
            if len(distances) > 1 and distances[-1] >= distances[-2]:
                distances = distances[-1:]
            if len(distances) > CAPTURE_CONTRACTIONS:
                break
        captured = len(distances) > CAPTURE_CONTRACTIONS
        if captured:
            state = root.rho
            psi, residual, margin = root.psi, root.residual, root.margin
        else:
            # limit-cycle test: the ψ samples keep moving but stay bounded and
            # their swing is not shrinking from the early to the late half of
            # the last CYCLE_SAMPLES; fewer samples cannot tell a cycle apart
            # from a slow approach to a fixed point
            tail = np.array(history[-CYCLE_SAMPLES:])
            half = CYCLE_SAMPLES // 2
            swing_late = np.ptp(np.abs(tail[-half:]))
            swing_early = np.ptp(np.abs(tail[:half]))
            if not (len(tail) == CYCLE_SAMPLES and swing_late > 100 * psi_tol
                    and swing_late > 0.5 * swing_early):
                raise MeanFieldConvergenceError(
                    f"no fixed point or cycle within horizon {horizon:.3g} "
                    f"({len(history)} ψ samples, last |Δψ| = {last_step:.3e})")
            state = DensityMatrix(rho_m)
            psi, residual, margin = history[-1], math.nan, math.nan
        try:
            g2 = g2_zero(state, 0, site.space)
        except VacuumStateError:
            g2 = float("nan")
        results.append(DrivenFixedPoint(
            psi=psi, rho=state, g2=g2, seed=complex(seed),
            converged=captured, limit_cycle=not captured, t_elapsed=t,
            orbit=None if captured else tuple(history[-CYCLE_SAMPLES:]),
            residual=residual, stability_margin=margin))

    branches: list[DrivenFixedPoint] = []
    for r in results:
        if r.limit_cycle:
            continue
        if all(abs(r.psi - b.psi) > distinct_tol for b in branches):
            branches.append(r)
    any_cycle = any(r.limit_cycle for r in results)
    return DrivenMFResult(branches=tuple(branches), per_seed=tuple(results),
                          multistable=len(branches) > 1, limit_cycle=any_cycle)
