"""Infinite-lattice physics via on-site mean-field decoupling.

Equilibrium: the hopping term is decoupled through the superfluid order
parameter ψ = ⟨a⟩, mapping the lattice onto the local grand-canonical
Hamiltonian

    H(ψ) = H_JC - μ(a†a + σ⁺σ⁻) - zJ(a†ψ + aψ* - |ψ|²),

whose ground energy is minimized over ψ.  The U(1) gauge freedom makes the
energy depend on |ψ| only, so the minimum is sought over real ψ >= 0.  The
transition is continuous, so a cell is Mott exactly when zJχ(μ) < 1, with
χ(μ) = Σ_m |⟨m|a + a†|0⟩|²/(E_m - E₀) the susceptibility of the J = 0 site
ground state: Mott cells take ψ = 0 from that eigensystem without a search,
the lobe boundary is zJ_c(μ) = 1/χ(μ) in closed form, and only superfluid
cells search ψ (a grid bracket, then Newton on dE/dψ = 0 with the curvature
from second-order response).  The J = 0 lobe edges in μ also come in closed
form from the dressed-level staircase.

Driven-dissipative: the same decoupling applied to the local density matrix
gives a closed nonlinear master equation in the drive rotating frame,

    ∂_t ρ = L₀ρ - i[-zJ(ψ(t) a† + ψ(t)* a), ρ],   ψ(t) = tr(aρ),

whose fixed points are the roots of F(ψ) = tr(a ρ_ss(ψ)) - ψ, with ρ_ss(ψ)
the steady state of the linear Liouvillian at frozen ψ.  Each seed follows
the dynamics (DOP853, at the package's one tolerance pair ``ODE_RTOL`` /
``ODE_ATOL``) only until it is captured: after every control interval
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
from scipy.integrate import DOP853, solve_ivp

from .hilbert import (
    DensityMatrix,
    LatticeSpace,
    SiteSpace,
    annihilation,
    photon_op_on,
    total_excitation,
)
from .jc import JCParams, jc_hamiltonian, polariton_energy
from .lattice import LatticeParams, build_jchm, sector_ground_energy
from .lindblad import (
    ODE_ATOL,
    ODE_RTOL,
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
PSI_MAX = 3.0             # default upper edge of the ψ search window
PSI_GRID_POINTS = 49      # coarse ψ grid that brackets the minimum
PSI_SEARCH_TOL = 1e-7     # the Newton refinement stops at a ψ step below this
PSI_NEWTON_MAX_ITER = 50  # eigensolves of one refinement before it counts as failed
GAP_RTOL = 1e-12          # a ground gap below this times the spectral radius is a degeneracy
ZJ_RESOLUTION = 1e-4      # smallest lobe boundary zJ that counts as inside the lobe
DISTINCT_TOL = 1e-4       # driven fixed points closer than this are one branch
CYCLE_SAMPLES = 40        # ψ samples a limit-cycle verdict needs
NEWTON_MAX_ITER = 8       # F evaluations of one Newton run before it counts as failed
CAPTURE_CONTRACTIONS = 2  # consecutive intervals over which ‖ρ(t) - ρ_ss(ψ*)‖ must shrink

# The integrator of each driven control interval.  The name predates DOP853 and
# stays because the benchmark harness counts steps by rebinding it to a counting
# subclass (perfbench/run.py); it changes together with that counter.
RK45 = DOP853


class CutoffWindowError(RuntimeError):
    """The energy minimum sits at the edge of the ψ search window."""


class MeanFieldConvergenceError(RuntimeError):
    """A mean-field search did not converge: the ψ refinement ran out of
    steps, or the driven self-consistency loop neither settled nor cycled."""


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


@dataclass(frozen=True)
class OrderParameter:
    psi: float
    energy: float
    n_polariton: float
    iterations: int       # eigensolves past the ψ = 0 one: 0 in a Mott cell, else grid + Newton


@dataclass(frozen=True)
class PhaseDiagramCell:
    mu: float
    zj: float
    psi: float
    energy: float
    n_polariton: float
    phase: str
    zj_critical: float    # 1/χ(μ), the lobe edge at this μ; 0 at a degenerate ground state


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


@dataclass(frozen=True)
class _Ground:
    """Ground state of one site matrix and its linear response to X = a + a†."""

    energy: float
    n_polariton: float   # ⟨0|N|0⟩
    x_mean: float        # ⟨0|X|0⟩
    chi: float           # Σ_{m>0} |⟨m|X|0⟩|²/(E_m - E_0); inf at a degenerate ground state


class _SiteCore:
    """H_JC, N and X = a + a† of one site, built once and shared by every cell.

    For real ψ the mean-field Hamiltonian is H(ψ) = H_JC - μN - zJψX + zJψ²,
    so dE/dψ = zJ(2ψ - ⟨X⟩) (Hellmann-Feynman) and, from second-order
    response, d²E/dψ² = 2zJ(1 - zJχ(ψ)) with χ the susceptibility of the
    ground state of H(ψ).
    """

    def __init__(self, jc: JCParams, space: SiteSpace):
        # the RWA site matrices are real in the occupation basis
        h, n_tot, a = (m.toarray().real for m in _site_terms(jc, space))
        self.h_jc, self.n_diag, self.x = h, n_tot.diagonal(), a + a.T
        self.eye = np.eye(space.dim)

    def h0(self, mu: float) -> np.ndarray:
        """H(ψ = 0) = H_JC - μN."""
        return self.h_jc - mu * np.diag(self.n_diag)

    def ground(self, m: np.ndarray) -> _Ground:
        vals, vecs = np.linalg.eigh(m)
        v0 = vecs[:, 0]
        x_0m = (v0 @ self.x) @ vecs            # ⟨0|X|m⟩
        gaps = vals[1:] - vals[0]
        if gaps[0] <= GAP_RTOL * np.max(np.abs(vals)):
            chi = math.inf
        else:
            chi = float(np.sum(x_0m[1:] ** 2 / gaps))
        return _Ground(energy=float(vals[0]), n_polariton=float(self.n_diag @ v0 ** 2),
                       x_mean=float(x_0m[0]), chi=chi)

    def order_parameter(self, h0: np.ndarray, at_zero: _Ground, zj: float,
                        psi_max: float) -> OrderParameter:
        """Minimize the ground energy of H(ψ) = h0 - zJψX + zJψ² over ψ in [0, psi_max].

        ``at_zero`` is the ground state of h0.  E(ψ) = E₀ + zJ(1 - zJχ)ψ² + O(ψ⁴)
        and the transition is continuous, so zJχ < 1 is a Mott cell with ψ = 0.
        Otherwise a ``PSI_GRID_POINTS`` grid, one batched ``eigvalsh``, brackets
        the minimum between the neighbours of its lowest point, and Newton on
        dE/dψ = 0 refines it; a step that leaves the bracket, or does not halve
        the previous one, bisects instead.
        """
        if zj == 0 or zj * at_zero.chi < 1:
            return OrderParameter(psi=0.0, energy=at_zero.energy,
                                  n_polariton=at_zero.n_polariton, iterations=0)
        grid = np.linspace(0.0, psi_max, PSI_GRID_POINTS)
        s = grid[:, None, None]
        k = int(np.argmin(np.linalg.eigvalsh(h0 + zj * s * (s * self.eye - self.x))[:, 0]))
        if k == PSI_GRID_POINTS - 1:
            raise CutoffWindowError(
                f"energy still decreasing at ψ = {psi_max}; enlarge psi_max and the photon cutoff")
        lo, hi = grid[max(k - 1, 0)], grid[k + 1]
        psi, step = (grid[k] if k else 0.5 * hi), hi - lo
        for n_eval in range(1, PSI_NEWTON_MAX_ITER + 1):
            at = self.ground(h0 + zj * psi * (psi * self.eye - self.x))
            grad = 2.0 * psi - at.x_mean          # (dE/dψ) / zJ
            curv = 2.0 * (1.0 - zj * at.chi)      # (d²E/dψ²) / zJ
            if grad > 0:
                hi = psi
            else:
                lo = psi
            prev, step = step, (grad / curv if curv > 0 else math.inf)
            if not (lo <= psi - step <= hi and abs(step) <= 0.5 * abs(prev)):
                step = psi - 0.5 * (lo + hi)      # psi is a bracket end: halve the bracket
            if abs(step) <= PSI_SEARCH_TOL:
                break
            psi -= step
        else:
            raise MeanFieldConvergenceError(
                f"ψ refinement did not converge in {PSI_NEWTON_MAX_ITER} steps "
                f"(bracket [{lo}, {hi}])")
        if psi > psi_max - 10 * PSI_SEARCH_TOL:
            raise CutoffWindowError(
                f"minimizer ψ* = {psi} sits at the window edge psi_max = {psi_max}")
        return OrderParameter(psi=float(psi), energy=at.energy, n_polariton=at.n_polariton,
                              iterations=PSI_GRID_POINTS + n_eval)


def minimize_order_parameter(p: GrandCanonicalParams, space: SiteSpace,
                             psi_max: float = PSI_MAX) -> OrderParameter:
    """Minimize the mean-field ground energy over real ψ in [0, psi_max].

    The one-cell case of :func:`phase_diagram`: a Mott cell (zJχ(μ) < 1) is
    answered from the ψ = 0 eigensystem with ψ = 0, a superfluid one by the
    bracketed Newton search of the site core.  A minimum at the upper window
    edge means the search window (or the photon cutoff behind it) is too small
    and raises :class:`CutoffWindowError`.
    """
    core = _SiteCore(p.jc, space)
    h0 = core.h0(p.mu)
    return core.order_parameter(h0, core.ground(h0), p.zj, psi_max)


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

    Independent cross-check of the closed-form staircase: the lowest energy
    of each single-site excitation sector N - 1, N, N + 1 enters the window.
    """
    if N + 1 > space.photon_cutoff:
        raise ValueError("photon cutoff too small to resolve the N+1 sector")
    params, site = LatticeParams.single_site(jc), LatticeSpace((space,))
    e_below, e_at, e_above = (sector_ground_energy(params, site, k) for k in (N - 1, N, N + 1))
    return e_at - e_below, e_above - e_at


def lobe_boundary(jc: JCParams, mu: float, space: SiteSpace, zj_max: float = 1.0) -> float:
    """Critical zJ_c(μ) = 1/χ(μ) of the Mott lobe at fixed μ.

    χ(μ) = Σ_m |⟨m|a + a†|0⟩|²/(E_m - E₀) from the J = 0 site spectrum.
    Raises ValueError when zJ_c is not inside [``ZJ_RESOLUTION``, zj_max]:
    μ outside the lobe (a degenerate J = 0 ground state gives zJ_c = 0), or
    zj_max too small.
    """
    core = _SiteCore(jc, space)
    zj_c = 1.0 / core.ground(core.h0(mu)).chi
    if zj_c <= ZJ_RESOLUTION:
        raise ValueError(f"already superfluid at zJ = {ZJ_RESOLUTION}; "
                         f"μ = {mu} lies outside the Mott lobe")
    if zj_c > zj_max:
        raise ValueError(f"still Mott at zJ = {zj_max}; enlarge zj_max")
    return zj_c


def phase_diagram(jc: JCParams, mu_values: np.ndarray, zj_values: np.ndarray,
                  space: SiteSpace, z: int = 1,
                  psi_max: float = PSI_MAX) -> list[PhaseDiagramCell]:
    """Grid scan of the order parameter; cells are labeled Mott(N) or SF.

    One site core serves the whole grid, and each μ row shares one
    diagonalization of H_JC - μN: its χ(μ) decides every Mott cell without a
    search, and each cell carries the row's lobe edge zJ_c = 1/χ(μ).
    """
    core = _SiteCore(jc, space)
    cells: list[PhaseDiagramCell] = []
    for mu in mu_values:
        h0 = core.h0(float(mu))
        at_zero = core.ground(h0)
        for zj in zj_values:
            p = GrandCanonicalParams(jc=jc, mu=float(mu), z=z, J=float(zj) / z)
            res = core.order_parameter(h0, at_zero, p.zj, psi_max)
            if res.psi <= PSI_FLOOR and abs(res.n_polariton - round(res.n_polariton)) <= 1e-6:
                phase = f"Mott{int(round(res.n_polariton))}"
            else:
                phase = "SF"
            cells.append(PhaseDiagramCell(mu=float(mu), zj=float(zj), psi=res.psi,
                                          energy=res.energy, n_polariton=res.n_polariton,
                                          phase=phase, zj_critical=1.0 / at_zero.chi))
    return cells


# ---------------------------------------------------------------------------
# driven-dissipative mean field

@dataclass(frozen=True)
class DrivenFixedPoint:
    psi: complex
    rho: DensityMatrix
    g2: float
    seed: complex
    limit_cycle: bool                    # never captured by a stable root
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
        return steady_state(Liouvillian(h, base.jumps), check_unique=False)

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

    def newton(self, psi: complex, psi_tol: float, known: list[_Root]) -> _Root | None:
        """Newton on F(ψ) from ψ.

        Returns a root of ``known`` as soon as an iterate comes within
        ``DISTINCT_TOL`` of it; otherwise the new root once |F| ≤ ``psi_tol``,
        with its stability margin, added to ``known``.  Returns None when
        ``NEWTON_MAX_ITER`` evaluations do not converge, an iterate leaves
        |ψ| ≤ √n_max, where every tr(aρ) lies, or the Jacobian is singular.
        """
        for _ in range(NEWTON_MAX_ITER):
            for root in known:
                if abs(psi - root.psi) <= DISTINCT_TOL:
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
                     t_max: float | None = None) -> DrivenMFResult:
    """Self-consistent driven-dissipative mean field on one site.

    Runs the nonlinear master equation from every seed (a coherent state of
    amplitude equal to the seed value) in control intervals of 1/γ_min, the
    slowest dissipation rate, each one SciPy DOP853 solve at ``ODE_RTOL`` and
    ``ODE_ATOL``, the tolerances of every time integration.  After each
    interval, Newton runs on F(ψ) = tr(aρ_ss(ψ)) - ψ from the current ψ.  The
    run is captured, and stops, when that Newton reaches a linearly stable
    root (stability margin < 0) and ‖ρ(t) - ρ_ss(ψ*)‖ has shrunk toward that
    same root over ``CAPTURE_CONTRACTIONS`` consecutive intervals.  The seed
    then reports ψ*, ρ_ss(ψ*), the residual |F(ψ*)| ≤ ``psi_tol`` and the
    margin.  Fixed points from different seeds that differ by more than
    ``DISTINCT_TOL`` are reported as distinct branches (multistability).  A run
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
    t_chunk = 1.0 / slowest
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
            # the solver class bound in this module, so a subclass bound there steps instead
            sol = solve_ivp(site.rhs, (0.0, t_chunk), y, method=RK45, t_eval=(t_chunk,),
                            rtol=ODE_RTOL, atol=ODE_ATOL)
            if sol.status < 0:
                raise StiffnessError(
                    f"driven mean-field step failed at t = {t + sol.t[-1]:.4g}: {sol.message}")
            rho_m = sol.y[:, -1].reshape(d, d)
            rho_m = 0.5 * (rho_m + rho_m.conj().T)
            y = rho_m.reshape(-1)
            t += t_chunk
            psi_now = complex(site.a_trace @ y)
            history.append(psi_now)
            last_step = abs(psi_now - psi_prev)
            psi_prev = psi_now

            found = site.newton(psi_now, psi_tol, roots)
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
            limit_cycle=not captured, t_elapsed=t,
            orbit=None if captured else tuple(history[-CYCLE_SAMPLES:]),
            residual=residual, stability_margin=margin))

    branches: list[DrivenFixedPoint] = []
    for r in results:
        if r.limit_cycle:
            continue
        if all(abs(r.psi - b.psi) > DISTINCT_TOL for b in branches):
            branches.append(r)
    any_cycle = any(r.limit_cycle for r in results)
    return DrivenMFResult(branches=tuple(branches), per_seed=tuple(results),
                          multistable=len(branches) > 1, limit_cycle=any_cycle)
