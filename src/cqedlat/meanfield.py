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
the lobe boundary zJ_c(μ) = 1/χ(μ) comes in closed form (each cell's
``zj_critical``), and only superfluid cells search ψ (a grid bracket, then
Newton on dE/dψ = 0 with the curvature from second-order response).  The
J = 0 lobe edges in μ also come in closed form from the dressed-level
staircase.  The equilibrium functions take the site's :class:`JCParams`, μ
and zJ as plain arguments.

Driven-dissipative: the same decoupling applied to the local density matrix
gives a closed nonlinear master equation in the drive rotating frame,

    ∂_t ρ = L₀ρ - i[-zJ(ψ(t) a† + ψ(t)* a), ρ],   ψ(t) = tr(aρ),

with L₀ the generator of the driven site alone, its drive and port included:
``DrivenLattice(...).generator(ξ, ω_d)`` of a one-site lattice.  Its fixed
points are the roots of F(ψ) = tr(a ρ_ss(ψ)) - ψ, with ρ_ss(ψ) the steady
state of the linear Liouvillian L(ψ) at frozen ψ.  Each seed follows the
dynamics (DOP853, at the loose pair ``TRANSIENT_RTOL`` /
``TRANSIENT_ATOL``: the trajectory only has to pick the seed's basin) only
until it is captured: after every control interval Newton runs on F from the
current ψ, and the run stops once the root it reaches is linearly stable and
the state has moved closer to that same root over consecutive intervals.
Each Newton iterate factors one dense bordered generator L(ψ) - s|I/d⟩⟨tr|,
the border of ``steady_state``; its LU gives ρ_ss(ψ) and the linear responses
to ψ and ψ*, so F and its Jacobian, and ``steady_state`` runs only to verify a
new root and supply its ρ.  The stability margin is the largest real part in
the spectrum of the linearized nonlinear generator at the root, bordered
alike, which moves the trace mode to -s.  That generator preserves
Hermiticity, so its spectrum is that of a real matrix, its form in an
orthonormal basis of Hermitian matrices.  So only stable branches are
reported, each with its residual |F(ψ*)| and its margin; distinct fixed points
reached from different seeds signal bistability, and runs that are never
captured are reported as limit cycles or raise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.integrate import DOP853, solve_ivp
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from .hilbert import (
    DensityMatrix,
    LatticeSpace,
    SiteSpace,
    annihilation,
    photon_op_on,
    total_excitation,
)
from .jc import JCParams, jc_hamiltonian, polariton_energy
from .lattice import LatticeParams
from .lindblad import (
    CutoffWindowError,
    DissipationRates,
    DrivenLattice,
    DriveSpec,
    MeanFieldConvergenceError,
    StiffnessError,
    g2_zero,
    steady_state,
)

__all__ = [
    "OrderParameter",
    "PhaseDiagramCell",
    "DrivenFixedPoint",
    "DrivenMFResult",
    "CutoffWindowError",
    "MeanFieldConvergenceError",
    "minimize_order_parameter",
    "mott_window_analytic",
    "phase_diagram",
    "driven_mf_steady",
]

PSI_FLOOR = 1e-5          # |ψ*| above this counts as superfluid
PSI_MAX = 3.0             # default upper edge of the ψ search window
PSI_GRID_POINTS = 49      # coarse ψ grid that brackets the minimum
PSI_SEARCH_TOL = 1e-7     # the Newton refinement stops at a ψ step below this
PSI_NEWTON_MAX_ITER = 50  # eigensolves of one refinement before it counts as failed
GAP_RTOL = 1e-12          # a ground gap below this times the spectral radius is a degeneracy
DISTINCT_TOL = 1e-4       # driven fixed points closer than this are one branch
CYCLE_SAMPLES = 40        # ψ samples a limit-cycle verdict needs
NEWTON_MAX_ITER = 8       # F evaluations of one Newton run before it counts as failed
CAPTURE_CONTRACTIONS = 2  # consecutive intervals over which ‖ρ(t) - ρ_ss(ψ*)‖ must shrink
HORIZON_RELAXATIONS = 600  # driven horizon per seed, in units of 1/γ_min
# tolerances of each driven control interval.  The integration only decides a
# seed's basin and the interval of its capture: ψ, ρ, the residual and the
# margin of every reported fixed point come from Newton and steady_state, so the
# pair can be far looser than an accurate trajectory would need.
TRANSIENT_RTOL = 1e-6
TRANSIENT_ATOL = 1e-9

# The integrator of each driven control interval.  The name predates DOP853 and
# stays because the benchmark harness counts steps by rebinding it to a counting
# subclass (perfbench/run.py); it changes together with that counter.  That
# rebinding needs the class itself here, so this module imports scipy.integrate
# at load time; ``cqedlat/__init__`` does not import it, and the CLI imports it
# only inside the two commands that run it.
RK45 = DOP853


@dataclass(frozen=True)
class OrderParameter:
    psi: float
    energy: float
    n_polariton: float


@dataclass(frozen=True)
class PhaseDiagramCell:
    mu: float
    zj: float
    psi: float
    energy: float
    n_polariton: float
    phase: str
    zj_critical: float    # 1/χ(μ), the lobe edge at this μ; 0 at a degenerate ground state


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
        site = LatticeSpace((space,))
        ops = (jc_hamiltonian(jc, space), total_excitation(site),
               photon_op_on(site, 0, annihilation(space)))
        # the RWA site matrices are real in the occupation basis
        h, n_tot, a = (m.toarray().real for m in ops)
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
            return OrderParameter(psi=0.0, energy=at_zero.energy, n_polariton=at_zero.n_polariton)
        grid = np.linspace(0.0, psi_max, PSI_GRID_POINTS)
        s = grid[:, None, None]
        k = int(np.argmin(np.linalg.eigvalsh(h0 + zj * s * (s * self.eye - self.x))[:, 0]))
        if k == PSI_GRID_POINTS - 1:
            raise CutoffWindowError(
                f"energy still decreasing at ψ = {psi_max}; enlarge psi_max and the photon cutoff")
        lo, hi = grid[max(k - 1, 0)], grid[k + 1]
        psi, step = (grid[k] if k else 0.5 * hi), hi - lo
        for _ in range(PSI_NEWTON_MAX_ITER):
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
        return OrderParameter(psi=float(psi), energy=at.energy, n_polariton=at.n_polariton)


def minimize_order_parameter(jc: JCParams, mu: float, zj: float, space: SiteSpace,
                             psi_max: float = PSI_MAX) -> OrderParameter:
    """Minimize the ground energy of H(ψ) on site ``jc`` at chemical potential
    ``mu`` and hopping weight ``zj`` over real ψ in [0, psi_max].

    The one-cell case of :func:`phase_diagram`: a Mott cell (zJχ(μ) < 1) is
    answered from the ψ = 0 eigensystem with ψ = 0, a superfluid one by the
    bracketed Newton search of the site core.  A negative zJ is refused.  A
    minimum at the upper window edge means the search window (or the photon
    cutoff behind it) is too small and raises :class:`CutoffWindowError`.
    """
    if zj < 0:
        raise ValueError("equilibrium scans require J >= 0 (gauge away negative signs)")
    core = _SiteCore(jc, space)
    h0 = core.h0(mu)
    return core.order_parameter(h0, core.ground(h0), zj, psi_max)


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


def phase_diagram(jc: JCParams, mu_values: np.ndarray, zj_values: np.ndarray,
                  space: SiteSpace, psi_max: float = PSI_MAX) -> list[PhaseDiagramCell]:
    """Grid scan of the order parameter over μ × zJ; cells are labeled Mott(N) or SF.

    One site core serves the whole grid, and each μ row shares one
    diagonalization of H_JC - μN: its χ(μ) decides every Mott cell without a
    search, and each cell carries the row's lobe edge zJ_c = 1/χ(μ).  A
    negative zJ is refused.
    """
    if np.any(np.asarray(zj_values) < 0):
        raise ValueError("equilibrium scans require J >= 0 (gauge away negative signs)")
    core = _SiteCore(jc, space)
    cells: list[PhaseDiagramCell] = []
    for mu in mu_values:
        h0 = core.h0(float(mu))
        at_zero = core.ground(h0)
        for zj in zj_values:
            res = core.order_parameter(h0, at_zero, float(zj), psi_max)
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
    residual: float                      # |tr(aρ) - ψ| of the reported fixed point
    stability_margin: float              # max Re λ of its linearization, trace mode excluded


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

    ``liouv0`` is L₀, the driven site's generator from a one-site
    :class:`DrivenLattice`, and ``a`` that lattice's a₀.  The generator with
    ψ frozen is L(ψ) = L₀ + i zJ(ψ S_{a†} + ψ* S_a), with
    S_X ρ = [X, ρ], acting on the row-major vec(ρ).  Every term maps into
    traceless matrices, so the bordered generator M(ψ) = L(ψ) - s|I/d⟩⟨tr|,
    with the border and s = ``liouv0.scale()`` of :func:`steady_state`, only
    moves the trace mode to -s: Mρ = -sI/d gives ρ_ss(ψ), and MX = b gives
    L(ψ)X = b with tr X = 0 for every traceless b.
    """

    def __init__(self, jc: JCParams, rates: DissipationRates, drive: DriveSpec,
                 zj: float, space: SiteSpace):
        self.space = LatticeSpace((space,))
        model = DrivenLattice(LatticeParams.single_site(jc), self.space, rates)
        self.liouv0 = model.generator(drive.xi, drive.omega_d)
        self.zj = zj
        self.psi_bound = math.sqrt(space.photon_cutoff)   # |tr(aρ)|² ≤ tr(a†aρ) ≤ n_max
        d = space.dim
        a = model.a
        self.a = a.toarray()
        eye = sp.identity(d, format="csr", dtype=np.complex128)
        self.s_adag = sp.kron(a.getH(), eye, format="csr") - sp.kron(eye, a.conj(), format="csr")
        self.s_a = sp.kron(a, eye, format="csr") - sp.kron(eye, a.T, format="csr")
        self.a_trace = self.a.T.reshape(-1)          # tr(aρ) = vec(aᵀ)·vec(ρ)
        self.adag_trace = self.a.conj().reshape(-1)  # tr(a†ρ)
        vec_eye, s = np.eye(d).reshape(-1), self.liouv0.scale()   # tr ρ = vec(I)·vec(ρ)
        self.border = (s / d) * np.outer(vec_eye, vec_eye)      # s|I/d⟩⟨tr|
        self.unit_source = (-s / d) * vec_eye                   # -s vec(I/d)
        self.l0 = self.liouv0.matrix
        self.rhs_terms = sp.vstack([self.l0, self.s_adag, self.s_a], format="csr")
        # vec(ρ) indices of the diagonal and of the paired upper and lower
        # triangles, which span the Hermitian basis of ``margin``
        iu, ju = np.triu_indices(d, 1)
        self.herm_index = (np.arange(d) * (d + 1), iu * d + ju, ju * d + iu)

    def rhs(self, _t: float, y: np.ndarray) -> np.ndarray:
        """The nonlinear master equation, ψ = tr(aρ) refreshed at every call."""
        psi = self.a_trace @ y
        l0_y, s_adag_y, s_a_y = (self.rhs_terms @ y).reshape(3, -1)   # one sparse product
        return l0_y + (1j * self.zj) * (psi * s_adag_y + np.conj(psi) * s_a_y)

    def steady(self, psi: complex) -> DensityMatrix:
        """ρ_ss(ψ) by :func:`steady_state`: H_rot - zJ(ψa† + ψ*a) with the same jumps."""
        base = self.liouv0
        h = base.h_rot - self.zj * (psi * self.a.conj().T + np.conj(psi) * self.a)
        return steady_state(base.with_hamiltonian(h))

    def bordered(self, psi: complex, rho: DensityMatrix | None = None) -> np.ndarray:
        """Dense M(ψ); with ρ, the linearization of the nonlinear generator at
        (ψ, ρ), bordered alike.

        For Hermitian δρ, δψ* = tr(a†δρ), so the linearization
        δρ ↦ L(ψ)δρ + i zJ[tr(aδρ) S_{a†} + tr(a†δρ) S_a]ρ is complex-linear
        and has the spectrum of the real-linear map on Hermitian matrices.  It
        maps into traceless matrices too, so the bordered matrix has its
        spectrum on traceless matrices plus the trace mode at -s.
        """
        m = (self.l0 + (1j * self.zj) * (psi * self.s_adag + np.conj(psi) * self.s_a)).toarray()
        m -= self.border
        if rho is not None:
            r = rho.rho.reshape(-1)
            m += (1j * self.zj) * (np.outer(self.s_adag @ r, self.a_trace)
                                   + np.outer(self.s_a @ r, self.adag_trace))
        return m

    def margin(self, psi: complex, rho: DensityMatrix) -> float:
        """max Re λ of ``bordered(psi, rho)``, from the real matrix T†MT.

        T is the orthonormal basis of the Hermitian matrices E_ii, then
        (E_ij + E_ji)/√2 and i(E_ij - E_ji)/√2 for i < j.  M maps Hermitian
        matrices to Hermitian ones, so T†MT is real and has the spectrum of M.
        Each basis vector has two nonzeros at most, so MT and T†(MT) are sums
        and differences of gathered columns, then rows.
        """
        diag, upper, lower = self.herm_index
        h = math.sqrt(0.5)
        m = self.bordered(psi, rho)
        mt = np.hstack([m[:, diag], h * (m[:, upper] + m[:, lower]),
                        (1j * h) * (m[:, upper] - m[:, lower])])
        del m     # so the peak memory stays that of ``bordered``
        real = np.vstack([mt[diag].real, h * (mt[upper] + mt[lower]).real,
                          h * (mt[upper] - mt[lower]).imag])
        return float(np.max(np.linalg.eigvals(real).real))

    def newton(self, psi: complex, psi_tol: float, known: list[_Root]) -> _Root | None:
        """Newton on F(ψ) = tr(aρ_ss(ψ)) - ψ from ψ, one LU of M(ψ) per iterate.

        The LU gives ρ_ss(ψ) and, by linear response, the Wirtinger derivatives:
        MX = -i zJ[a†, ρ] for X = ∂ρ_ss/∂ψ and MX = -i zJ[a, ρ] for ∂ρ_ss/∂ψ*.
        Returns a root of ``known`` as soon as an iterate comes within
        ``DISTINCT_TOL`` of it.  Once |F| ≤ ``psi_tol``, :func:`steady_state`
        verifies the new root and supplies its ρ; the root, with its stability
        margin ``margin(ψ, ρ)``, is added to ``known``.  Returns None when
        ``NEWTON_MAX_ITER`` iterates do not converge, an iterate leaves
        |ψ| ≤ √n_max, where every tr(aρ) lies, M(ψ) is singular, or the
        verification fails.
        """
        for _ in range(NEWTON_MAX_ITER):
            for root in known:
                if abs(psi - root.psi) <= DISTINCT_TOL:
                    return root
            if not abs(psi) <= self.psi_bound:    # also true for a non-finite ψ
                return None
            # a singular M(ψ) warns and gives a non-finite F, so a non-finite
            # step and ψ, which ends the run at the bound above
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore", LinAlgWarning)
                lu = lu_factor(self.bordered(psi))
                r = lu_solve(lu, self.unit_source)
                f = self.a_trace @ r - psi
                if abs(f) <= psi_tol:
                    break
                source = (-1j * self.zj) * np.stack([self.s_adag @ r, self.s_a @ r], axis=1)
                da, db = self.a_trace @ lu_solve(lu, source, check_finite=False)
                da -= 1.0                             # ∂F/∂ψ = da - 1, ∂F/∂ψ* = db
                psi = psi + (db * np.conj(f) - np.conj(da) * f) / (abs(da) ** 2 - abs(db) ** 2)
        else:
            return None
        rho = self.steady(psi)
        residual = abs(complex(self.a_trace @ rho.rho.reshape(-1)) - psi)
        if not residual <= psi_tol:
            return None
        root = _Root(psi=complex(psi), rho=rho, residual=residual, margin=self.margin(psi, rho))
        known.append(root)
        return root


def driven_mf_steady(jc: JCParams, rates: DissipationRates, drive: DriveSpec,
                     zj: float, seeds: tuple[complex, ...] = (0.0,), *,
                     space: SiteSpace, psi_tol: float = 1e-8) -> DrivenMFResult:
    """Self-consistent driven-dissipative mean field on one site.

    Runs the nonlinear master equation from every seed (a coherent state of
    amplitude equal to the seed value) in control intervals of 1/γ_min, the
    slowest dissipation rate, each one SciPy DOP853 solve at ``TRANSIENT_RTOL``
    and ``TRANSIENT_ATOL``.  The pair is loose because the trajectory only
    picks the seed's basin and its capture interval; every reported number
    comes from Newton and :func:`steady_state`.  After each interval, Newton
    runs on F(ψ) = tr(aρ_ss(ψ)) - ψ from the current ψ, with one LU of the
    dense bordered generator per iterate; roots are shared between seeds,
    and :func:`steady_state` runs once per new root, to verify
    |F(ψ*)| ≤ ``psi_tol`` and supply ρ_ss(ψ*).  The run is captured, and
    stops, when that Newton reaches a linearly stable root (stability margin
    < 0) and ‖ρ(t) - ρ_ss(ψ*)‖ has shrunk toward that same root over
    ``CAPTURE_CONTRACTIONS`` consecutive intervals.  The seed then reports ψ*,
    ρ_ss(ψ*), the residual |F(ψ*)| and the margin.  Fixed points from
    different seeds that differ by more than ``DISTINCT_TOL`` are reported as
    distinct branches (multistability).  A run that is never captured within
    the horizon, ``HORIZON_RELAXATIONS`` control intervals, is classified as a
    limit cycle when its ψ swing over the last ``CYCLE_SAMPLES`` control
    intervals is not decaying, and returned with its last state and NaN
    residual and margin; otherwise it raises :class:`MeanFieldConvergenceError`.
    A state below the photon floor reports a NaN g²(0).
    """
    if not rates.any_nonzero():
        raise ValueError("driven mean field requires dissipative rates > 0")
    site = _DrivenSite(jc, rates, drive, zj, space)
    d = space.dim

    slowest = min(r for r in (rates.gamma1, rates.gamma_phi, rates.gamma_kappa, rates.kappa)
                  if r > 0)
    t_chunk = 1.0 / slowest
    horizon = HORIZON_RELAXATIONS / slowest

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
                            rtol=TRANSIENT_RTOL, atol=TRANSIENT_ATOL)
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
        results.append(DrivenFixedPoint(
            psi=psi, rho=state, g2=g2_zero(state, 0, site.space), seed=complex(seed),
            limit_cycle=not captured, residual=residual, stability_margin=margin))

    branches: list[DrivenFixedPoint] = []
    for r in results:
        if r.limit_cycle:
            continue
        if all(abs(r.psi - b.psi) > DISTINCT_TOL for b in branches):
            branches.append(r)
    any_cycle = any(r.limit_cycle for r in results)
    return DrivenMFResult(branches=tuple(branches), per_seed=tuple(results),
                          multistable=len(branches) > 1, limit_cycle=any_cycle)
