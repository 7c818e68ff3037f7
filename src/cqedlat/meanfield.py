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
``zj_critical``), and only superfluid cells search ψ: a safeguarded Newton
on dE/dψ = 0 inside [0, √n_max], with the curvature from second-order
response and a bisection whenever a step leaves the bracket or fails to halve
the last one, started from the ψ* of the previous superfluid cell of the same
μ row.  With f(t) = ⟨X⟩ in the ground state of H_JC - μN - tX, the
stationary points ψ > 0 solve f(zJψ)/(zJψ) = 2/zJ; f(t)/t is nonincreasing,
the property that also makes the verdict zJχ < 1 exact, so there is at most
one and the search is global from any start.  The window needs no setting:
at photon cutoff n_max every state has |⟨a⟩|² ≤ ⟨a†a⟩ ≤ n_max, so
⟨X⟩ < 2√n_max and E(ψ) rises at ψ = √n_max, the bound that also confines the
driven fixed points below.  The J = 0 lobe edges in μ also come in closed
form from the dressed-level staircase.  The equilibrium functions take the
site's :class:`JCParams`, μ and zJ as plain arguments.

Driven-dissipative: the same decoupling applied to the local density matrix
gives a closed nonlinear master equation in the drive rotating frame,

    ∂_t ρ = L₀ρ - i[-zJ(ψ(t) a† + ψ(t)* a), ρ],   ψ(t) = tr(aρ),

with L₀ the generator of the driven site alone, its drive and port included:
``DrivenLattice(...).generator(ξ, ω_d)`` of a one-site lattice.  Every term
maps Hermitian matrices to Hermitian ones, so the whole driven solver runs on
the real coordinates x of ρ in an orthonormal basis of Hermitian matrices,
where the generator at frozen ψ is a real matrix R(ψ) = R₀ + Re ψ R_A +
Im ψ R_B and ψ a fixed linear functional of x.  Its fixed points are the
roots of F(ψ) = tr(a ρ_ss(ψ)) - ψ, with ρ_ss(ψ) the steady state at frozen ψ.
Each seed follows the dynamics of x (the module's DOP853 stepper, at the
loose pair ``TRANSIENT_RTOL`` / ``TRANSIENT_ATOL``: the trajectory only has to
pick the seed's basin) only until it is captured: after every control
interval Newton runs on F in (Re ψ, Im ψ) from the current ψ, and the run
stops once the root it reaches is linearly stable and the state has moved
closer to that same root over consecutive intervals.  Each evaluation of F
factors one dense real bordered generator R(ψ) - s|I/d⟩⟨tr|, the border of
``steady_state``; its LU gives ρ_ss(ψ) and the responses to Re ψ and Im ψ,
so F and its real 2×2 Jacobian, and a line search halves a Newton step that
does not decrease |F|.
``steady_state`` runs only to verify a new root and supply its ρ.  The
stability margin is the largest real part in the spectrum of the linearized
nonlinear generator at the root, a real rank-2 update of R(ψ) bordered alike,
which moves the trace mode to -s.  So only stable branches are reported,
each with its residual |F(ψ*)| and its margin; distinct fixed points reached
from different seeds signal bistability, and runs that are never captured are
reported as limit cycles or raise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from .hilbert import (
    DensityMatrix,
    LatticeSpace,
    SiteSpace,
    photon_op_on,
    total_excitation,
)
from .jc import JCParams, jc_hamiltonian, polariton_energy
from .lattice import LatticeParams
from .lindblad import (
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
    "MeanFieldConvergenceError",
    "minimize_order_parameter",
    "mott_window_analytic",
    "phase_diagram",
    "driven_mf_steady",
]

PSI_FLOOR = 1e-5          # |ψ*| above this counts as superfluid
PSI_SEARCH_TOL = 1e-7     # the Newton search stops at a ψ step below this
PSI_NEWTON_MAX_ITER = 50  # eigensolves of one search before it counts as failed
GAP_RTOL = 1e-12          # a ground gap below this times the spectral radius is a degeneracy
DISTINCT_TOL = 1e-4       # driven fixed points closer than this are one branch
CYCLE_SAMPLES = 40        # ψ samples a limit-cycle verdict needs
PSI_TOL = 1e-8            # bound on the driven fixed-point residual |tr(aρ) - ψ|
NEWTON_MAX_ITER = 8       # F evaluations of one Newton run before it counts as failed
SUFFICIENT_DECREASE = 1e-4  # a Newton trial ψ + λδ must bring |F| below (1 - this λ)|F(ψ)|
CAPTURE_CONTRACTIONS = 2  # consecutive intervals over which ‖ρ(t) - ρ_ss(ψ*)‖ must shrink
HORIZON_RELAXATIONS = 600  # driven horizon per seed, in units of 1/γ_min
# tolerances of each driven control interval.  The integration only decides a
# seed's basin and the interval of its capture: ψ, ρ, the residual and the
# margin of every reported fixed point come from Newton and steady_state, so the
# pair can be far looser than an accurate trajectory would need.
TRANSIENT_RTOL = 1e-6
TRANSIENT_ATOL = 1e-9


def _rms(x: np.ndarray) -> float:
    """Root mean square of the entries of x."""
    return np.linalg.norm(x) / x.size ** 0.5


class DOP853:
    """Hairer's explicit Runge-Kutta pair DOP853 on one interval [0, ``t_bound``].

    The 12-stage method of order 8 with its combined error estimate of orders
    5 and 3 (Hairer, Nørsett and Wanner, *Solving Ordinary Differential
    Equations I*, §II.10), in the arithmetic of ``scipy.integrate.DOP853``, so
    both take the same steps.  A step h from y to y_new is accepted when
    |h|·‖e₅‖²/√((‖e₅‖² + ‖e₃‖²/100)·n) < 1, with e₅ and e₃ the two error
    estimates divided by ``atol`` + ``rtol``·max(|y|, |y_new|) and ‖·‖ the
    Euclidean norm.  The next step is h·min(10, 0.9·err^(-1/8)), and never
    grows after a rejection; a rejected step shrinks by max(0.2, 0.9·err^(-1/8)).
    The first step is Hairer's starting estimate (§II.4).  Each :meth:`step`
    makes one accepted step, the last clamped to end on ``t_bound``, so no
    dense output is needed.  ``nfev`` counts the calls of ``fun(t, y)``.
    """

    C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
                  0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
                  0.6512820512820513, 0.6, 0.8571428571428571, 1.0])
    A = np.zeros((12, 12))
    A[1, :1] = [0.05260015195876773]
    A[2, :2] = [0.0197250569845379, 0.0591751709536137]
    A[3, :3] = [0.02958758547680685, 0, 0.08876275643042054]
    A[4, :4] = [0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792]
    A[5, :5] = [0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242]
    A[6, :6] = [0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125]
    A[7, :7] = [0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
                -0.015319437748624402, 0.008273789163814023]
    A[8, :8] = [0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
                27.59209969944671, 20.154067550477894, -43.48988418106996]
    A[9, :9] = [0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843,
                21.230051448181193, 15.279233632882423, -33.28821096898486,
                -0.020331201708508627]
    A[10, :10] = [-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
                  -8.149787010746927, -18.52006565999696, 22.739487099350505,
                  2.4936055526796523, -3.0467644718982196]
    A[11, :11] = [2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
                  -17.9589318631188, 27.94888452941996, -2.8589982771350235,
                  -8.87285693353063, 12.360567175794303, 0.6433927460157636]
    B = np.array([0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
                  -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
                  0.20136540080403034, 0.04471061572777259])
    # weights of the error estimates on the stages and f(t + h, y_new)
    E5 = np.array([0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
                   1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
                   0.08192320648511571, -0.022355307863886294, 0])
    E3 = np.append(B, 0.0)
    E3[[0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118, 0.022058823529411766]

    def __init__(self, fun, y0: np.ndarray, t_bound: float, rtol: float, atol: float):
        self.fun, self.t_bound, self.rtol, self.atol = fun, t_bound, rtol, atol
        self.t, self.y, self.nfev = 0.0, y0, 0
        self.f = self._rhs(0.0, y0)
        self.h_abs = self._initial_step()
        self.K = np.empty((self.B.size + 1, y0.size))   # the stages, then f(t + h, y_new)

    def _rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        self.nfev += 1
        return self.fun(t, y)

    def _initial_step(self) -> float:
        """Hairer's starting step: an explicit Euler probe of size h₀ from the
        scaled norms of y₀ and f₀, then the step at which the error of order
        8 estimated from the change of f would be 1/100, at most 100h₀."""
        y0, f0 = self.y, self.f
        scale = self.atol + np.abs(y0) * self.rtol
        d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, self.t_bound)
        d2 = _rms((self._rhs(h0, y0 + h0 * f0) - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        return min(100 * h0, h1, self.t_bound)

    def step(self) -> bool:
        """Advance by one accepted step.  Returns False, with the state
        unchanged, once the step size is below 10 spacings of t or not a number."""
        t, y, K = self.t, self.y, self.K
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                return False
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = self.f
            for s in range(1, self.B.size):
                dy = np.dot(K[:s].T, self.A[s, :s]) * h
                K[s] = self._rhs(t + self.C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, self.B)
            f_new = self._rhs(t + h, y_new)
            K[-1] = f_new
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            err5_2 = np.linalg.norm(np.dot(K.T, self.E5) / scale) ** 2
            err3_2 = np.linalg.norm(np.dot(K.T, self.E3) / scale) ** 2
            if err5_2 == 0 and err3_2 == 0:
                error = 0.0
            else:
                error = h_abs * err5_2 / np.sqrt((err5_2 + 0.01 * err3_2) * scale.size)
            if error < 1:
                factor = 10 if error == 0 else min(10, 0.9 * error ** -0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error ** -0.125)
            rejected = True
        self.t, self.y, self.f, self.h_abs = t_new, y_new, f_new, h_abs
        return True


# The stepper of each driven control interval.  The name predates DOP853 and
# stays because the benchmark harness counts steps by rebinding it to a
# subclass whose ``step`` counts (perfbench/run.py); it changes together with
# that counter.
RK45 = DOP853


def _psi_bound(space: SiteSpace) -> float:
    """√n_max, the bound on every order parameter at photon cutoff n_max:
    |tr(aρ)|² ≤ tr(a†aρ) ≤ n_max for every state ρ of the site."""
    return math.sqrt(space.photon_cutoff)


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
               photon_op_on(site, 0, "a"))
        # the RWA site matrices are real in the occupation basis
        h, n_tot, a = (m.toarray().real for m in ops)
        self.h_jc, self.n_diag, self.x = h, n_tot.diagonal(), a + a.T
        self.eye = np.eye(space.dim)
        self.psi_bound = _psi_bound(space)

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
                        start: float | None = None) -> OrderParameter:
        """Minimize the ground energy of H(ψ) = h0 - zJψX + zJψ² over ψ in [0, √n_max].

        ``at_zero`` is the ground state of h0.  E(ψ) = E₀ + zJ(1 - zJχ)ψ² + O(ψ⁴)
        and the transition is continuous, so zJχ < 1 is a Mott cell with ψ = 0.
        Otherwise Newton on dE/dψ = 0 runs from ``start`` (√n_max/2 by default)
        inside the bracket [0, √n_max], whose ends close on the sign of dE/dψ;
        a step that leaves the bracket, or does not halve the previous one,
        bisects instead.  The search is global: with t = zJψ and f(t) = ⟨X⟩ in
        the ground state of h0 - tX, dE/dψ = zJ(2ψ - f(zJψ)), so a stationary
        ψ > 0 solves f(t)/t = 2/zJ, and f(t)/t nonincreasing (the same property
        that makes the verdict zJχ < 1 exact) leaves at most one.  It lies
        inside the window: f < 2√n_max, since |⟨a⟩|² ≤ ⟨a†a⟩ ≤ n_max with
        equality only in the photon-number state |n_max⟩, where ⟨a⟩ = 0; so
        dE/dψ > 0 at ψ = √n_max.
        """
        if zj == 0 or zj * at_zero.chi < 1:
            return OrderParameter(psi=0.0, energy=at_zero.energy, n_polariton=at_zero.n_polariton)
        lo, hi = 0.0, self.psi_bound
        psi, step = (0.5 * hi if start is None else start), hi
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
        return OrderParameter(psi=float(psi), energy=at.energy, n_polariton=at.n_polariton)


def minimize_order_parameter(jc: JCParams, mu: float, zj: float,
                             space: SiteSpace) -> OrderParameter:
    """Minimize the ground energy of H(ψ) on site ``jc`` at chemical potential
    ``mu`` and hopping weight ``zj`` over real ψ in [0, √n_max], with n_max the
    photon cutoff of ``space``, which bounds every |⟨a⟩|.

    The one-cell case of :func:`phase_diagram`: a Mott cell (zJχ(μ) < 1) is
    answered from the ψ = 0 eigensystem with ψ = 0, a superfluid one by the
    safeguarded Newton search of the site core, started at √n_max/2; the
    energy has one stationary point with ψ > 0, so the search is global.  A
    negative zJ is refused.
    """
    if zj < 0:
        raise ValueError("equilibrium scans require J >= 0 (gauge away negative signs)")
    core = _SiteCore(jc, space)
    h0 = core.h0(mu)
    return core.order_parameter(h0, core.ground(h0), zj)


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
                  space: SiteSpace) -> list[PhaseDiagramCell]:
    """Grid scan of the order parameter over μ × zJ; cells are labeled Mott(N) or SF.

    One site core serves the whole grid, and each μ row shares one
    diagonalization of H_JC - μN: its χ(μ) decides every Mott cell without a
    search, and each cell carries the row's lobe edge zJ_c = 1/χ(μ).  Each
    superfluid cell searches ψ in [0, √n_max], the bound on |⟨a⟩| at the
    photon cutoff n_max of ``space``, starting from the ψ* of the previous
    superfluid cell of its μ row (√n_max/2 when there is none).  The
    start saves eigensolves only: E(ψ) has one stationary point with ψ > 0,
    so every start reaches the same minimum, whatever the order of the zJ
    values.  A negative zJ is refused.
    """
    if np.any(np.asarray(zj_values) < 0):
        raise ValueError("equilibrium scans require J >= 0 (gauge away negative signs)")
    core = _SiteCore(jc, space)
    cells: list[PhaseDiagramCell] = []
    for mu in mu_values:
        h0 = core.h0(float(mu))
        at_zero = core.ground(h0)
        start = None
        for zj in zj_values:
            res = core.order_parameter(h0, at_zero, float(zj), start)
            if res.psi > 0:
                start = res.psi
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
    # per seed, in the order of ``per_seed``: the control intervals and right-hand
    # side calls of its transient, and the LU factorizations of its Newton runs
    control_intervals: tuple[int, ...]
    rhs_calls: tuple[int, ...]
    lu_factorizations: tuple[int, ...]


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
    """One driven site under the mean field ψ, in real Hermitian coordinates.

    ``liouv0`` is L₀, the driven site's generator from a one-site
    :class:`DrivenLattice`, and ``a`` that lattice's a₀.  With ψ = p + iq
    frozen the generator is L(ψ) = L₀ + i zJ(ψ S_{a†} + ψ* S_a) = L₀ + pA + qB,
    with A = i zJ(S_{a†} + S_a), B = -zJ(S_{a†} - S_a) and S_X ρ = [X, ρ], and
    each term maps Hermitian matrices to Hermitian ones.  So a density matrix
    is held as its real coordinates x = T†vec(ρ) (row-major vec) in the
    orthonormal basis T of the Hermitian matrices: E_ii, then
    (E_ij + E_ji)/√2 and i(E_ij - E_ji)/√2 for i < j.  Each term is held as its
    real form T†LT, so R(ψ) = R₀ + pR_A + qR_B, and ψ = tr(aρ) = c·x for a
    fixed complex row c.  In these coordinates tr ρ = e·x, with e the indicator
    of the diagonal entries, and vec(I/d) is e/d.

    Every term maps into traceless matrices, so the bordered generator
    M(ψ) = R(ψ) - s|e/d⟩⟨e|, with the border and s = ``liouv0.scale()`` of
    :func:`steady_state`, only moves the trace mode to -s: Mx = -se/d gives
    ρ_ss(ψ), and MX = b gives R(ψ)X = b with e·X = 0 for every traceless b.
    """

    def __init__(self, jc: JCParams, rates: DissipationRates, drive: DriveSpec,
                 zj: float, space: SiteSpace):
        self.space = LatticeSpace((space,))
        model = DrivenLattice(LatticeParams.single_site(jc), self.space, rates)
        self.liouv0 = model.generator(drive.xi, drive.omega_d)
        self.zj = zj
        self.psi_bound = _psi_bound(space)
        self.lu_factorizations = 0                         # by every Newton run so far
        d = space.dim
        a = model.a
        self.a = a.toarray()
        iu, ju = np.triu_indices(d, 1)
        unit = sp.identity(d * d, format="csc")               # columns vec(E_ij)
        upper, lower, h = unit[:, iu * d + ju], unit[:, ju * d + iu], math.sqrt(0.5)
        self.basis = sp.hstack([unit[:, np.arange(d) * (d + 1)], h * (upper + lower),
                                (1j * h) * (upper - lower)], format="csr")    # T
        eye = sp.identity(d, format="csr", dtype=np.complex128)
        s_adag = sp.kron(a.getH(), eye) - sp.kron(eye, a.conj())
        s_a = sp.kron(a, eye) - sp.kron(eye, a.T)
        r0, r_a, r_b = ((self.basis.getH() @ op @ self.basis).real
                        for op in (self.liouv0.matrix, (1j * zj) * (s_adag + s_a),
                                   -zj * (s_adag - s_a)))
        c = self.a.T.reshape(-1) @ self.basis                 # tr(aρ) = vec(aᵀ)·vec(ρ) = c·x
        self.psi_rows = np.stack([c.real, c.imag])            # (Re ψ, Im ψ) = psi_rows @ x
        # [R₀; R_A; R_B; Re c; Im c]: the right-hand side and ψ from one product
        self.rhs_terms = sp.vstack([r0, r_a, r_b, sp.csr_matrix(self.psi_rows)], format="csr")
        e, s = self.coords(np.eye(d)), self.liouv0.scale()   # tr ρ = e·x
        self.unit_source = (-s / d) * e                       # -s e/d
        self.m0 = r0.toarray() - (s / d) * np.outer(e, e)     # M(0)
        self.r_a, self.r_b = r_a.toarray(), r_b.toarray()

    def coords(self, rho: np.ndarray) -> np.ndarray:
        """x = T†vec(ρ) of a Hermitian d×d matrix ρ."""
        return (rho.reshape(-1) @ self.basis.conj()).real

    def matrix(self, x: np.ndarray) -> np.ndarray:
        """The Hermitian d×d matrix with coordinates x."""
        return (self.basis @ x).reshape(self.a.shape)

    def psi(self, x: np.ndarray) -> complex:
        """ψ = tr(aρ) = c·x."""
        return complex(*(self.psi_rows @ x))

    def responses(self, x: np.ndarray) -> np.ndarray:
        """The columns R_A x and R_B x."""
        return (self.rhs_terms @ x)[x.size:-2].reshape(2, -1).T

    def rhs(self, _t: float, x: np.ndarray) -> np.ndarray:
        """The nonlinear master equation R(ψ)x, ψ = c·x refreshed at every call."""
        n = x.size
        terms = self.rhs_terms @ x                            # one sparse product
        return terms[:n] + terms[-2] * terms[n:2 * n] + terms[-1] * terms[2 * n:-2]

    def steady(self, psi: complex) -> DensityMatrix:
        """ρ_ss(ψ) by :func:`steady_state`: H_rot - zJ(ψa† + ψ*a) with the same jumps."""
        base = self.liouv0
        h = base.h_rot - self.zj * (psi * self.a.conj().T + np.conj(psi) * self.a)
        return steady_state(base.with_hamiltonian(h))

    def bordered(self, psi: complex) -> np.ndarray:
        """Dense M(ψ) = M(0) + Re ψ R_A + Im ψ R_B, a new array."""
        m = self.m0 + psi.real * self.r_a
        m += psi.imag * self.r_b
        return m

    def margin(self, psi: complex, x: np.ndarray) -> float:
        """max Re λ of the linearization of the nonlinear generator at (ψ, x),
        bordered like M(ψ).

        The nonlinear generator is x ↦ R(c·x)x, so its Jacobian is
        R(ψ) + (R_A x)(Re c)ᵀ + (R_B x)(Im c)ᵀ, a real rank-2 update of R(ψ).
        It maps into traceless matrices too, so the bordered matrix has its
        spectrum on traceless matrices plus the trace mode at -s.
        """
        m = self.bordered(psi)
        m += self.responses(x) @ self.psi_rows
        return float(np.max(np.linalg.eigvals(m).real))

    def newton(self, psi: complex, known: list[_Root]) -> _Root | None:
        """Newton on F(ψ) = c·x_ss(ψ) - ψ from ψ in (Re ψ, Im ψ), with a line search on |F|.

        Each evaluation of F factors M(ψ) once (one real LU) and solves
        Mx = -se/d for x_ss(ψ).  At an accepted iterate the same LU gives the
        responses ∂x/∂Re ψ = -M⁻¹R_A x and ∂x/∂Im ψ = -M⁻¹R_B x, so the real
        2×2 Jacobian of F and the Newton step δ.  The trial ψ + λδ, from λ = 1,
        is accepted when |F| ≤ (1 - ``SUFFICIENT_DECREASE`` λ)|F(ψ)|; otherwise
        λ halves.  Returns a root of ``known`` as soon as a trial comes within
        ``DISTINCT_TOL`` of it.  Once a trial has |F| ≤ ``PSI_TOL``, one more
        Newton step from its LU ends the run, so the root does not depend on
        how far below ``PSI_TOL`` the path happened to stop; :func:`steady_state`
        verifies the new root and supplies its ρ, and the root, with its
        stability margin ``margin(ψ, x)``, is added to ``known``.  Returns None when
        ``NEWTON_MAX_ITER`` evaluations of F do not converge, a trial leaves
        |ψ| ≤ √n_max, where every tr(aρ) lies, F is not finite (M(ψ) is
        singular), or the verification fails.
        """
        base, step, lam, f_base = psi, 0.0, 1.0, math.inf
        # a singular M(ψ) warns and gives a non-finite F, which ends the run; a
        # singular Jacobian gives a non-finite step and ψ, which ends it at the bound
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", LinAlgWarning)
            for _ in range(NEWTON_MAX_ITER):
                psi = base + lam * step
                for root in known:
                    if abs(psi - root.psi) <= DISTINCT_TOL:
                        return root
                if not abs(psi) <= self.psi_bound:    # also true for a non-finite ψ
                    return None
                self.lu_factorizations += 1
                lu = lu_factor(self.bordered(psi), overwrite_a=True, check_finite=False)
                x = lu_solve(lu, self.unit_source, check_finite=False)
                f = self.psi(x) - psi
                converged = abs(f) <= PSI_TOL
                if not (converged or abs(f) <= (1.0 - SUFFICIENT_DECREASE * lam) * f_base):
                    if not math.isfinite(abs(f)):
                        return None
                    lam *= 0.5
                    continue
                dx = lu_solve(lu, -self.responses(x), check_finite=False)   # ∂x/∂(Re ψ, Im ψ)
                (jpp, jpq), (jqp, jqq) = self.psi_rows @ dx - np.eye(2)      # Jacobian of F
                det = jpp * jqq - jpq * jqp
                step = complex((jpq * f.imag - jqq * f.real) / det,
                               (jqp * f.real - jpp * f.imag) / det)
                if converged:
                    psi = psi + step
                    break
                base, lam, f_base = psi, 1.0, abs(f)
            else:
                return None
        rho = self.steady(psi)
        x = self.coords(rho.rho)
        residual = abs(self.psi(x) - psi)
        if not residual <= PSI_TOL:
            return None
        root = _Root(psi=complex(psi), rho=rho, residual=residual, margin=self.margin(psi, x))
        known.append(root)
        return root


def driven_mf_steady(jc: JCParams, rates: DissipationRates, drive: DriveSpec,
                     zj: float, seeds: tuple[complex, ...] = (0.0,), *,
                     space: SiteSpace) -> DrivenMFResult:
    """Self-consistent driven-dissipative mean field on one site.

    Runs the nonlinear master equation from every seed (a coherent state of
    amplitude equal to the seed value) in control intervals of 1/γ_min, the
    slowest dissipation rate, each integrated by the module's DOP853 stepper
    at ``TRANSIENT_RTOL`` and ``TRANSIENT_ATOL``.  The pair is loose because
    the trajectory only picks the seed's basin and its capture interval; every
    reported number comes from Newton and :func:`steady_state`.  The state is
    integrated as its real coordinates in an orthonormal basis of Hermitian
    matrices, so it stays Hermitian exactly.  After each interval, Newton runs on
    F(ψ) = tr(aρ_ss(ψ)) - ψ from the current ψ, with one real LU of the dense
    bordered generator per evaluation of F and a line search on |F|; roots are
    shared between seeds, and :func:`steady_state` runs once per new root, to
    verify |F(ψ*)| ≤ ``PSI_TOL`` and supply ρ_ss(ψ*).  The run is captured, and
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
    A state below the photon floor reports a NaN g²(0).  The result also
    carries, per seed, the control intervals and right-hand-side calls of its
    transient and the LU factorizations of its Newton runs.
    """
    if not rates.any_nonzero():
        raise ValueError("driven mean field requires dissipative rates > 0")
    site = _DrivenSite(jc, rates, drive, zj, space)

    slowest = min(r for r in (rates.gamma1, rates.gamma_phi, rates.gamma_kappa, rates.kappa)
                  if r > 0)
    t_chunk = 1.0 / slowest
    horizon = HORIZON_RELAXATIONS / slowest

    roots: list[_Root] = []     # every root Newton has found, from any seed
    results: list[DrivenFixedPoint] = []
    control_intervals, rhs_calls, lu_factorizations = [], [], []
    for seed in seeds:
        y = site.coords(_coherent_site_state(space, seed).rho)
        t = 0.0
        calls, lu_start = 0, site.lu_factorizations
        psi_prev = site.psi(y)
        history: list[complex] = [psi_prev]
        last_step = float("inf")
        root: _Root | None = None
        distances: list[float] = []     # ‖ρ(t) - ρ_ss(ψ*)‖ while it keeps shrinking
        while t < horizon:
            # the stepper class bound in this module, so a subclass bound there steps instead
            stepper = RK45(site.rhs, y, t_chunk, TRANSIENT_RTOL, TRANSIENT_ATOL)
            while stepper.t < t_chunk:
                if not stepper.step():
                    raise StiffnessError(
                        f"driven mean-field step failed at t = {t + stepper.t:.4g}: "
                        "the step size fell below 10 spacings of t or is not a number")
            calls += stepper.nfev
            y = stepper.y
            t += t_chunk
            psi_now = site.psi(y)
            history.append(psi_now)
            last_step = abs(psi_now - psi_prev)
            psi_prev = psi_now

            found = site.newton(psi_now, roots)
            if found is None or not found.margin < 0:
                root, distances = None, []
                continue
            if found is not root:
                root, root_x, distances = found, site.coords(found.rho.rho), []
            # ‖ρ(t) - ρ_ss(ψ*)‖, in coordinates of an orthonormal basis
            distances.append(float(np.linalg.norm(y - root_x)))
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
            if not (len(tail) == CYCLE_SAMPLES and swing_late > 100 * PSI_TOL
                    and swing_late > 0.5 * swing_early):
                raise MeanFieldConvergenceError(
                    f"no fixed point or cycle within horizon {horizon:.3g} "
                    f"({len(history)} ψ samples, last |Δψ| = {last_step:.3e})")
            state = DensityMatrix(site.matrix(y))
            psi, residual, margin = history[-1], math.nan, math.nan
        results.append(DrivenFixedPoint(
            psi=psi, rho=state, g2=g2_zero(state, 0, site.space), seed=complex(seed),
            limit_cycle=not captured, residual=residual, stability_margin=margin))
        control_intervals.append(len(history) - 1)
        rhs_calls.append(calls)
        lu_factorizations.append(site.lu_factorizations - lu_start)

    branches: list[DrivenFixedPoint] = []
    for r in results:
        if r.limit_cycle:
            continue
        if all(abs(r.psi - b.psi) > DISTINCT_TOL for b in branches):
            branches.append(r)
    any_cycle = any(r.limit_cycle for r in results)
    return DrivenMFResult(branches=tuple(branches), per_seed=tuple(results),
                          multistable=len(branches) > 1, limit_cycle=any_cycle,
                          control_intervals=tuple(control_intervals),
                          rhs_calls=tuple(rhs_calls),
                          lu_factorizations=tuple(lu_factorizations))
