"""Open-system engine: Lindblad master equation, steady states, blockade observables.

The master equation whose generator this module builds is

    ∂_t ρ = -i[H + H_drive, ρ] + γ₁ Σ_n D[σ⁻_n]ρ + γ_φ Σ_n D[σ^z_n]ρ
            + γ_κ Σ_n D[a_n]ρ + Σ_{p ∈ ports} κ_p D[a_p]ρ,

with D[L]ρ = LρL† - (L†Lρ + ρL†L)/2.  Coherent drives are always handled in
the frame rotating at the drive frequency ω_d: every site frequency is shifted
by -ω_d (implemented as H → H - ω_d N with N the total polariton number) and
the drive becomes the static term ξ Σ_m (a_m + a†_m) on the driven sites.
This requires [H, N] = 0, i.e. the rotating-wave form of the lattice
Hamiltonian.

Port loss κ_p and the uniform unwanted loss γ_κ add on port sites; a port is
not exempt from the background channel.

The generator is held as d×d operators: the jump operators C_c (√rate
included) and the non-Hermitian H_eff = H_rot - (i/2) Σ_c C_c†C_c, so that
Lρ = -i(H_eff ρ - ρ H_eff†) + Σ_c C_c ρ C_c† costs d×d products only.  The
jumps are kept stacked, [C₁; …; C_k] and [C₁ … C_k], so that the jump sum is
two sparse products for any number of channels.  Everything that depends on
the jumps alone (the stacks, Σ_c C_c†C_c and their extended-precision
copies) is built once per jump set and shared by every generator that
:meth:`Liouvillian.with_hamiltonian` derives from it: a scan builds it once,
not once per point.  The steady state is a matrix-free solve by the package's
own restarted GMRES, preconditioned by the exact inverse of the no-jump part
(see :func:`steady_state`).  The d²×d² superoperator, in
row-major (C-order) vectorization vec(AρB) = (A ⊗ Bᵀ)vec(ρ), is assembled
only on demand (:attr:`Liouvillian.matrix`): the driven mean field integrates
and factors it, and the tests use it as an oracle.  ``blockade-scan``,
``dimer-g2`` and ``driven-mf`` reach this module.  No command evolves a given
initial state or fits a lineshape; those routes are test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.lapack import ztrsyl

from .hilbert import (
    DensityMatrix,
    LatticeSpace,
    annihilation,
    assemble,
    expectation,
    occupation_basis,
    photon_op_on,
    qubit_lower,
    sigma_z,
    site_factor,
    total_excitation,
)
from .lattice import LatticeParams, build_jchm

__all__ = [
    "DissipationRates",
    "DriveSpec",
    "Liouvillian",
    "ScanPoint",
    "StiffnessError",
    "ConvergenceError",
    "CutoffWindowError",
    "MeanFieldConvergenceError",
    "build_liouvillian",
    "steady_state",
    "g2_zero",
    "transmission_scan",
]

TRACE_PRESERVATION_RTOL = 1e-10
STEADY_RESIDUAL_RTOL = 1e-10
# GMRES stopping rules, relative to the right-hand side: the first solve,
# then the correction from a residual accumulated in extended precision.
# Without that correction the absolute error of ~1e-16 left by any
# double-precision solve moves the tiny two-photon populations behind a
# weak-drive g²(0) by 5e-5 (d = 64) to 5e-4 (d = 144) relative
STEADY_GMRES_RTOL = 1e-10
STEADY_REFINE_RTOL = 1e-6
STEADY_GMRES_RESTART = 50
STEADY_GMRES_MAXITER = 20     # restart cycles
SYLVESTER_BLOCK = 64          # largest block handed to LAPACK trsyl whole


class StiffnessError(RuntimeError):
    """Integrator step size underflow; carries time and step diagnostics."""


class ConvergenceError(RuntimeError):
    """A steady-state search did not reach its tolerance."""


# The errors of ``meanfield`` live here so that the CLI can catch them without
# loading ``meanfield`` (and with it ``scipy.integrate``); ``meanfield`` re-binds them.
class CutoffWindowError(RuntimeError):
    """The energy minimum sits at the edge of the ψ search window."""


class MeanFieldConvergenceError(RuntimeError):
    """A mean-field search did not converge: the ψ refinement ran out of
    steps, or the driven self-consistency loop neither settled nor cycled."""


@dataclass(frozen=True)
class DissipationRates:
    """Qubit relaxation γ₁, pure dephasing γ_φ, uniform photon loss γ_κ and
    per-site port rates κ.

    ``kappa_ports`` is given as a mapping site → κ (or as (site, κ) pairs) and
    stored as a tuple of (site, κ) pairs sorted by site, so that a rate set is
    immutable and hashable.
    """

    gamma1: float = 0.0
    gamma_phi: float = 0.0
    gamma_kappa: float = 0.0
    kappa_ports: Mapping[int, float] | tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        if self.gamma1 < 0 or self.gamma_phi < 0 or self.gamma_kappa < 0:
            raise ValueError("dissipation rates must be non-negative")
        ports = dict(self.kappa_ports)
        for site, kappa in ports.items():
            if kappa < 0:
                raise ValueError(f"port rate on site {site} must be non-negative")
        object.__setattr__(self, "kappa_ports", tuple(sorted(ports.items())))

    def any_nonzero(self) -> bool:
        return (self.gamma1 > 0 or self.gamma_phi > 0 or self.gamma_kappa > 0
                or any(k > 0 for _, k in self.kappa_ports))


@dataclass(frozen=True)
class DriveSpec:
    """Coherent drive ξ(a e^{iω_d t} + a† e^{-iω_d t}) on the listed sites."""

    xi: float
    omega_d: float
    driven_sites: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        if self.xi < 0:
            raise ValueError("drive amplitude xi must be non-negative")
        object.__setattr__(self, "driven_sites", tuple(self.driven_sites))


class _JumpSet:
    """The parts of a generator that depend on its jumps alone, built once and
    shared by every generator of :meth:`Liouvillian.with_hamiltonian`.

    ``stack`` is [C₁; …; C_k] (kd×d) and ``row`` is [C₁ … C_k] (d×kd), so that
    Σ_c C_c ρ C_c† takes two sparse products and Σ_c C_c†C_c one, for any k.
    """

    def __init__(self, jumps: Sequence[sp.spmatrix], d: int):
        self.jumps = tuple(sp.csr_matrix(c, dtype=np.complex128) for c in jumps)
        self.k = len(self.jumps)
        empty = sp.csr_matrix((0, d), dtype=np.complex128)
        self.stack = sp.vstack(self.jumps or (empty,), format="csr")
        self.row = sp.hstack(self.jumps or (empty.T,), format="csr")
        self.loss = (self.stack.getH() @ self.stack).toarray()     # Σ_c C_c†C_c
        diag = np.array([c.diagonal() for c in self.jumps]).reshape(self.k, d)
        self.diag = diag.T @ diag.conj()                             # Σ_c C_c,ii C̄_c,jj

    @cached_property
    def extended(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """``stack`` conjugated and ``row``, in extended precision (``np.clongdouble``)."""
        return self.stack.conj().astype(np.clongdouble), self.row.astype(np.clongdouble)

    def sandwich(self, stacked: np.ndarray, row: sp.csr_matrix) -> np.ndarray:
        """Σ_c C_c Y_cᵀ from the kd×d stack [Y₁; …; Y_k] of the blocks Y_c."""
        d = stacked.shape[1]
        return row @ stacked.reshape(self.k, d, d).transpose(0, 2, 1).reshape(self.k * d, d)


class Liouvillian:
    """Master-equation generator held as d×d operators: the one generator that
    :func:`steady_state`, the blockade scan and the driven mean field act with.

    ``h_rot`` is the Hermitian Hamiltonian of the frame the generator acts in
    (dense or sparse; d is its dimension) and ``jumps`` the √rate-weighted jump
    operators.  The jumps are stacked once, [C₁; …; C_k] and [C₁ … C_k], so
    that :meth:`apply` forms Σ_c C_c ρ C_c† with two sparse products for any
    number of channels.  :meth:`with_hamiltonian` gives the generator of
    another ``h_rot`` with the same jumps; it shares the jumps, their stacks,
    Σ_c C_c†C_c and their extended-precision copies, so a scan builds them
    once.  A generator that does not preserve the trace, e.g. one with a
    non-Hermitian ``h_rot``, is refused.
    """

    def __init__(self, h_rot: np.ndarray | sp.spmatrix, jumps: Sequence[sp.spmatrix]):
        h = _square(h_rot)
        self._init(h, _JumpSet(jumps, h.shape[0]))

    def with_hamiltonian(self, h_rot: np.ndarray | sp.spmatrix) -> Liouvillian:
        """The generator of ``h_rot`` with the jumps of this one, sharing their data."""
        gen = Liouvillian.__new__(Liouvillian)
        gen._init(_square(h_rot), self._jump_set)
        return gen

    def _init(self, h: np.ndarray, jump_set: _JumpSet) -> None:
        self.dim = h.shape[0]
        self._jump_set = jump_set
        self.jumps = jump_set.jumps
        self.loss = jump_set.loss
        self.h_rot = h.astype(np.complex128)
        self.h_eff = self.h_rot - 0.5j * self.loss
        self._h_eff_adj = self.h_eff.conj().T
        defect = self.trace_preservation_defect()
        if defect > TRACE_PRESERVATION_RTOL:
            raise ValueError(f"generator does not preserve the trace: defect {defect:.3e}")

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """The d²×d² sparse superoperator, assembled on first access.

        Read by the driven mean field, which integrates with it and factors it
        bordered, and by the tests as a dense oracle; :func:`steady_state`
        never assembles it.
        """
        eye = sp.identity(self.dim, dtype=np.complex128, format="csr")
        h = sp.csr_matrix(self.h_eff)
        gen = (-1j) * (sp.kron(h, eye, format="csr") - sp.kron(eye, h.conj(), format="csr"))
        for c in self.jumps:
            gen = gen + sp.kron(c, c.conj(), format="csr")
        return gen.tocsr()

    def scale(self) -> float:
        """Largest |diagonal entry| of the superoperator, a lower bound on ‖L‖_∞.

        The diagonal entry of row (i, j) is -i(H_eff,ii - H̄_eff,jj) + Σ_c C_c,ii C̄_c,jj.
        """
        h = np.diag(self.h_eff)
        diag = -1j * (h[:, None] - h.conj()[None, :]) + self._jump_set.diag
        return float(np.max(np.abs(diag)))

    def trace_preservation_defect(self) -> float:
        """max|K| / scale with tr(Lρ) = tr(Kρ); zero for any Lindblad-form generator.

        K = i(H_eff† - H_eff) + Σ_c C_c†C_c, which vanishes when H_rot is Hermitian.
        """
        k = 1j * (self._h_eff_adj - self.h_eff) + self.loss
        return float(np.max(np.abs(k)) / max(self.scale(), 1e-300))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Lρ for a d×d (or vectorized) ρ, from d×d products only."""
        r = rho.reshape(self.dim, self.dim)
        out = -1j * (self.h_eff @ r - r @ self._h_eff_adj)
        jumps = self._jump_set
        # C ρ C† = C (C ρ†)†, so the blocks C_c ρ† are conjugated and transposed
        out += jumps.sandwich((jumps.stack @ r.conj().T).conj(), jumps.row)
        return out.reshape(rho.shape)


def _square(h_rot: np.ndarray | sp.spmatrix) -> np.ndarray:
    """``h_rot`` as a dense square array."""
    h = h_rot.toarray() if sp.issparse(h_rot) else np.asarray(h_rot)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"Hamiltonian shape {h.shape} is not square")
    return h


def collapse_operators(rates: DissipationRates, space: LatticeSpace) -> list[sp.csr_matrix]:
    """√rate-weighted jump operators of the master equation."""
    for n, _ in rates.kappa_ports:
        if not 0 <= n < space.n_sites:
            raise ValueError(f"port site {n} outside lattice of {space.n_sites} sites")
    a = [annihilation(site) for site in space.sites]
    channels = [(rate, site_factor(space, n, photon_op, qubit_op)) for n in range(space.n_sites)
                for rate, photon_op, qubit_op in ((rates.gamma1, None, qubit_lower()),
                                                  (rates.gamma_phi, None, sigma_z()),
                                                  (rates.gamma_kappa, a[n], None))]
    channels += [(kappa, site_factor(space, n, a[n])) for n, kappa in rates.kappa_ports]
    basis = occupation_basis(space)
    return [assemble([(math.sqrt(rate), (factor,))], basis) for rate, factor in channels if rate > 0]


def _rotating_frame_terms(h: sp.csr_matrix, space: LatticeSpace,
                          driven_sites: Sequence[int]) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """N and X = Σ_m (a_m + a†_m), so that H_rot = H - ω_d N + ξ X.

    Raises ``ValueError`` unless [H, N] = 0, which the frame change presumes.
    """
    n_tot = total_excitation(space)
    comm = h @ n_tot - n_tot @ h
    scale = max(abs(h).max(), 1e-300)
    if comm.nnz and abs(comm).max() > 1e-10 * scale:
        raise ValueError(
            "Hamiltonian does not conserve the total excitation number; "
            "the rotating-frame drive transformation requires the RWA form")
    terms = []
    for m in driven_sites:
        if not 0 <= m < space.n_sites:
            raise ValueError(f"driven site {m} outside lattice of {space.n_sites} sites")
        a = annihilation(space.sites[m])
        terms += [(1.0, (site_factor(space, m, op),)) for op in (a, a.T)]
    return n_tot, assemble(terms, occupation_basis(space))


def build_liouvillian(h: sp.csr_matrix, rates: DissipationRates, drive: DriveSpec | None,
                      space: LatticeSpace) -> Liouvillian:
    """The master-equation generator.

    ``h`` is the lab-frame lattice Hamiltonian without the drive.  When a
    drive is given the generator is built in the rotating frame:
    H_rot = H - ω_d N + ξ Σ_m (a_m + a†_m), which presumes [H, N] = 0 (checked).
    A non-Hermitian ``h`` is refused by the trace-preservation check of
    :class:`Liouvillian`.
    """
    d = space.total_dim
    if h.shape != (d, d):
        raise ValueError(f"Hamiltonian shape {h.shape} does not match space dim {d}")
    h_rot = h
    if drive is not None:
        n_tot, x_drive = _rotating_frame_terms(h, space, drive.driven_sites)
        h_rot = h_rot - drive.omega_d * n_tot + drive.xi * x_drive
    return Liouvillian(h_rot, collapse_operators(rates, space))


# ---------------------------------------------------------------------------
# steady states

def _triangular_sylvester(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """X with A X - X B† = C for upper-triangular A and B.

    Recursive blocked Bartels-Stewart: halve the larger dimension, solve the
    trailing block, fold it into the leading block's right-hand side with one
    matrix product.  LAPACK ``trsyl``, which works element by element, only
    sees blocks up to SYLVESTER_BLOCK; this keeps most of the O(d³) work in
    matrix products (6x faster than a whole-matrix ``trsyl`` at d = 512 on
    one BLAS thread).
    """
    m, n = c.shape
    if max(m, n) <= SYLVESTER_BLOCK:
        x, scale, _ = ztrsyl(a, b, c, tranb="C", isgn=-1)
        return x / scale
    if m >= n:
        k = m // 2
        x2 = _triangular_sylvester(a[k:, k:], b, c[k:])
        x1 = _triangular_sylvester(a[:k, :k], b, c[:k] - a[:k, k:] @ x2)
        return np.vstack([x1, x2])
    k = n // 2
    x2 = _triangular_sylvester(a, b[k:, k:], c[:, k:])
    x1 = _triangular_sylvester(a, b[:k, :k], c[:, :k] + x2 @ b[:k, k:].conj().T)
    return np.hstack([x1, x2])


def _no_jump_inverse(h_eff: np.ndarray, stationary_rate: float):
    """Exact inverse of the no-jump generator Y ↦ -i(H_eff Y - Y H_eff†).

    Bartels-Stewart: with the Schur form H_eff = Q T Q† (Q unitary, T upper
    triangular, eigenvalues λ on its diagonal), -i(H_eff Y - Y H_eff†) = Z
    becomes the triangular Sylvester equation T W - W T† = i Q†ZQ for
    W = Q†YQ, solved in O(d³).  The unitary basis keeps the solve accurate
    where H_eff is far from normal, e.g. at an exceptional point, where an
    eigenbasis V makes V⁻¹ZV⁻† lose digits.  A mode the
    no-jump evolution leaves stationary (Im λ = 0; the vacuum of an undriven
    lattice has λ = 0) would make the equation singular; its λ is moved by
    -i·``stationary_rate``/2, so that it decays at that rate instead.
    """
    t, q = scipy.linalg.schur(h_eff, output="complex")
    stationary = np.abs(np.diag(t).imag) <= 1e-8 * stationary_rate
    t[np.diag_indices_from(t)] -= 0.5j * stationary_rate * stationary
    q_h = q.conj().T

    def solve(z: np.ndarray) -> np.ndarray:
        return q @ _triangular_sylvester(t, t, 1j * (q_h @ z @ q)) @ q_h

    return solve


def _apply_extended(liouv: Liouvillian, rho: np.ndarray) -> np.ndarray:
    """Lρ accumulated in extended precision (``np.clongdouble``; 80-bit on x86).

    Sparse products keep this cheap; ρH† = (H̄ρᵀ)ᵀ and CρC† = C(C̄ρᵀ)ᵀ.  The
    jumps are converted once per jump set, H_eff once per call.
    """
    r = rho.astype(np.clongdouble)
    h = sp.csr_matrix(liouv.h_eff).astype(np.clongdouble)
    out = -1j * (h @ r - (h.conj() @ r.T).T)
    jumps = liouv._jump_set
    stack_conj, row = jumps.extended
    out += jumps.sandwich(stack_conj @ r.T, row)
    return out


def _givens(f: complex, g: float) -> tuple[float, complex, complex]:
    """(c, s, r) with [c s; -s̄ c][f; g] = [r; 0], c real (LAPACK ``lartg``)."""
    if g == 0:
        return 1.0, 0j, f
    if f == 0:
        return 0.0, 1 + 0j, complex(g)
    norm = math.hypot(abs(f), g)
    phase = f / abs(f)
    return abs(f) / norm, phase * g / norm, phase * norm


def _norm(v: np.ndarray) -> float:
    """‖v‖₂ of a complex vector: ``np.linalg.norm``'s own formula, bit for bit,
    without its dispatch, which costs more than the two dot products at d = 14."""
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _gmres(matvec, b: np.ndarray, rtol: float) -> tuple[np.ndarray, float]:
    """x with ‖b - Ax‖ ≤ rtol·‖b‖ by restarted GMRES, and its true relative residual.

    GMRES(``STEADY_GMRES_RESTART``) of Saad and Schultz (1986), at most
    ``STEADY_GMRES_MAXITER`` cycles, each from the previous cycle's iterate.
    The Arnoldi basis is orthogonalized by modified Gram-Schmidt and the
    Hessenberg matrix reduced by Givens rotations on Python scalars.  A cycle
    stops once the rotated residual estimate reaches rtol·‖b‖, or at an exact
    (lucky) breakdown; the true residual b - Ax then decides whether another
    cycle runs.  This is SciPy's ``gmres`` rule with ``atol = 0``.  A system
    that misses the tolerance, e.g. a singular one with b outside the range,
    returns its last iterate and a residual above ``rtol``; it never raises.
    """
    n = b.size
    restart = min(STEADY_GMRES_RESTART, n)
    b_norm = _norm(b)
    x = np.zeros_like(b)
    if b_norm == 0:
        return x, 0.0
    eps = np.finfo(b.dtype).eps
    tol = rtol * b_norm
    basis = np.empty((restart + 1, n), dtype=b.dtype)
    r, r_norm = b, b_norm
    for _ in range(STEADY_GMRES_MAXITER):
        basis[0] = r / r_norm
        rhs = [complex(r_norm)]             # rotated right-hand side of the least squares
        cols: list[list[complex]] = []      # columns of the rotated (triangular) Hessenberg
        rotations: list[tuple[float, complex]] = []
        for j in range(restart):
            w = matvec(basis[j])
            w_norm = _norm(w)
            col = []
            for v in basis[:j + 1]:
                h = np.vdot(v, w)
                w -= h * v
                col.append(complex(h))
            h_next = _norm(w)
            breakdown = h_next <= eps * w_norm
            if breakdown:
                h_next = 0.0
            else:
                basis[j + 1] = w / h_next
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = (c * col[i] + s * col[i + 1],
                                      c * col[i + 1] - s.conjugate() * col[i])
            c, s, col[j] = _givens(col[j], h_next)
            rotations.append((c, s))
            rhs.append(-s.conjugate() * rhs[j])
            rhs[j] *= c
            cols.append(col)
            if abs(rhs[j + 1]) <= tol or breakdown:
                break
        # back substitution; a zero pivot (A singular on the Krylov space) drops its direction
        m = len(cols)
        y = [0j] * m
        for i in range(m - 1, -1, -1):
            if cols[i][i] != 0:
                y[i] = (rhs[i] - sum(cols[k][i] * y[k] for k in range(i + 1, m))) / cols[i][i]
        x = x + np.asarray(y) @ basis[:m]
        r = b - matvec(x)
        r_norm = _norm(r)
        if r_norm <= tol:
            break
    return x, r_norm / b_norm


def steady_state(liouv: Liouvillian) -> DensityMatrix:
    """Stationary state of a dissipative Liouvillian by a matrix-free Krylov solve.

    Solves the bordered system (L - s|I/d⟩⟨tr|) x = -s I/d, with s the
    :meth:`Liouvillian.scale`: L preserves the trace, so tr x = 1 and Lx = 0.
    The border makes the trace mode decay at rate s, on the same side of the
    spectrum as every other mode of a Lindblad generator.
    The package's own restarted GMRES (:func:`_gmres`: modified Gram-Schmidt,
    Givens rotations, a numpy loop with no SciPy call per Krylov step) runs on
    the right-preconditioned operator, the preconditioner being
    the exact inverse of the no-jump part -i(H_eff ρ - ρ H_eff†), a Schur-basis
    Sylvester solve of O(d³) per application; every operator is d×d, the jump
    sum is two sparse products on the stacked jumps, and the
    superoperator is never assembled.  The solve stops at a relative
    residual of ``STEADY_GMRES_RTOL``, checked on the true residual that GMRES
    returns with its iterate, and is then refined once: the residual
    of the bordered system is accumulated in extended precision and a second
    solve, to ``STEADY_REFINE_RTOL``, adds the correction.  This makes small
    populations, such as the two-photon ones behind a weak-drive g²(0),
    accurate to their own size rather than to 1e-16 of the trace.

    Raises ``ValueError`` for a generator without jumps, and
    :class:`ConvergenceError` when the state misses
    max|Lρ| ≤ ``STEADY_RESIDUAL_RTOL`` · s.  Uniqueness is presumed, not
    tested: on a degenerate steady space the bordered operator is singular,
    and a state that meets the residual bound is one element of that space.
    """
    if not liouv.jumps:
        raise ValueError("steady_state requires a dissipative Liouvillian (some rate > 0)")
    d = liouv.dim
    scale = liouv.scale()
    precondition = _no_jump_inverse(liouv.h_eff, scale)
    diagonal = np.arange(d) * (d + 1)           # positions of ρ_ii in vec(ρ)

    def bordered(u: np.ndarray) -> np.ndarray:
        x = precondition(u.reshape(d, d))
        y = liouv.apply(x).reshape(-1)
        y[diagonal] -= scale * np.trace(x) / d
        return y

    def solve(rhs: np.ndarray, rtol: float) -> np.ndarray:
        u, _ = _gmres(bordered, rhs, rtol)
        return precondition(u.reshape(d, d))

    rhs = np.zeros(d * d, dtype=np.complex128)
    rhs[diagonal] = -scale / d
    x = solve(rhs, STEADY_GMRES_RTOL)
    # one step of mixed-precision iterative refinement
    bordered_x = _apply_extended(liouv, x)
    bordered_x[np.diag_indices(d)] -= scale * np.trace(x.astype(np.clongdouble)) / d
    residual_ext = rhs.astype(np.clongdouble) - bordered_x.reshape(-1)
    x = x + solve(residual_ext.astype(np.complex128), STEADY_REFINE_RTOL)
    rho = 0.5 * (x + x.conj().T)
    rho = rho / np.trace(rho).real
    residual = np.max(np.abs(liouv.apply(rho)))
    if not residual <= STEADY_RESIDUAL_RTOL * scale:
        raise ConvergenceError(
            f"steady-state residual {residual:.3e} exceeds "
            f"{STEADY_RESIDUAL_RTOL:.0e} * scale = {STEADY_RESIDUAL_RTOL * scale:.3e}")
    return DensityMatrix(rho)


# ---------------------------------------------------------------------------
# observables

def _g2_ratio(n_val: float, num: float) -> float:
    """⟨a†²a²⟩ / ⟨a†a⟩², NaN below the photon floor ⟨a†a⟩ ≤ 1e-12."""
    if n_val <= 1e-12:
        return math.nan
    return float(num / n_val**2)


def g2_zero(state: DensityMatrix, site: int, space: LatticeSpace) -> float:
    """Zero-delay second-order coherence g²(0) = ⟨a†a†aa⟩ / ⟨a†a⟩² on one site,
    NaN below the photon floor."""
    a = photon_op_on(space, site, annihilation(space.sites[site]))
    adag = a.getH()
    n_val = expectation(adag @ a, state).real
    num = expectation(adag @ adag @ a @ a, state).real
    return _g2_ratio(n_val, num)


@dataclass(frozen=True)
class ScanPoint:
    """One steady-state point of a drive-frequency scan."""

    xi: float
    omega_d: float
    a_sum: complex        # Σ_ports ⟨a_p⟩
    abs_a: float          # Σ_ports |⟨a_p⟩|  (heterodyne transmission, arbitrary units)
    t_norm: float         # abs_a normalized to the maximum within the same ξ
    n_photon: float       # Σ_ports ⟨a†a⟩
    g2: float             # g²(0) on the first port site, NaN below the photon floor


class _ScanModel:
    """The parts of a scan that do not depend on (ξ, ω_d), built once per scan.

    H_rot = H - ω_d N + ξ X, with X = a + a† on site 0, is affine in (ω_d, ξ),
    so a point only adds three dense d×d arrays before its steady-state solve,
    and its generator shares the jump data of the undriven one.
    """

    def __init__(self, params: LatticeParams, space: LatticeSpace, rates: DissipationRates,
                 port_sites: tuple[int, ...]):
        h = build_jchm(params, space)
        n_tot, x_drive = _rotating_frame_terms(h, space, (0,))
        self.h, self.n_tot, self.x_drive = h.toarray(), n_tot.toarray(), x_drive.toarray()
        self.base = Liouvillian(self.h, collapse_operators(rates, space))   # undriven, lab frame
        # tr(Aρ) = Σ_ij (Aᵀ)_ij ρ_ij for a, a†a on every port and a†²a² on the first
        ports = [photon_op_on(space, s, annihilation(space.sites[s])) for s in port_sites]
        self.a_t = np.stack([a.T.toarray() for a in ports])
        self.n_t = np.stack([(a.getH() @ a).T.toarray() for a in ports])
        a0 = ports[0]
        self.num_t = (a0.getH() @ a0.getH() @ a0 @ a0).T.toarray()

    def generator(self, xi: float, omega_d: float) -> Liouvillian:
        """The generator of :func:`build_liouvillian` at drive (ξ, ω_d)."""
        return self.base.with_hamiltonian(self.h - omega_d * self.n_tot + xi * self.x_drive)

    def point(self, xi: float, omega_d: float) -> ScanPoint:
        rho = steady_state(self.generator(xi, omega_d)).rho
        a_vals = np.sum(self.a_t * rho, axis=(1, 2))
        n_vals = np.sum(self.n_t * rho, axis=(1, 2)).real
        g2 = _g2_ratio(float(n_vals[0]), float(np.sum(self.num_t * rho).real))
        return ScanPoint(xi=xi, omega_d=omega_d, a_sum=complex(a_vals.sum()),
                         abs_a=float(np.abs(a_vals).sum()), t_norm=0.0,
                         n_photon=float(n_vals.sum()), g2=g2)


def transmission_scan(params: LatticeParams, space: LatticeSpace,
                      rates: DissipationRates, drive_amplitudes: Sequence[float],
                      omega_d_grid: Sequence[float],
                      max_workers: int = 1) -> list[ScanPoint]:
    """Steady-state transmission T ~ Σ_ports |⟨a⟩| over a (ξ, ω_d) grid.

    The drive ξ(a + a†) acts on site 0.  Output ports are the sites with a
    declared port rate; when none are declared every site is reported.  The
    Hamiltonian, frame terms, jump operators and observables are built once
    per scan, and a negative drive amplitude is refused before any of them.  Points are independent, so the
    scan may run on a process pool; results keep the deterministic grid order.
    """
    if any(xi < 0 for xi in drive_amplitudes):
        raise ValueError("drive amplitude xi must be non-negative")
    port_sites = tuple(s for s, k in rates.kappa_ports if k > 0)
    if not port_sites:
        port_sites = tuple(range(space.n_sites))
    model = _ScanModel(params, space, rates, port_sites)
    xis = [float(xi) for xi in drive_amplitudes for _ in omega_d_grid]
    omegas = [float(w) for _ in drive_amplitudes for w in omega_d_grid]
    if max_workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            points = list(pool.map(model.point, xis, omegas))
    else:
        points = [model.point(xi, w) for xi, w in zip(xis, omegas)]

    # per-amplitude normalized column
    out: list[ScanPoint] = []
    n_w = len(omega_d_grid)
    for block in range(len(drive_amplitudes)):
        rows = points[block * n_w:(block + 1) * n_w]
        peak = max((r.abs_a for r in rows), default=0.0)
        out += [replace(r, t_norm=r.abs_a / peak if peak > 0 else 0.0) for r in rows]
    return out

