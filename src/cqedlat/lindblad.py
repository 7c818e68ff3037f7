"""Open-system engine: Lindblad master equation, steady states, blockade observables.

The master equation whose generator this module builds is

    ∂_t ρ = -i[H_rot, ρ] + γ₁ Σ_n D[σ⁻_n]ρ + γ_φ Σ_n D[σ^z_n]ρ
            + γ_κ Σ_n D[a_n]ρ + κ D[a₀]ρ,

with D[L]ρ = LρL† - (L†Lρ + ρL†L)/2.  The output port is site 0: its rate κ
adds to the uniform unwanted loss γ_κ there, and the transmission and g²(0)
that the commands report are read from a₀.  A coherent drive is handled in
the frame rotating at the drive frequency ω_d, where every site frequency is
shifted by -ω_d and the drive is static:
H_rot = H - ω_d N + ξ Σ_m (a_m + a†_m) over the driven sites, with N the total
polariton number.  That frame needs [H, N] = 0, which the rotating-wave
lattice Hamiltonian of ``build_jchm`` has.  :class:`DrivenLattice` is the one
place that builds it, together with the site-0 observables.

The generator is held as d×d operators: the jump operators C_c (√rate
included) and the non-Hermitian H_eff = H_rot - (i/2) Σ_c C_c†C_c, so that
Lρ = -i(H_eff ρ - ρ H_eff†) + Σ_c C_c ρ C_c† costs d×d products only.  The
jumps are kept stacked, [C₁; …; C_k] and [C₁ … C_k], so that the jump sum is
two sparse products for any number of channels.  Everything that depends on
the jumps alone (the stacks, Σ_c C_c†C_c and their extended-precision
copies) is built once per jump set and shared by every generator that
:meth:`Liouvillian.with_hamiltonian` derives from it: a scan builds it once,
not once per point.  The steady state is a matrix-free solve by the package's
own restarted GMRES, preconditioned by a two-sweep approximate inverse of the
no-jump part in its Schur basis (see :func:`steady_states`).  It solves a
batch of generators with one jump set at once: every member keeps its own
Krylov iteration and its own checks, while each step costs one batched call
for all of them, so a scan pays the interpreter cost of a step once per batch
of ω_d points and not once per point.  :func:`steady_state` is the batch of
one.  The solver's state is a list of diagonal blocks.  When the site mirror
π(i) = n - 1 - i maps the driven model to itself (:class:`DrivenLattice`),
the generator commutes with ρ ↦ PρP for the permutation P of occupation
states that π induces, and the steady state is solved on P's even and odd
blocks: 36² + 28² unknowns in place of 64² for the driven dimer at
n_max = 3.  Every other model, every single site among them, is one block,
the occupation basis itself.  The d²×d² superoperator, in row-major (C-order)
vectorization vec(AρB) = (A ⊗ Bᵀ)vec(ρ), is assembled only on demand
(:attr:`Liouvillian.matrix`): the driven mean field integrates and factors it,
and the tests use it as an oracle.  ``blockade-scan``,
``dimer-g2`` and ``driven-mf`` all reach this module through
:class:`DrivenLattice`.  No command evolves a given initial state or fits a
lineshape; those routes are test oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .hilbert import (
    DensityMatrix,
    LatticeSpace,
    assemble,
    expectation,
    occupation_basis,
    photon_op_on,
    site_factor,
    total_excitation,
)
from .lattice import LatticeParams, build_jchm

__all__ = [
    "DissipationRates",
    "DriveSpec",
    "DrivenLattice",
    "Liouvillian",
    "KrylovStats",
    "ScanPoint",
    "SteadyState",
    "StiffnessError",
    "ConvergenceError",
    "MeanFieldConvergenceError",
    "build_liouvillian",
    "steady_state",
    "steady_states",
    "g2_zero",
    "transmission_scan",
]

TRACE_PRESERVATION_RTOL = 1e-10
STEADY_RESIDUAL_RTOL = 1e-10
# GMRES stopping rules, relative to the right-hand side: the first solve,
# then the correction from a residual accumulated in extended precision.
# The two-photon populations behind a weak-drive g²(0) are ~ξ⁴ of the trace,
# below the ~1e-16 absolute error that any double-precision solve leaves.  A
# correction can only remove an error its residual resolves, so the residual
# is formed in extended precision: on the driven dimer (d = 64) g²(0) then
# agrees with the weak-drive series to 1e-6 or better, and with a
# double-precision residual it is off by 5e-5 to 3e-3 relative
STEADY_GMRES_RTOL = 1e-10
STEADY_REFINE_RTOL = 1e-6
STEADY_GMRES_RESTART = 50
STEADY_GMRES_MAXITER = 20     # restart cycles
# Largest B·d² of one batched steady-state solve (B generators of dimension d).
# Memory sets it: the Krylov basis of a batch grows by B·d² complex entries per
# step.  At 2048 the seed-0 scan (d = 14) solves each row of 51 points in six
# batches of 8 or 9, and its peak RSS is 0.7 MiB above that of one point at a
# time; batches of 17 (4096) add 1.7 MiB and one batch of 51 adds 6.5 MiB.
# From d = 33 on every batch is a single generator.
STEADY_BATCH_ENTRIES = 2048


class StiffnessError(RuntimeError):
    """Integrator step size underflow; carries time and step diagnostics."""


class ConvergenceError(RuntimeError):
    """A steady-state search did not reach its tolerance."""


# The error of ``meanfield`` lives here so that the CLI can catch it without
# loading ``meanfield`` (and with it ``scipy.integrate``); ``meanfield`` re-binds it.
class MeanFieldConvergenceError(RuntimeError):
    """A mean-field search did not converge: the ψ refinement ran out of
    steps, or the driven self-consistency loop neither settled nor cycled."""


@dataclass(frozen=True)
class DissipationRates:
    """Qubit relaxation γ₁, pure dephasing γ_φ and uniform photon loss γ_κ on
    every site, and the rate κ of the output port on site 0."""

    gamma1: float = 0.0
    gamma_phi: float = 0.0
    gamma_kappa: float = 0.0
    kappa: float = 0.0

    def __post_init__(self) -> None:
        if min(self.gamma1, self.gamma_phi, self.gamma_kappa, self.kappa) < 0:
            raise ValueError("dissipation rates must be non-negative")

    def any_nonzero(self) -> bool:
        return max(self.gamma1, self.gamma_phi, self.gamma_kappa, self.kappa) > 0


@dataclass(frozen=True)
class DriveSpec:
    """Coherent drive ξ(a e^{iω_d t} + a† e^{-iω_d t}) of the one site of
    :func:`cqedlat.meanfield.driven_mf_steady`."""

    xi: float
    omega_d: float

    def __post_init__(self) -> None:
        if self.xi < 0:
            raise ValueError("drive amplitude xi must be non-negative")


class _JumpSet:
    """The parts of a generator that depend on its jumps alone, built once and
    shared by every generator of :meth:`Liouvillian.with_hamiltonian`.

    ``stack_conj`` is the conjugate of [C₁; …; C_k] (kd×d) and ``row`` is
    [C₁ … C_k] (d×kd), so that Σ_c C_c ρ C_c† takes two sparse products and
    Σ_c C_c†C_c one, for any k.  ``mirror`` is the permutation P of the basis
    states under which the jump sum is covariant, or None; ``blocks`` are the
    diagonal blocks a steady state is solved on: P's even and odd blocks, or
    the whole occupation basis as one block (``occupation``).
    """

    def __init__(self, jumps: Sequence[sp.spmatrix], d: int, mirror: np.ndarray | None = None):
        self.jumps = tuple(sp.csr_matrix(c, dtype=np.complex128) for c in jumps)
        self.k = len(self.jumps)
        empty = sp.csr_matrix((0, d), dtype=np.complex128)
        stack = sp.vstack(self.jumps or (empty,), format="csr")
        self.stack_conj = stack.conj()
        self.row = sp.hstack(self.jumps or (empty.T,), format="csr")
        self.loss = (stack.getH() @ stack).toarray()                 # Σ_c C_c†C_c
        diag = np.array([c.diagonal() for c in self.jumps]).reshape(self.k, d)
        self.diag = diag.T @ diag.conj()                             # Σ_c C_c,ii C̄_c,jj
        self.occupation = _Blocks(None, (d,), [[self.k]], [self.stack_conj], [self.row])
        self.mirror = mirror
        self.blocks = self.occupation
        if mirror is not None:
            self.blocks = _Blocks.mirror(self.jumps, mirror)


class _Blocks:
    """The diagonal blocks of the state a steady state is solved on.

    Block a is spanned by ``dims[a]`` consecutive columns of the real
    orthogonal ``basis`` U (None: the occupation basis itself, as the one
    block of a model without a mirror); ``spans`` are their column ranges.
    The jumps enter as their blocks C^ab_c, the rows of block a and the
    columns of block b of Uᵀ C_c U, with the ones that vanish left out:
    ``counts[a][b]`` of them go from block b to block a.  ``sources[b]`` is
    the conjugate of the C^ab_c stacked over a and c, and ``targets[a]`` the
    C^ab_c side by side over b and c, so that block a of the jump sum,
    Σ_b Σ_c C^ab_c ρ_b C^ab_c†, takes one sparse product per block for the
    sources and one for the targets (:func:`_jump_sum`).  For one block
    these are the stacks of :class:`_JumpSet`.
    """

    def __init__(self, basis: np.ndarray | None, dims: tuple[int, ...],
                 counts: list[list[int]], sources: list[sp.csr_matrix],
                 targets: list[sp.csr_matrix]):
        self.basis, self.dims, self.counts = basis, dims, counts
        self.spans = [(int(hi - d), int(hi)) for d, hi in zip(dims, np.cumsum(dims))]
        self.sources, self.targets = sources, targets

    @classmethod
    def mirror(cls, jumps: Sequence[sp.csr_matrix], mirror: np.ndarray) -> _Blocks:
        """The even and odd blocks of the basis permutation ``mirror``: the
        states it fixes and (|s⟩ + |πs⟩)/√2, then (|s⟩ - |πs⟩)/√2.

        The mirror image P C P of a jump, (PCP)_ij = C_{πi,πj}, must be a jump
        too.  Its blocks C^ab equal those of C on the diagonal and are their
        negatives off it, so on a state with ρ = PρP the pair (C, PCP) adds
        twice what C adds: only C enters, weighted by √2.  A jump that is its
        own image enters alone and has no blocks off the diagonal.  For the
        driven dimer at n_max = 3 that leaves 280 entries, against 160 in the
        occupation basis and 560 for every jump.
        """
        d = len(mirror)
        index = np.arange(d)
        orbit = index[mirror >= index]              # the first state of each orbit {s, πs}
        pair = orbit[mirror[orbit] != orbit]
        dims = (orbit.size, pair.size)
        # |s⟩ = Σ_a weight[a, s] |state place[a, s] of block a⟩
        place, weight = np.zeros((2, d), dtype=int), np.zeros((2, d))
        for a, states in enumerate((orbit, pair)):
            place[a, states] = place[a, mirror[states]] = np.arange(states.size)
        weight[0, orbit] = weight[0, mirror[orbit]] = np.where(mirror[orbit] == orbit, 1.0,
                                                               math.sqrt(0.5))
        weight[1, pair], weight[1, mirror[pair]] = math.sqrt(0.5), -math.sqrt(0.5)
        basis = np.zeros((d, d))
        basis[index, place[0]] = weight[0]
        basis[index, dims[0] + place[1]] += weight[1]

        def key(rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> bytes:
            order = np.lexsort((cols, rows))
            return b"".join(x[order].tobytes() for x in (rows.astype(int), cols.astype(int), values))

        entries = [c.tocoo() for c in jumps]
        position = {key(e.row, e.col, e.data): k for k, e in enumerate(entries)}
        parts: list[list[list[sp.csr_matrix]]] = [[[], []], [[], []]]   # the nonzero C^ab_c
        paired: set[int] = set()
        for k, e in enumerate(entries):
            if k in paired:
                continue
            image = position.get(key(mirror[e.row], mirror[e.col], e.data))
            if image is None or image in paired:
                raise ValueError("the jumps are not covariant under the mirror")
            paired.update((k, image))
            factor = 1.0 if image == k else math.sqrt(2.0)
            for a, b in itertools.product(range(2), range(2)):
                block = sp.csr_matrix((factor * weight[a, e.row] * e.data * weight[b, e.col],
                                       (place[a, e.row], place[b, e.col])), shape=(dims[a], dims[b]))
                block.eliminate_zeros()
                if block.nnz:
                    parts[a][b].append(block)
        sources = [sp.vstack([p for row in parts for p in row[b]]
                             or [sp.csr_matrix((0, dims[b]), dtype=np.complex128)],
                             format="csr").conj() for b in range(2)]
        targets = [sp.hstack([p for ps in parts[a] for p in ps]
                             or [sp.csr_matrix((dims[a], 0), dtype=np.complex128)],
                             format="csr") for a in range(2)]
        counts = [[len(ps) for ps in row] for row in parts]
        return cls(basis, dims, counts, sources, targets)

    @cached_property
    def extended(self) -> tuple[list[sp.csr_matrix], list[sp.csr_matrix]]:
        """``sources`` and ``targets`` in extended precision (``np.clongdouble``)."""
        return ([c.astype(np.clongdouble) for c in self.sources],
                [c.astype(np.clongdouble) for c in self.targets])

    def of(self, h: np.ndarray) -> list[np.ndarray]:
        """The diagonal blocks U_aᵀ h U_a of an (m, d, d) stack h."""
        if self.basis is None:
            return [h]
        return [self.basis[:, lo:hi].T @ h @ self.basis[:, lo:hi] for lo, hi in self.spans]

    def join(self, x: Sequence[np.ndarray]) -> np.ndarray:
        """The (m, d, d) stack Σ_a U_a x_a U_aᵀ of the block stacks x."""
        if self.basis is None:
            return x[0]
        return sum(self.basis[:, lo:hi] @ x_a @ self.basis[:, lo:hi].T
                   for (lo, hi), x_a in zip(self.spans, x))

    def jump_sum(self, x: Sequence[np.ndarray], extended: bool = False) -> list[np.ndarray]:
        """The blocks of Σ_c C_c ρ C_c† for the block stacks x of ρ, with the
        jumps in extended precision if ``extended``.  The jump sum is
        P-covariant, so the blocks off the diagonal, which are not formed,
        vanish."""
        sources, targets = self.extended if extended else (self.sources, self.targets)
        return _jump_sum(sources, targets, self.counts, x)


def _jump_sum(sources: Sequence[sp.csr_matrix], targets: Sequence[sp.csr_matrix],
              counts: Sequence[Sequence[int]], x: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Block a of Σ_c C_c ρ C_c†, Σ_b Σ_c C^ab_c ρ_b C^ab_c†, for every ρ of
    the (m, d_b, d_b) block stacks x, with the jump stacks of :class:`_Blocks`:
    two sparse products per block for all m and all channels.

    C ρ C† = C (C̄ρᵀ)ᵀ: the ρ_mᵀ of block b stand side by side as the
    d_b×md_b right-hand side of ``sources[b]``, and the blocks C̄ρ_mᵀ,
    transposed and gathered over b, as that of ``targets[a]``.
    """
    m = len(x[0])
    dims = [x_b.shape[1] for x_b in x]
    pieces: list[list[np.ndarray]] = [[] for _ in x]
    for b, (stack_conj, x_b, d) in enumerate(zip(sources, x, dims)):
        blocks = stack_conj @ x_b.transpose(2, 0, 1).reshape(d, m * d)
        lo = 0
        for a, d_out in enumerate(dims):
            k = counts[a][b]
            pieces[a].append(blocks[lo:lo + k * d_out].reshape(k, d_out, m, d)
                             .transpose(0, 3, 2, 1).reshape(k * d, m * d_out))
            lo += k * d_out
    return [(row @ (p[0] if len(p) == 1 else np.concatenate(p))).reshape(d, m, d).transpose(1, 0, 2)
            for row, p, d in zip(targets, pieces, dims)]


def _apply(h_eff: np.ndarray, h_adj: np.ndarray, jumps: _JumpSet, r: np.ndarray) -> np.ndarray:
    """Lρ = -i(H_eff ρ - ρ H_eff†) + Σ_c C_c ρ C_c† for every ρ of the (m, d, d)
    stack ``r``; ``h_eff`` and ``h_adj`` = H_eff† are d×d or an (m, d, d) stack."""
    out = h_eff @ r
    out -= r @ h_adj
    out *= -1j
    out += jumps.occupation.jump_sum([r])[0]
    return out


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

    ``mirror``, an involutive permutation π of the basis states (P|s⟩ = |πs⟩),
    declares a symmetry: P H_rot P = H_rot, and P C P is one of the jumps for
    every jump C.  Both are checked, the first for every ``h_rot`` of
    :meth:`with_hamiltonian` too.  :func:`steady_states` then solves on P's
    even and odd blocks.  :class:`DrivenLattice` finds its site mirror.
    """

    def __init__(self, h_rot: np.ndarray | sp.spmatrix, jumps: Sequence[sp.spmatrix],
                 mirror: np.ndarray | None = None):
        h = _square(h_rot)
        self._init(h, _JumpSet(jumps, h.shape[0], mirror))

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
        self.mirror = mirror = jump_set.mirror
        if mirror is not None and (np.max(np.abs(self.h_rot[np.ix_(mirror, mirror)] - self.h_rot))
                                   > TRACE_PRESERVATION_RTOL * self.scale()):
            raise ValueError("Hamiltonian is not symmetric under the mirror of its jumps")

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
        r = rho.reshape(1, self.dim, self.dim)
        return _apply(self.h_eff, self._h_eff_adj, self._jump_set, r).reshape(rho.shape)


def _square(h_rot: np.ndarray | sp.spmatrix) -> np.ndarray:
    """``h_rot`` as a dense square array."""
    h = h_rot.toarray() if sp.issparse(h_rot) else np.asarray(h_rot)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"Hamiltonian shape {h.shape} is not square")
    return h


def collapse_operators(rates: DissipationRates, space: LatticeSpace) -> list[sp.csr_matrix]:
    """√rate-weighted jump operators of the master equation, the port on site 0 last."""
    per_site = ((rates.gamma1, (None, "sigma_m")), (rates.gamma_phi, (None, "sigma_z")),
                (rates.gamma_kappa, ("a",)))
    channels = [(rate, n, ops) for n in range(space.n_sites) for rate, ops in per_site]
    channels.append((rates.kappa, 0, ("a",)))
    basis = occupation_basis(space)
    return [assemble([(math.sqrt(rate), (site_factor(space, n, *ops),))], basis)
            for rate, n, ops in channels if rate > 0]


def build_liouvillian(h: sp.csr_matrix, rates: DissipationRates, space: LatticeSpace,
                      mirror: np.ndarray | None = None) -> Liouvillian:
    """The undriven master-equation generator of the lattice Hamiltonian ``h``,
    with the basis ``mirror`` of :class:`Liouvillian`.

    A drive enters through :meth:`DrivenLattice.generator`, which starts from
    this generator.  A non-Hermitian ``h`` is refused by the
    trace-preservation check of :class:`Liouvillian`.
    """
    d = space.total_dim
    if h.shape != (d, d):
        raise ValueError(f"Hamiltonian shape {h.shape} does not match space dim {d}")
    return Liouvillian(h, collapse_operators(rates, space), mirror)


# ---------------------------------------------------------------------------
# steady states

def _no_jump_schur(h_eff: np.ndarray, stationary_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """(T, Q) with H_eff = Q T Q† (Q unitary, T upper triangular), its
    stationary modes shifted to decay at ``stationary_rate``.

    For W = Q†YQ the no-jump generator Y ↦ -i(H_eff Y - Y H_eff†) becomes
    W ↦ -i(T W - W T†), which :class:`_BorderedBatch` inverts approximately
    from the diagonal and the strictly upper part of T.  The unitary basis
    keeps that accurate where H_eff is far from normal, e.g. at an
    exceptional point, where an eigenbasis V is singular and V⁻¹ZV⁻† loses
    digits.  A mode the no-jump evolution leaves stationary (Im λ = 0 for an
    eigenvalue λ on T's diagonal; the vacuum of an undriven lattice has λ = 0)
    would give a zero divisor λ - λ̄ = 0; its λ is moved by
    -i·``stationary_rate``/2, so that it decays at that rate instead.  Every
    other λ of a Lindblad H_eff has Im λ < 0, so every divisor
    t_ii - t̄_jj then has a negative imaginary part.
    """
    t, q = scipy.linalg.schur(h_eff, output="complex")
    stationary = np.abs(np.diag(t).imag) <= 1e-8 * stationary_rate
    t[np.diag_indices_from(t)] -= 0.5j * stationary_rate * stationary
    return t, q


def _sweeps(h_eff: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, ...]:
    """Q, Q†, 1 ⊘ D, N and N† of :class:`_BorderedBatch` for the (m, d, d)
    stack ``h_eff`` of one block, from :func:`_no_jump_schur`."""
    t, q = zip(*(_no_jump_schur(h, s) for h, s in zip(h_eff, scale)))
    t, q = np.stack(t), np.stack(q)
    lam = np.diagonal(t, axis1=1, axis2=2)
    upper = np.triu(t, 1)
    return (q, q.conj().transpose(0, 2, 1), 1.0 / (lam[:, :, None] - lam.conj()[:, None, :]),
            upper, upper.conj().transpose(0, 2, 1))


class _BorderedBatch:
    """The right-preconditioned bordered operators u ↦ (L_m - s_m|I/d⟩⟨tr|) P_m u
    of a batch of generators L_m with one dimension and one jump set, on the
    diagonal blocks ``blocks`` (by default the whole space as one block).

    s_m is :meth:`Liouvillian.scale` and P_m an approximate inverse of L_m's
    no-jump part, taken block by block in the Schur basis of
    :func:`_no_jump_schur`.  There the no-jump part of a block is
    W ↦ -i(S_D + S_N)W, with T = diag(T) + N, the divisor
    D_ij = t_ii - t̄_jj, S_D W = D ∘ W and S_N W = N W - W N†.  P_m takes two
    sweeps, the first two terms of (S_D + S_N)⁻¹ = S_D⁻¹(I + S_N S_D⁻¹)⁻¹:
    W₀ = C ⊘ D and W = W₀ - S_N(W₀) ⊘ D, for C = i Q†UQ and P_m u = Q W Q†.
    S_N maps an entry (k, l) only to entries (i, j) with i + j < k + l, so
    S_N S_D⁻¹ is nilpotent: the no-jump part of the preconditioned operator is
    I - (S_N S_D⁻¹)², a nilpotent defect of second order in N, and P_m is
    nonsingular for every T, exceptional points included, because its
    correction factor I - S_N S_D⁻¹ is unit-triangular and no divisor is zero.
    GMRES absorbs the defect.  One correction sweep, not none or two: with
    one, the seed-0 blockade scan takes 2344 bordered applications.  W₀
    alone, whose defect is first order, took 2417 and moved the default
    ``dimer-g2`` g²(0) by 4.0e-7 relative to its refined value (one sweep:
    1.5e-8).  A second correction sweep took 2324, 1% fewer, for two more
    d×d products per application.

    A state is a list of block stacks, one (m, d_a, d_a) array per block, and
    a vector u is the vec of every block in turn (``bounds``), ``size``
    entries per member.  Called as ``op(members, u)``, with ``members`` an int
    array of batch positions and u one vector per member, it is the
    ``matvec`` of :func:`_gmres`.  Every product is batched over the members,
    the preconditioner and the jump sum included.
    """

    def __init__(self, generators: Sequence[Liouvillian], blocks: _Blocks | None = None):
        jumps = generators[0]._jump_set
        if any(g._jump_set is not jumps for g in generators):
            raise ValueError("a batch of generators must share one jump set")
        self.blocks = blocks or jumps.occupation
        self.dim = generators[0].dim
        self.dims = self.blocks.dims
        self.scale = np.array([g.scale() for g in generators])
        self.h_eff = self.blocks.of(np.stack([g.h_eff for g in generators]))
        self.h_adj = [h.conj().transpose(0, 2, 1) for h in self.h_eff]
        self.sweeps = [_sweeps(h, self.scale) for h in self.h_eff]
        ends = np.cumsum([d * d for d in self.dims])
        self.bounds = [(int(lo), int(hi)) for lo, hi in zip(np.r_[0, ends[:-1]], ends)]
        self.size = int(ends[-1])
        # the ρ_ii of each block in the vector
        self.diagonal = [slice(lo, hi, d + 1) for (lo, hi), d in zip(self.bounds, self.dims)]

    def precondition(self, members: np.ndarray, u: np.ndarray) -> list[np.ndarray]:
        """The block stacks of P_m u_m: W₀ = C ⊘ D, W = W₀ - (N W₀ - W₀ N†) ⊘ D
        with C = i Q†UQ, and P_m u = Q W Q†, block by block."""
        out = []
        for (lo, hi), d, sweeps in zip(self.bounds, self.dims, self.sweeps):
            q, q_h, inv_divisor, upper, upper_h = _rows(sweeps, members)
            w = q_h @ u[:, lo:hi].reshape(-1, d, d) @ q
            w *= 1j
            w *= inv_divisor
            w -= (upper @ w - w @ upper_h) * inv_divisor
            out.append(q @ w @ q_h)
        return out

    def apply(self, members: np.ndarray, x: Sequence[np.ndarray]) -> list[np.ndarray]:
        """The block stacks of L_m x_m for the block stacks x."""
        out = []
        for h, h_adj, x_a, jump_a in zip(self.h_eff, self.h_adj, x, self.blocks.jump_sum(x)):
            h, h_adj = _rows((h, h_adj), members)
            y = h @ x_a
            y -= x_a @ h_adj
            y *= -1j
            y += jump_a
            out.append(y)
        return out

    def apply_extended(self, x: Sequence[np.ndarray]) -> list[np.ndarray]:
        """The block stacks of L_m x_m for every member, accumulated in extended
        precision (``np.clongdouble``; 80-bit on x86).

        Sparse products keep this cheap: the H_eff blocks of all members form
        one block-diagonal matrix per block, ρH† = (H̄ρᵀ)ᵀ, and the jumps,
        converted once per jump set, act as in :func:`_jump_sum`.
        """
        r = [x_a.astype(np.clongdouble) for x_a in x]
        out = []
        for h_eff, r_a, jump_a in zip(self.h_eff, r, self.blocks.jump_sum(r, extended=True)):
            m, d, _ = r_a.shape
            member, i, j = np.nonzero(h_eff)
            h = sp.csr_matrix((h_eff[member, i, j].astype(np.clongdouble),
                               (member * d + i, member * d + j)), shape=(m * d, m * d))
            y = (h @ r_a.reshape(m * d, d)).reshape(m, d, d)
            y -= (h.conj() @ r_a.transpose(0, 2, 1).reshape(m * d, d)).reshape(m, d, d).transpose(0, 2, 1)
            y *= -1j
            y += jump_a
            out.append(y)
        return out

    def __call__(self, members: np.ndarray, u: np.ndarray) -> np.ndarray:
        x = self.precondition(members, u)
        y = _vec(self.apply(members, x))
        border = (self.scale[members] / self.dim * _trace(x))[:, None]
        for diagonal in self.diagonal:
            y[:, diagonal] -= border
        return y


def _rows(arrays: Sequence[np.ndarray], members: np.ndarray) -> Sequence[np.ndarray]:
    """The entries of each of the stacks ``arrays`` for the sorted batch
    positions ``members``, with no copy when they are all of them."""
    return arrays if len(members) == len(arrays[0]) else [a[members] for a in arrays]


def _vec(x: Sequence[np.ndarray]) -> np.ndarray:
    """The vectors, one row per member, of the block stacks x (a view for one block)."""
    if len(x) == 1:
        return x[0].reshape(len(x[0]), -1)
    return np.concatenate([x_a.reshape(len(x_a), -1) for x_a in x], axis=1)


def _trace(x: Sequence[np.ndarray]) -> np.ndarray:
    """tr x_m of every member, summed over the block stacks x."""
    traces = [np.trace(x_a, axis1=1, axis2=2) for x_a in x]
    return sum(traces[1:], traces[0])


def _givens(f: complex, g: float) -> tuple[float, complex, complex]:
    """(c, s, r) with [c s; -s̄ c][f; g] = [r; 0], c real (LAPACK ``lartg``)."""
    if g == 0:
        return 1.0, 0j, f
    if f == 0:
        return 0.0, 1 + 0j, complex(g)
    norm = math.hypot(abs(f), g)
    phase = f / abs(f)
    return abs(f) / norm, phase * g / norm, phase * norm


def _norms(v: np.ndarray) -> np.ndarray:
    """‖v_m‖₂ of every row of a complex (m, n) array."""
    return np.sqrt(np.vecdot(v, v).real)


def _gmres(matvec, b: np.ndarray, rtol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Restarted GMRES on a batch of systems A_m x_m = b_m, one per row of ``b``.

    Returns the x_m with ‖b_m - A_m x_m‖ ≤ rtol·‖b_m‖ as rows, their true
    relative residuals and the Krylov (Arnoldi) steps each took.
    ``matvec(members, v)`` returns the rows A_m v_m for the int array
    ``members`` of batch positions and the rows v_m of ``v``; the batch steps
    together, one call for all the members still iterating.

    Each member runs GMRES(``STEADY_GMRES_RESTART``) of Saad and Schultz (1986)
    on its own, for at most ``STEADY_GMRES_MAXITER`` cycles, each from its
    previous cycle's iterate.  Its Arnoldi basis is orthogonalized by modified
    Gram-Schmidt, batched over the members, and its Hessenberg matrix reduced
    by Givens rotations on Python scalars.  A member's cycle stops once its
    rotated residual estimate reaches rtol·‖b_m‖, or at an exact (lucky)
    breakdown; once every member's cycle has stopped, the true residual
    b_m - A_m x_m decides whether the member runs another.  This is SciPy's
    ``gmres`` rule with ``atol = 0``.  A member that misses the tolerance,
    e.g. a singular system with b_m outside the range, returns its last
    iterate and a residual above ``rtol``; nothing raises.
    """
    n_sys, n = b.shape
    restart = min(STEADY_GMRES_RESTART, n)
    eps = np.finfo(b.dtype).eps
    b_norm = _norms(b)
    tol = rtol * b_norm
    x = np.zeros_like(b)
    r, r_norm = b.copy(), b_norm.copy()
    steps = np.zeros(n_sys, dtype=int)
    todo = np.flatnonzero(b_norm > 0)           # a zero right-hand side has x = 0
    for _ in range(STEADY_GMRES_MAXITER):
        if not todo.size:
            break
        m = todo.size
        basis = [r[todo] / r_norm[todo, None]]  # one (m, n) array per Arnoldi vector
        rhs = [[complex(beta)] for beta in r_norm[todo]]   # rotated least-squares right-hand sides
        tols = tol[todo].tolist()
        cols: list[list[list[complex]]] = [[] for _ in range(m)]   # rotated Hessenberg columns
        rotations: list[list[tuple[float, complex]]] = [[] for _ in range(m)]
        active = list(range(m))                 # members whose cycle still runs
        rows = todo
        for j in range(restart):
            if len(active) == m:
                w = matvec(todo, basis[j])
            else:                               # rows of stopped members stay zero
                w = np.zeros_like(basis[j])
                w[active] = matvec(rows, basis[j][active])
            w_norm = _norms(w).tolist()
            h = []
            for v in basis:
                h_i = np.vecdot(v, w, keepdims=True)
                w -= h_i * v
                h.append(h_i)
            h_next = _norms(w).tolist()
            breakdown = [h_p <= eps * w_p for h_p, w_p in zip(h_next, w_norm)]
            # a member that broke down stops here, and its next vector is never used
            w *= np.array([0.0 if stop else 1.0 / h_p
                           for h_p, stop in zip(h_next, breakdown)])[:, None]
            basis.append(w)
            h_cols = np.concatenate(h, axis=1).tolist()
            running = []
            for p in active:
                col, rot, g = h_cols[p], rotations[p], rhs[p]
                for i, (c, s) in enumerate(rot):
                    col[i], col[i + 1] = (c * col[i] + s * col[i + 1],
                                          c * col[i + 1] - s.conjugate() * col[i])
                c, s, col[j] = _givens(col[j], 0.0 if breakdown[p] else h_next[p])
                rot.append((c, s))
                g.append(-s.conjugate() * g[j])
                g[j] *= c
                cols[p].append(col)
                if not (abs(g[j + 1]) <= tols[p] or breakdown[p]):
                    running.append(p)
            if not running:
                break
            if len(running) < len(active):
                active, rows = running, todo[running]
        steps[todo] += [len(col) for col in cols]
        # back substitution; a zero pivot (A_m singular on the Krylov space) drops its direction
        y = np.zeros((m, len(basis) - 1), dtype=b.dtype)
        for p, (col, g) in enumerate(zip(cols, rhs)):
            y_p = [0j] * len(col)
            for i in range(len(col) - 1, -1, -1):
                if col[i][i] != 0:
                    y_p[i] = (g[i] - sum(col[k][i] * y_p[k] for k in range(i + 1, len(col)))) / col[i][i]
            y[p, :len(col)] = y_p
        update = np.zeros_like(basis[0])
        for i, v in enumerate(basis[:-1]):
            update += y[:, i, None] * v
        del basis               # the residual product below then runs without it in memory
        x[todo] += update
        r[todo] = b[todo] - matvec(todo, x[todo])
        r_norm[todo] = _norms(r[todo])
        todo = todo[~(r_norm[todo] <= tol[todo])]
    residual = np.divide(r_norm, b_norm, out=np.zeros_like(b_norm), where=b_norm > 0)
    return x, residual, steps


@dataclass(frozen=True)
class KrylovStats:
    """Krylov steps and final relative residuals of the two GMRES solves behind
    one steady state: the first, to ``STEADY_GMRES_RTOL``, and the refinement,
    to ``STEADY_REFINE_RTOL``; and the dimensions of the diagonal blocks they
    ran on (:func:`steady_states`)."""

    steps: int
    refine_steps: int
    residual: float
    refine_residual: float
    block_dims: tuple[int, ...]


class SteadyState(DensityMatrix):
    """A steady state, with the :class:`KrylovStats` of the solve that found it."""

    __slots__ = ("krylov",)

    def __init__(self, rho: np.ndarray, krylov: KrylovStats):
        super().__init__(rho)
        self.krylov = krylov


def steady_states(generators: Sequence[Liouvillian]) -> list[SteadyState]:
    """Stationary states of dissipative generators with one dimension and one
    jump set, in their order, by one batched matrix-free Krylov solve.

    For every member L the solve is that of the bordered system
    (L - s|I/d⟩⟨tr|) x = -s I/d, with s the :meth:`Liouvillian.scale`: L
    preserves the trace, so tr x = 1 and Lx = 0.  The border makes the trace
    mode decay at rate s, on the same side of the spectrum as every other mode
    of a Lindblad generator.  The package's own restarted GMRES
    (:func:`_gmres`: modified Gram-Schmidt, Givens rotations, a numpy loop
    with no SciPy call per Krylov step) runs on the right-preconditioned
    operator.  The preconditioner approximately inverts the no-jump part
    -i(H_eff ρ - ρ H_eff†) in the Schur basis of H_eff, by two sweeps of
    batched d×d products and elementwise divisions, O(d³) per application
    (:class:`_BorderedBatch`).  It leaves a nilpotent defect of second order
    in the non-normal part of H_eff, which GMRES absorbs, and it is
    nonsingular for every H_eff, exceptional points included.  Every operator
    is d×d, the jump sum is two sparse products on the stacked jumps, and the
    superoperator is never assembled.  The members step together: each
    Krylov step makes one batched product for all of them, while each keeps
    its own basis, stopping test and restarts, so it reaches the state it
    would reach alone.

    The state is a list of diagonal blocks.  Generators with a ``mirror`` P
    (:class:`Liouvillian`) commute with ρ ↦ PρP, so their unique steady state
    has ρ = PρP: in the basis of P's even states (those it fixes, and
    (|s⟩ + |πs⟩)/√2) and odd states ((|s⟩ - |πs⟩)/√2), H_eff = H_e ⊕ H_o and
    ρ = ρ_e ⊕ ρ_o.  The solve then runs on those two blocks: the no-jump
    part, its Schur preconditioner and the border act block by block, and of
    the P-covariant jump sum only its two diagonal blocks are formed.  For a
    dimer of site dimension D that is D(D+1)/2 and D(D-1)/2 in place of D², about
    half the unknowns and a quarter of the dense work.  Any other generator
    has one block, the whole occupation basis, and is solved there.

    Each solve stops at a relative residual of ``STEADY_GMRES_RTOL``, checked
    on the true residual that GMRES returns with its iterate, and is then
    refined once: the residual of the bordered system is accumulated in
    extended precision and a second solve, to ``STEADY_REFINE_RTOL``, adds
    the correction.  This makes small populations, such as the two-photon
    ones behind a weak-drive g²(0), accurate to their own size rather than to
    1e-16 of the trace.  Each state carries the steps and residuals of both
    solves and its block dimensions (:class:`KrylovStats`); a residual above
    its tolerance is reported there, not raised.

    Raises ``ValueError`` for generators without jumps or with different jump
    sets, and :class:`ConvergenceError` when a state misses
    max|Lρ| ≤ ``STEADY_RESIDUAL_RTOL`` · s, with L applied in the occupation
    basis to the whole state; every state is also validated there as a
    :class:`DensityMatrix`.  Uniqueness is presumed, not tested: on a
    degenerate steady space the bordered operator is singular, and a state
    that meets the residual bound is one element of that space.
    """
    if not generators[0].jumps:
        raise ValueError("steady_state requires a dissipative Liouvillian (some rate > 0)")
    jumps = generators[0]._jump_set
    op = _BorderedBatch(generators, jumps.blocks)
    n, d = len(generators), op.dim
    everyone = np.arange(n)
    rhs = np.zeros((n, op.size), dtype=np.complex128)
    for diagonal in op.diagonal:
        rhs[:, diagonal] = (-op.scale / d)[:, None]
    u, residual, steps = _gmres(op, rhs, STEADY_GMRES_RTOL)
    x = op.precondition(everyone, u)
    # one step of mixed-precision iterative refinement
    bordered_x = _vec(op.apply_extended(x))
    trace_ext = _trace([x_a.astype(np.clongdouble) for x_a in x])
    for diagonal in op.diagonal:
        bordered_x[:, diagonal] -= (op.scale * trace_ext / d)[:, None]
    residual_ext = rhs.astype(np.clongdouble) - bordered_x
    u, refine_residual, refine_steps = _gmres(op, residual_ext.astype(np.complex128),
                                              STEADY_REFINE_RTOL)
    x = op.blocks.join([x_a + c_a for x_a, c_a in zip(x, op.precondition(everyone, u))])
    rho = 0.5 * (x + x.conj().transpose(0, 2, 1))
    rho = rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    # the check does not trust the blocks: the whole generator on the whole state
    h_eff = np.stack([g.h_eff for g in generators])
    generator_residual = np.max(np.abs(_apply(h_eff, h_eff.conj().transpose(0, 2, 1),
                                              jumps, rho)), axis=(1, 2))
    states = []
    for k in range(n):
        bound = STEADY_RESIDUAL_RTOL * op.scale[k]
        if not generator_residual[k] <= bound:
            raise ConvergenceError(
                f"steady-state residual {generator_residual[k]:.3e} exceeds "
                f"{STEADY_RESIDUAL_RTOL:.0e} * scale = {bound:.3e}")
        krylov = KrylovStats(int(steps[k]), int(refine_steps[k]),
                             float(residual[k]), float(refine_residual[k]), op.dims)
        states.append(SteadyState(rho[k], krylov))
    return states


def steady_state(liouv: Liouvillian) -> SteadyState:
    """Stationary state of a dissipative Liouvillian: the batch of one of
    :func:`steady_states`, with its checks and errors."""
    return steady_states([liouv])[0]


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
    a = photon_op_on(space, site, "a")
    adag = a.getH()
    n_val = expectation(adag @ a, state).real
    num = expectation(adag @ adag @ a @ a, state).real
    return _g2_ratio(n_val, num)


@dataclass(frozen=True)
class ScanPoint:
    """The site-0 observables of one driven steady state."""

    xi: float
    omega_d: float
    a: complex            # ⟨a₀⟩
    abs_a: float          # |⟨a₀⟩|  (heterodyne transmission, arbitrary units)
    t_norm: float         # abs_a normalized to the maximum within the same ξ of a scan
    n_photon: float       # ⟨a₀†a₀⟩
    g2: float             # g²(0) on site 0, NaN below the photon floor
    krylov: KrylovStats   # the steady-state solve's Krylov steps and residuals


class DrivenLattice:
    """A lattice driven at the drive frequency ω_d and read at its output port,
    site 0: the one place that knows the rotating frame, the drive and the
    site-0 observables.

    ``params`` and ``space`` give the lattice Hamiltonian H of
    :func:`build_jchm`, ``rates`` the jumps, with the port rate κ on site 0.
    The drive ξ(a_m + a_m†) acts on every site m of ``driven_sites``.  In the
    frame rotating at ω_d the Hamiltonian H_rot = H - ω_d N + ξ X, with N the
    total polariton number and X = Σ_m (a_m + a_m†), is affine in (ω_d, ξ), so
    everything else is built once: the undriven generator of
    :func:`build_liouvillian`, which holds H and whose jump data every driven
    generator shares, N and X as dense d×d arrays, and the site-0
    observables.  A point then only adds three d×d arrays before its
    steady-state solve.  ``base`` is the undriven generator and ``a`` the
    sparse a₀.

    The site mirror π(i) = n - 1 - i is a symmetry of the model when π maps
    the site parameters and photon cutoffs, the edges with their J, and the
    set of driven sites to themselves, and κ = 0, since π moves the port site
    0 (the other rates are the same on every site).  Then every generator
    carries the permutation P of occupation states that π induces as its
    ``mirror``, and :func:`steady_states` solves it on P's even and odd
    blocks: 36 and 28 states in place of 64 for the driven dimer at
    n_max = 3.  Any other model, every single site among them, has one
    block.
    """

    def __init__(self, params: LatticeParams, space: LatticeSpace, rates: DissipationRates,
                 driven_sites: Sequence[int] = (0,)):
        self.base = build_liouvillian(build_jchm(params, space), rates, space,   # undriven
                                      _site_mirror(params, space, rates, driven_sites))
        self.n_tot = total_excitation(space).toarray()
        terms = [(1.0, (site_factor(space, m, op),))
                 for m in driven_sites for op in ("a", "a_dag")]
        self.x_drive = assemble(terms, occupation_basis(space)).toarray()
        self.a = photon_op_on(space, 0, "a")   # a₀
        a_dag = self.a.getH()
        # tr(Aρ) = Σ_ij (Aᵀ)_ij ρ_ij for A = a₀, a₀†a₀ and a₀†²a₀²
        self._a_t, self._n_t, self._num_t = (
            op.T.toarray() for op in (self.a, a_dag @ self.a, a_dag @ a_dag @ self.a @ self.a))

    def generator(self, xi: float, omega_d: float) -> Liouvillian:
        """The generator at drive (ξ, ω_d), in the frame rotating at ω_d, with
        the site mirror of the model if it has one."""
        return self.base.with_hamiltonian(self.base.h_rot - omega_d * self.n_tot
                                          + xi * self.x_drive)

    def point(self, xi: float, omega_d: float, state: SteadyState) -> ScanPoint:
        """The site-0 observables of ``state``, the steady state at (ξ, ω_d)."""
        rho = state.rho
        a = np.sum(self._a_t * rho)
        n_val = float(np.sum(self._n_t * rho).real)
        return ScanPoint(xi=xi, omega_d=omega_d, a=complex(a), abs_a=float(np.abs(a)),
                         t_norm=0.0, n_photon=n_val,
                         g2=_g2_ratio(n_val, float(np.sum(self._num_t * rho).real)),
                         krylov=state.krylov)

    def points(self, xi: float, omegas: Sequence[float]) -> list[ScanPoint]:
        """The points at drive amplitude ξ and the drive frequencies ``omegas``,
        solved as one batch of :func:`steady_states`."""
        states = steady_states([self.generator(xi, w) for w in omegas])
        return [self.point(xi, w, state) for w, state in zip(omegas, states)]


def _site_mirror(params: LatticeParams, space: LatticeSpace, rates: DissipationRates,
                 driven_sites: Sequence[int]) -> np.ndarray | None:
    """The permutation of occupation states that the site mirror
    π(i) = n - 1 - i induces, if π is a symmetry of the driven model (see
    :class:`DrivenLattice`); None if it is not, or if n = 1.

    With site 0 slowest, state (s₀, …, s_{n-1}) goes to (s_{n-1}, …, s₀).
    """
    n = params.n_sites
    symmetric = (n > 1 and rates.kappa == 0
                 and params.site_params == params.site_params[::-1]
                 and space.sites == space.sites[::-1]
                 and {(n - 1 - j, n - 1 - i, J) for i, j, J in params.edges} == set(params.edges)
                 and {n - 1 - m for m in driven_sites} == set(driven_sites))
    if not symmetric:
        return None
    return np.arange(space.total_dim).reshape(space.site_dims).transpose().reshape(-1)


def _batches(values: Sequence[float], size: int) -> list[list[float]]:
    """``values`` cut into the fewest consecutive runs of at most ``size``,
    their lengths differing by one at most."""
    parts = -(-len(values) // size)
    bounds = [len(values) * i // parts for i in range(parts + 1)] if parts else [0]
    return [list(values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def transmission_scan(params: LatticeParams, space: LatticeSpace,
                      rates: DissipationRates, drive_amplitudes: Sequence[float],
                      omega_d_grid: Sequence[float],
                      max_workers: int = 1) -> list[ScanPoint]:
    """Steady-state transmission T ~ |⟨a₀⟩| over a (ξ, ω_d) grid.

    The drive ξ(a₀ + a₀†) acts on site 0, and every point reports the site-0
    observables of :meth:`DrivenLattice.point`.  One :class:`DrivenLattice`
    serves the scan, and a negative drive amplitude is refused before it is
    built.  The ω_d row of each ξ is cut into batches of at most
    ``STEADY_BATCH_ENTRIES`` / d² points, each solved by one call of
    :func:`steady_states`; with ``max_workers`` > 1 a process pool solves
    whole batches.  The batches do not depend on ``max_workers``, so neither
    do the results, which keep the grid order.
    """
    if any(xi < 0 for xi in drive_amplitudes):
        raise ValueError("drive amplitude xi must be non-negative")
    model = DrivenLattice(params, space, rates)
    size = max(1, STEADY_BATCH_ENTRIES // space.total_dim ** 2)
    row = _batches([float(w) for w in omega_d_grid], size)
    xis = [float(xi) for xi in drive_amplitudes for _ in row]
    omegas = [batch for _ in drive_amplitudes for batch in row]
    if max_workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            solved = list(pool.map(model.points, xis, omegas))
    else:
        solved = [model.points(xi, batch) for xi, batch in zip(xis, omegas)]
    points = [p for batch in solved for p in batch]

    # per-amplitude normalized column
    out: list[ScanPoint] = []
    n_w = len(omega_d_grid)
    for block in range(len(drive_amplitudes)):
        rows = points[block * n_w:(block + 1) * n_w]
        peak = max((r.abs_a for r in rows), default=0.0)
        out += [replace(r, t_norm=r.abs_a / peak if peak > 0 else 0.0) for r in rows]
    return out
