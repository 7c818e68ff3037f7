"""Occupation bases and one term kernel for lattices of photon-qubit sites.

Every site carries a truncated Fock space (photon numbers 0..n_max) tensored
with a two-level qubit.  The basis ordering is fixed once and for all so that
test vectors are portable:

* within a site the photon index is the slow one, i.e. the site basis is
  ``|n_ph, q⟩`` with site state ``s = n_ph * 2 + q`` and ``q = 0`` the qubit
  ground state,
* across sites, site 0 is the slowest index, so the global index of a
  configuration ``(s_0, s_1, ..., s_{N-1})`` is
  ``((s_0 * d_1 + s_1) * d_2 + ...)``.

A basis (:func:`occupation_basis`) is a lexicographically sorted integer
array of site states, one row per configuration: every row for the full
space, so row k is global index k, or for an excitation sector the rows with
Σ(n + q) = N, enumerated site by site with pruning at N so that no full-space
array or index (which can exceed int64) is formed.  Every lattice operator
comes from one kernel, :func:`assemble`: a term is a coefficient times
single-site factors, each a map from a site state to at most one site state
with an amplitude.  The factors come from their closed forms on s = 2n + q
(:func:`site_factor`: a, a†, σ⁻, σ⁺, σ_z, the identity and their products on
one site; :func:`diagonal_factor`: any diagonal site function), so no sparse
matrix is built before :func:`assemble`.  A term is a vectorized gather over
the basis rows, and one term list gives the full-space operator or a sector
block depending only on the basis.

Operators are plain complex ``scipy.sparse`` CSR matrices; a Hamiltonian's
Hermiticity is checked once, where it enters the open-system engine (the
trace-preservation check of :class:`cqedlat.lindblad.Liouvillian`).  Density
matrices are dense.  Spaces and states are immutable after construction and
safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SiteSpace",
    "LatticeSpace",
    "DensityMatrix",
    "Factor",
    "Term",
    "occupation_basis",
    "site_factor",
    "diagonal_factor",
    "assemble",
    "photon_op_on",
    "total_excitation",
    "expectation",
    "cutoff_convergence",
]

# Construction-time consistency tolerances of DensityMatrix.
RHO_HERMITIAN_ATOL = 1e-10
RHO_TRACE_ATOL = 1e-8
RHO_EIGENVALUE_FLOOR = -1e-8
QUBIT_DIM = 2             # every site carries a two-level qubit
CUTOFF_STEP = 2           # photons added by the cutoff-convergence check


@dataclass(frozen=True)
class SiteSpace:
    """One lattice site: truncated photon mode tensored with a qubit."""

    photon_cutoff: int

    def __post_init__(self) -> None:
        if self.photon_cutoff < 1:
            raise ValueError(f"photon_cutoff must be >= 1, got {self.photon_cutoff}")

    @property
    def dim(self) -> int:
        return (self.photon_cutoff + 1) * QUBIT_DIM

    def basis_index(self, n_photon: int, qubit: int) -> int:
        """Linear index of |n_photon, qubit⟩ (photon slow, qubit fast)."""
        if not 0 <= n_photon <= self.photon_cutoff:
            raise ValueError(f"photon number {n_photon} outside 0..{self.photon_cutoff}")
        if qubit not in (0, 1):
            raise ValueError(f"qubit index must be 0 (ground) or 1 (excited), got {qubit}")
        return n_photon * QUBIT_DIM + qubit


@dataclass(frozen=True)
class LatticeSpace:
    """Ordered tensor product of site spaces, site 0 slowest."""

    sites: tuple[SiteSpace, ...]

    def __post_init__(self) -> None:
        if not self.sites:
            raise ValueError("LatticeSpace needs at least one site")
        object.__setattr__(self, "sites", tuple(self.sites))

    @classmethod
    def uniform(cls, n_sites: int, photon_cutoff: int) -> "LatticeSpace":
        return cls(tuple(SiteSpace(photon_cutoff) for _ in range(n_sites)))

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def site_dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.sites)

    @property
    def total_dim(self) -> int:
        return math.prod(self.site_dims)


class DensityMatrix:
    """Dense density matrix, validated at construction.

    Construction enforces Hermiticity to 1e-10, unit trace to 1e-8 and
    numerical positivity (smallest eigenvalue >= -1e-8).  Eigenvalues below
    the floor are reported through the exception, never clipped.
    """

    __slots__ = ("rho", "dim")

    def __init__(self, rho: np.ndarray):
        rho = np.asarray(rho, dtype=np.complex128)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {rho.shape}")
        herm_defect = np.max(np.abs(rho - rho.conj().T))
        if herm_defect > RHO_HERMITIAN_ATOL:
            raise ValueError(f"density matrix not Hermitian: max|ρ - ρ†| = {herm_defect:.3e}")
        tr = np.trace(rho)
        if abs(tr - 1.0) > RHO_TRACE_ATOL:
            raise ValueError(f"density matrix trace {tr:.12g} deviates from 1 by more than {RHO_TRACE_ATOL:.0e}")
        lam_min = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0])
        if lam_min < RHO_EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix has eigenvalue {lam_min:.3e} below {RHO_EIGENVALUE_FLOOR:.0e}")
        self.rho = rho
        self.dim = rho.shape[0]

    @classmethod
    def pure(cls, vector: np.ndarray) -> "DensityMatrix":
        v = np.asarray(vector, dtype=np.complex128).ravel()
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise ValueError("cannot build a state from the zero vector")
        v = v / nrm
        return cls(np.outer(v, v.conj()))

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


# ---------------------------------------------------------------------------
# occupation bases and the term kernel

# A factor (site, target, amp) sends site state s to target[s], -1 where it
# annihilates s, with amplitude amp[s]; a term is a coefficient times factors.
Factor = tuple[int, np.ndarray, np.ndarray]
Term = tuple[complex, Sequence[Factor]]

# The closed forms of the one-site factors: each sends the photon number n, or
# the qubit state q (0 = ground), to its image and amplitude; None is the
# identity.  An image outside the site annihilates the state.
PHOTON_OPS = {None: lambda n: (n, 1.0),
              "a": lambda n: (n - 1, math.sqrt(n)),            # a|n⟩ = √n |n-1⟩
              "a_dag": lambda n: (n + 1, math.sqrt(n + 1))}    # a†|n⟩ = √(n+1) |n+1⟩
QUBIT_OPS = {None: lambda q: (q, 1.0),
             "sigma_m": lambda q: (q - 1, 1.0),                # σ⁻ = |g⟩⟨e|
             "sigma_p": lambda q: (q + 1, 1.0),                # σ⁺ = |e⟩⟨g|
             "sigma_z": lambda q: (q, 2.0 * q - 1.0)}          # +1 on |e⟩


def occupation_basis(space: LatticeSpace, N: int | None = None) -> np.ndarray:
    """Site states of all configurations, or with ``N`` of those with Σ(n + q) = N,
    one row each in lexicographic order; partial sums are pruned at N site by site."""
    limit = sum(site.photon_cutoff + 1 for site in space.sites) if N is None else N
    states, load = np.zeros((1, 0), dtype=np.intp), np.zeros(1, dtype=np.intp)
    for site in space.sites:
        s = np.arange(site.dim)
        grown = load[:, None] + s // QUBIT_DIM + s % QUBIT_DIM
        row, col = np.nonzero(grown <= limit)
        states, load = np.column_stack((states[row], s[col])), grown[row, col]
    return states if N is None else states[load == N]


def site_factor(space: LatticeSpace, site_index: int, photon: str | None = None,
                qubit: str | None = None) -> Factor:
    """photon ⊗ qubit on one site, from the closed forms of ``PHOTON_OPS`` ("a",
    "a_dag") and ``QUBIT_OPS`` ("sigma_m", "sigma_p", "sigma_z"); None is the
    identity.  The amplitude is the photon amplitude times the qubit one, and a†
    drops the states at the photon cutoff.  Raises ``ValueError`` for another
    operator name or a site index out of range."""
    if not 0 <= site_index < space.n_sites:
        raise ValueError(f"site index {site_index} out of range for {space.n_sites} sites")
    if photon not in PHOTON_OPS or qubit not in QUBIT_OPS:
        raise ValueError(f"no closed form for photon {photon!r} ⊗ qubit {qubit!r}: photon is "
                         f"one of {list(PHOTON_OPS)}, qubit one of {list(QUBIT_OPS)}")
    cutoff = space.sites[site_index].photon_cutoff
    photon_images = [PHOTON_OPS[photon](n) for n in range(cutoff + 1)]
    qubit_images = [QUBIT_OPS[qubit](q) for q in range(QUBIT_DIM)]
    target = [n * QUBIT_DIM + q if 0 <= n <= cutoff and 0 <= q < QUBIT_DIM else -1
              for n, _ in photon_images for q, _ in qubit_images]
    amp = [amp_n * amp_q for _, amp_n in photon_images for _, amp_q in qubit_images]
    return site_index, np.array(target), np.array(amp)


def diagonal_factor(space: LatticeSpace, site_index: int,
                    f: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Factor:
    """Diagonal factor with entry f(n, q) on site state |n, q⟩ of one site: the
    closed form of any diagonal site operator, such as a†a (f = n) or the site
    energy ω_r n + ω_q q.  Raises ``ValueError`` for a site index out of range."""
    _, s, _ = site_factor(space, site_index)
    return site_index, s, f(*np.divmod(s, QUBIT_DIM))


def assemble(terms: Iterable[Term], basis: np.ndarray) -> sp.csr_matrix:
    """Σ coef · Π factors on the rows of ``basis``, as one CSR matrix.

    ``basis`` holds distinct rows of site states in lexicographic order, as from
    :func:`occupation_basis`.  A term is a vectorized gather over the rows: its
    factors act right to left on their site columns, annihilated rows drop out,
    and the amplitudes multiply in that order before the coefficient does.
    Diagonal entries accumulate term by term in list order; other target rows
    are located by one ``np.lexsort`` over the site columns of basis and target
    rows, each run of equal rows being one basis row.  Raises
    ``ValueError`` for a site index outside the basis or a term leaving it.
    """
    dim, n_sites = basis.shape
    diag = np.zeros(dim, dtype=np.complex128)        # the basis rows map to themselves
    sources, targets, values = [np.arange(dim)], [basis], [diag]
    for coef, factors in terms:
        rows, states, amp = np.arange(dim), basis, np.ones(dim)
        for site, target, factor_amp in reversed(factors):
            if not 0 <= site < n_sites:
                raise ValueError(f"site index {site} out of range for {n_sites} sites")
            s = target[states[:, site]]
            keep = s >= 0
            rows, states = rows[keep], states[keep]
            amp = amp[keep] * factor_amp[states[:, site]]
            states[:, site] = s[keep]
        value = coef * amp
        moved = (states != basis[rows]).any(axis=1)
        diag[rows[~moved]] += value[~moved]
        sources.append(rows[moved])
        targets.append(states[moved])
        values.append(value[moved])
    stacked = np.concatenate(targets)
    order = np.lexsort(stacked.T[::-1])              # site 0 is the primary key
    ordered = stacked[order]
    new_row = np.ones(len(order), dtype=bool)
    new_row[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    where = np.empty(len(order), dtype=np.intp)
    where[order] = np.cumsum(new_row) - 1
    if np.count_nonzero(new_row) > dim:
        raise ValueError("a term maps a basis configuration outside the basis")
    h = sp.csr_matrix((np.concatenate(values), (where, np.concatenate(sources))),
                      shape=(dim, dim))
    h.eliminate_zeros()
    return h


def photon_op_on(space: LatticeSpace, site_index: int, photon: str) -> sp.csr_matrix:
    """The photon operator ``photon`` ("a" or "a_dag") of :func:`site_factor` on one
    site, identity elsewhere and on the local qubit, on the full basis."""
    return assemble([(1.0, (site_factor(space, site_index, photon),))], occupation_basis(space))


def total_excitation(space: LatticeSpace) -> sp.csr_matrix:
    """Σ_n (a†a + σ⁺σ⁻)_n, the conserved polariton number of the RWA models."""
    terms = [(1.0, (diagonal_factor(space, i, lambda n, q: n + q),)) for i in range(space.n_sites)]
    return assemble(terms, occupation_basis(space))


def expectation(op: sp.spmatrix, state: DensityMatrix) -> complex:
    """tr(op ρ); real to 1e-10 when op is Hermitian and ρ is valid."""
    if op.shape != (state.dim, state.dim):
        raise ValueError(f"dimension mismatch: operator {op.shape}, state {state.dim}")
    # tr(Aρ) = Σ_ij A_ij ρ_ji; sparse row sweep avoids a dense product
    return complex((op.multiply(state.rho.T)).sum())


# ---------------------------------------------------------------------------
# cutoff convergence

def cutoff_convergence(observable: Callable[[int], complex], n_max: int, value: complex,
                       rtol: float = 1e-6) -> dict[str, float | bool | int]:
    """Compare ``value``, the observable already computed at ``n_max``, with
    ``observable(n_max + CUTOFF_STEP)``, as the summary entry
    ``{"rel_shift", "passed", "n_max", "n_max_ref"}``.

    The relative shift is |v(n_max+2) - v(n_max)| / max(|v(n_max+2)|, 1e-300);
    ``passed`` is True when it does not exceed ``rtol``.  An observable that
    is NaN at both cutoffs, such as a g²(0) below the photon floor, passes with
    a NaN shift; NaN at one cutoff only fails.  Physics modules expose this
    check so truncation error is always measurable.
    """
    reference = observable(n_max + CUTOFF_STEP)
    shift = abs(reference - value) / max(abs(reference), 1e-300)
    return {"rel_shift": float(shift),
            "passed": bool(shift <= rtol or (np.isnan(reference) and np.isnan(value))),
            "n_max": n_max, "n_max_ref": n_max + CUTOFF_STEP}
