"""Tensor-product operator algebra for lattices of photon-qubit sites.

Every site carries a truncated Fock space (photon numbers 0..n_max) tensored
with a two-level qubit.  The basis ordering is fixed once and for all so that
test vectors are portable:

* within a site the photon index is the slow one, i.e. the site basis is
  ``|n_ph, q⟩`` with linear index ``n_ph * 2 + q`` and ``q = 0`` the qubit
  ground state,
* across sites, site 0 is the slowest index, so the global index of a
  configuration ``(s_0, s_1, ..., s_{N-1})`` is
  ``((s_0 * d_1 + s_1) * d_2 + ...)``.

Operators are plain complex ``scipy.sparse`` CSR matrices; a Hamiltonian's
Hermiticity is checked once, where it enters the open-system engine (the
trace-preservation check of :class:`cqedlat.lindblad.Liouvillian`).  Density
matrices are dense.  Spaces and states are immutable after construction and
safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SiteSpace",
    "LatticeSpace",
    "DensityMatrix",
    "ConvergenceCheck",
    "annihilation",
    "number",
    "qubit_lower",
    "qubit_number",
    "sigma_z",
    "embed",
    "photon_op_on",
    "qubit_op_on",
    "total_excitation",
    "expectation",
    "cutoff_convergence",
]

# Construction-time consistency tolerances of DensityMatrix.
RHO_HERMITIAN_ATOL = 1e-10
RHO_TRACE_ATOL = 1e-8
RHO_EIGENVALUE_FLOOR = -1e-8


@dataclass(frozen=True)
class SiteSpace:
    """One lattice site: truncated photon mode tensored with a qubit."""

    photon_cutoff: int
    qubit_dim: int = 2

    def __post_init__(self) -> None:
        if self.photon_cutoff < 1:
            raise ValueError(f"photon_cutoff must be >= 1, got {self.photon_cutoff}")
        if self.qubit_dim != 2:
            raise ValueError(f"qubit_dim must be 2, got {self.qubit_dim}")

    @property
    def n_max(self) -> int:
        return self.photon_cutoff

    @property
    def dim(self) -> int:
        return (self.photon_cutoff + 1) * self.qubit_dim

    def basis_index(self, n_photon: int, qubit: int) -> int:
        """Linear index of |n_photon, qubit⟩ (photon slow, qubit fast)."""
        if not 0 <= n_photon <= self.photon_cutoff:
            raise ValueError(f"photon number {n_photon} outside 0..{self.photon_cutoff}")
        if qubit not in (0, 1):
            raise ValueError(f"qubit index must be 0 (ground) or 1 (excited), got {qubit}")
        return n_photon * self.qubit_dim + qubit


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
        return int(np.prod(self.site_dims))

    def basis_index(self, config: Sequence[tuple[int, int]]) -> int:
        """Global index of a product configuration [(n_photon, qubit), ...]."""
        if len(config) != self.n_sites:
            raise ValueError(f"expected {self.n_sites} site configurations, got {len(config)}")
        idx = 0
        for site, (n_ph, q) in zip(self.sites, config):
            idx = idx * site.dim + site.basis_index(n_ph, q)
        return idx


class DensityMatrix:
    """Dense density matrix, validated at construction.

    Construction enforces Hermiticity to 1e-10, unit trace to 1e-8 and
    numerical positivity (smallest eigenvalue >= -1e-8).  Eigenvalues below
    the floor are reported through the exception, never clipped.
    """

    __slots__ = ("rho", "dim")

    def __init__(self, rho: np.ndarray, check: bool = True):
        rho = np.asarray(rho, dtype=np.complex128)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {rho.shape}")
        if check:
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
    def vacuum(cls, space: LatticeSpace) -> "DensityMatrix":
        """All photons absent, all qubits in the ground state."""
        d = space.total_dim
        rho = np.zeros((d, d), dtype=np.complex128)
        rho[0, 0] = 1.0
        return cls(rho, check=False)

    @classmethod
    def pure(cls, vector: np.ndarray) -> "DensityMatrix":
        v = np.asarray(vector, dtype=np.complex128).ravel()
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise ValueError("cannot build a state from the zero vector")
        v = v / nrm
        return cls(np.outer(v, v.conj()), check=False)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh((self.rho + self.rho.conj().T) / 2.0)[0])

    def trace(self) -> complex:
        return complex(np.trace(self.rho))

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


# ---------------------------------------------------------------------------
# elementary operators

def _csr(m) -> sp.csr_matrix:
    return sp.csr_matrix(m, dtype=np.complex128)


def annihilation(space: SiteSpace) -> sp.csr_matrix:
    """Photon annihilation on the truncated Fock factor: a[k-1, k] = sqrt(k)."""
    n = space.photon_cutoff + 1
    return _csr(sp.diags(np.sqrt(np.arange(1, n)), offsets=1, shape=(n, n)))


def number(space: SiteSpace) -> sp.csr_matrix:
    """a†a on the Fock factor, as the exact diagonal 0, 1, ..., n_max."""
    n = space.photon_cutoff + 1
    return _csr(sp.diags(np.arange(n, dtype=float)))


def qubit_lower() -> sp.csr_matrix:
    """σ⁻ = |g⟩⟨e| in the (g, e) ordering used throughout."""
    return _csr(np.array([[0.0, 1.0], [0.0, 0.0]]))


def qubit_number() -> sp.csr_matrix:
    """Excited-state projector σ⁺σ⁻."""
    return _csr(np.diag([0.0, 1.0]))


def sigma_z() -> sp.csr_matrix:
    """σ_z = σ⁺σ⁻ - σ⁻σ⁺ with eigenvalue +1 on |e⟩."""
    return _csr(np.diag([-1.0, 1.0]))


def embed(op: sp.spmatrix, site_index: int, space: LatticeSpace) -> sp.csr_matrix:
    """Extend a site operator by identity on every other site.

    ``op`` must act on the full site space (dimension (n_max+1)*2); lift
    photon- and qubit-factor operators with :func:`photon_op_on` and
    :func:`qubit_op_on` instead.
    """
    if not 0 <= site_index < space.n_sites:
        raise ValueError(f"site index {site_index} out of range for {space.n_sites} sites")
    site = space.sites[site_index]
    if op.shape[0] != site.dim:
        raise ValueError(f"operator dim {op.shape[0]} does not match site dim {site.dim}")
    left = int(np.prod(space.site_dims[:site_index], initial=1))
    right = int(np.prod(space.site_dims[site_index + 1:], initial=1))
    m = _csr(op)
    if left > 1:
        m = sp.kron(sp.identity(left, format="csr"), m, format="csr")
    if right > 1:
        m = sp.kron(m, sp.identity(right, format="csr"), format="csr")
    return m


def photon_op_on(space: LatticeSpace, site_index: int, photon_op: sp.spmatrix) -> sp.csr_matrix:
    """Embed a photon-factor operator (identity on the local qubit)."""
    site = space.sites[site_index]
    return embed(sp.kron(photon_op, sp.identity(site.qubit_dim), format="csr"), site_index, space)


def qubit_op_on(space: LatticeSpace, site_index: int, qubit_op: sp.spmatrix) -> sp.csr_matrix:
    """Embed a qubit-factor operator (identity on the local photon mode)."""
    site = space.sites[site_index]
    return embed(sp.kron(sp.identity(site.photon_cutoff + 1), qubit_op, format="csr"),
                 site_index, space)


def total_excitation(space: LatticeSpace) -> sp.csr_matrix:
    """Σ_n (a†a + σ⁺σ⁻)_n, the conserved polariton number of the RWA models."""
    total = sp.csr_matrix((space.total_dim, space.total_dim), dtype=np.complex128)
    for i, site in enumerate(space.sites):
        total = total + photon_op_on(space, i, number(site))
        total = total + qubit_op_on(space, i, qubit_number())
    return total


def expectation(op: sp.spmatrix, state: DensityMatrix) -> complex:
    """tr(op ρ); real to 1e-10 when op is Hermitian and ρ is valid."""
    if op.shape != (state.dim, state.dim):
        raise ValueError(f"dimension mismatch: operator {op.shape}, state {state.dim}")
    # tr(Aρ) = Σ_ij A_ij ρ_ji; sparse row sweep avoids a dense product
    return complex((op.multiply(state.rho.T)).sum())


# ---------------------------------------------------------------------------
# cutoff convergence

@dataclass(frozen=True)
class ConvergenceCheck:
    """Outcome of repeating an observable at an enlarged photon cutoff."""

    value: complex
    reference: complex
    rel_shift: float
    rtol: float
    passed: bool
    n_max: int
    n_max_ref: int


def cutoff_convergence(observable: Callable[[int], complex], n_max: int, value: complex,
                       step: int = 2, rtol: float = 1e-6) -> ConvergenceCheck:
    """Compare ``value``, the observable already computed at ``n_max``, with
    ``observable(n_max + step)``.

    The relative shift is |v(n_max+step) - v(n_max)| / max(|v(n_max+step)|, 1e-300);
    ``passed`` is True when it does not exceed ``rtol``.  Physics modules expose
    this check so truncation error is always measurable.
    """
    reference = observable(n_max + step)
    shift = abs(reference - value) / max(abs(reference), 1e-300)
    return ConvergenceCheck(value=value, reference=reference, rel_shift=float(shift), rtol=rtol,
                            passed=bool(shift <= rtol), n_max=n_max, n_max_ref=n_max + step)
