"""Jaynes-Cummings-Hubbard model on arbitrary graphs.

The lattice Hamiltonian is

    H = Σ_j [ω_r,j a†_j a_j + ω_q,j σ⁺_j σ⁻_j + g_j (a†_j σ⁻_j + a_j σ⁺_j)]
        + Σ_{(i,j)} J_ij (a†_i a_j + a†_j a_i),

with one hopping term per undirected edge.  J_ij may be negative (resonator
chains built from half-wavelength modes flip the sign).  In the rotating-wave
form the total polariton number N = Σ_j (a†a + σ⁺σ⁻)_j is conserved, which is
exploited by the sector-resolved exact diagonalization below.  The
Hamiltonian is written once, as the term list of :func:`jchm_terms`;
:func:`build_jchm` (and :func:`cqedlat.jc.jc_hamiltonian` for one site)
assembles it on the full occupation basis and :func:`sector_hamiltonian` on
the N-excitation basis, so large lattices never materialize the full space.
A sector block equals the matching full-space block entry for entry, the
hopping amplitudes being J·(√n_j·√(n_i + 1)) in both.

A lattice is built in code, from :class:`LatticeParams` or :func:`chain`;
no command reads one from a file, so there is no lattice file format.  A
sector is its basis array (:func:`sector_basis`): one row of site states
s = 2n + q per configuration, so ``len`` gives its dimension and
``np.divmod(states, 2)`` its (n_photon, qubit) pairs.  The commands reach this
module through ``sector-nonlinearity`` (sector ground energies of
band-resonant rings) and through the Hamiltonians of every open-system run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .hilbert import (
    LatticeSpace,
    Term,
    assemble,
    diagonal_factor,
    occupation_basis,
    site_factor,
)
from .jc import JCParams

__all__ = [
    "LatticeParams",
    "chain",
    "jchm_terms",
    "build_jchm",
    "sector_basis",
    "sector_hamiltonian",
    "sector_ground_energy",
    "photon_band_minimum",
    "band_degeneracy",
    "band_resonant_chain",
    "measured_nonlinearity",
    "nonlinearity_closed_form",
]

DENSE_SECTOR_LIMIT = 512  # above this the lowest eigenvalues come from ARPACK
EIGSH_TOL = 1e-10
BAND_DEGENERACY_RTOL = 1e-9   # band energies this close (relative) count as one level
# g couples a†σ⁻ + aσ⁺ and, without the rotating-wave approximation, also a†σ⁺ + aσ⁻
EXCHANGE = (("a_dag", "sigma_m"), ("a", "sigma_p"), ("a_dag", "sigma_p"), ("a", "sigma_m"))


@dataclass(frozen=True)
class LatticeParams:
    """Per-site JC parameters plus an undirected weighted edge list.

    Edges are stored as (i, j, J) with i < j; declaring both (i, j) and
    (j, i) is allowed only with equal J (the hopping term is Hermitian).  The
    edge list alone fixes the boundary: a periodic chain is one that carries
    the wrap-around edge.
    """

    site_params: tuple[JCParams, ...]
    edges: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self) -> None:
        if not self.site_params:
            raise ValueError("at least one site is required")
        n = len(self.site_params)
        seen: dict[tuple[int, int], float] = {}
        for (i, j, J) in self.edges:
            if i == j:
                raise ValueError(f"self-edge on site {i} is not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) references a site outside 0..{n - 1}")
            key = (min(i, j), max(i, j))
            if key in seen and seen[key] != J:
                raise ValueError(
                    f"asymmetric hopping on edge {key}: J = {seen[key]} vs {J}")
            seen[key] = J
        object.__setattr__(self, "site_params", tuple(self.site_params))
        object.__setattr__(self, "edges", tuple(
            (i, j, float(J)) for (i, j), J in sorted(seen.items())))

    @property
    def n_sites(self) -> int:
        return len(self.site_params)

    @classmethod
    def single_site(cls, p: JCParams) -> "LatticeParams":
        return cls(site_params=(p,))


def chain(p: JCParams, n_sites: int, J: float, boundary: str = "open") -> LatticeParams:
    """Uniform 1D chain; the periodic variant adds the wrap-around bond.

    For n_sites = 2 the periodic chain keeps a single bond (a doubled edge
    would just rescale J).
    """
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    if boundary not in ("open", "periodic"):
        raise ValueError(f"boundary must be 'open' or 'periodic', got {boundary!r}")
    edges = [(i, i + 1, J) for i in range(n_sites - 1)]
    if boundary == "periodic" and n_sites > 2:
        edges.append((0, n_sites - 1, J))
    return LatticeParams(site_params=tuple(p for _ in range(n_sites)), edges=tuple(edges))


def jchm_terms(params: LatticeParams, space: LatticeSpace, rwa: bool = True) -> list[Term]:
    """The lattice Hamiltonian as a term list for :func:`cqedlat.hilbert.assemble`,
    every factor from its closed form (:func:`cqedlat.hilbert.site_factor`).

    Each site's ω_r n + ω_q q is one diagonal factor, so a diagonal entry sums
    over sites in site order.  ``rwa=False`` adds g(a†σ⁺ + aσ⁻) on every site.
    """
    if params.n_sites != space.n_sites:
        raise ValueError(f"parameter set has {params.n_sites} sites, space has {space.n_sites}")
    terms: list[Term] = []
    for i, p in enumerate(params.site_params):
        terms.append((1.0, (diagonal_factor(space, i, lambda n, q: p.omega_r * n + p.omega_q * q),)))
        terms += [(p.g, (site_factor(space, i, *ops),)) for ops in EXCHANGE[:2 if rwa else 4]]
    a = [site_factor(space, i, "a") for i in range(space.n_sites)]
    a_dag = [site_factor(space, i, "a_dag") for i in range(space.n_sites)]
    for (i, j, J) in params.edges:
        terms += [(J, (a_dag[i], a[j])), (J, (a_dag[j], a[i]))]
    return terms


def build_jchm(params: LatticeParams, space: LatticeSpace, rwa: bool = True) -> sp.csr_matrix:
    """Assemble the lattice Hamiltonian on the full tensor-product space."""
    return assemble(jchm_terms(params, space, rwa), occupation_basis(space))


def sector_basis(space: LatticeSpace, N: int) -> np.ndarray:
    """Site states of all configurations with total polariton number N, one row
    each in lexicographic order (see :func:`cqedlat.hilbert.occupation_basis`)."""
    max_n = sum(s.photon_cutoff + 1 for s in space.sites)
    if not 0 <= N <= max_n:
        raise ValueError(f"N = {N} lies outside 0..{max_n}, the maximum representable")
    return occupation_basis(space, N)


def sector_hamiltonian(params: LatticeParams, space: LatticeSpace, N: int) -> sp.csr_matrix:
    """Hamiltonian block restricted to the N-excitation sector, in the row order of
    :func:`sector_basis`: the term list of :func:`build_jchm` assembled on the
    sector basis, never on the full space."""
    return assemble(jchm_terms(params, space), sector_basis(space, N))


def sector_ground_energy(params: LatticeParams, space: LatticeSpace, N: int) -> float:
    """Lowest eigenvalue of the N-excitation block."""
    return _lowest_eigenvalue(sector_hamiltonian(params, space, N))


def _lowest_eigenvalue(h: sp.csr_matrix) -> float:
    """Lowest eigenvalue of a Hermitian sector block: dense up to
    DENSE_SECTOR_LIMIT, ARPACK above."""
    if h.shape[0] <= DENSE_SECTOR_LIMIT:
        return float(np.linalg.eigvalsh(h.toarray())[0])
    vals = spla.eigsh(h, k=1, which="SA", tol=EIGSH_TOL, return_eigenvectors=False)
    return float(vals[0])


# ---------------------------------------------------------------------------
# finite-size nonlinearity of periodic chains

def _photon_band(params: LatticeParams) -> np.ndarray:
    """Eigenvalues of the one-photon hopping matrix (ω_r,i on the diagonal,
    J_ij off-diagonal), ascending."""
    m = np.diag([float(p.omega_r) for p in params.site_params])
    for (i, j, J) in params.edges:
        m[i, j] += J
        m[j, i] += J
    return np.linalg.eigvalsh(m)


def photon_band_minimum(params: LatticeParams) -> float:
    """Bottom of the bare photon band: lowest eigenvalue of the one-photon
    hopping matrix.

    Computing the minimum instead of assuming ω_r - J or ω_r - 2J keeps the
    result correct for either sign of J and any coordination.
    """
    return float(_photon_band(params)[0])


def band_degeneracy(params: LatticeParams) -> int:
    """Number of photon modes at the bottom of the band: the multiplicity of the
    lowest eigenvalue of the hopping matrix, to BAND_DEGENERACY_RTOL of its
    largest magnitude.  A ring with J > 0 and an odd number of sites has two."""
    band = _photon_band(params)
    return int(np.count_nonzero(band - band[0] <= BAND_DEGENERACY_RTOL * np.abs(band).max()))


def band_resonant_chain(omega_r: float, g: float, J: float, n_sites: int) -> LatticeParams:
    """Periodic uniform chain with every qubit tuned to the bottom of the photon band."""
    probe = chain(JCParams(omega_r=omega_r, omega_q=omega_r, g=g), n_sites, J, "periodic")
    omega_q = photon_band_minimum(probe)
    if omega_q <= 0:
        raise ValueError(
            f"photon band minimum {omega_q} is not positive; increase omega_r relative to |J|")
    return chain(JCParams(omega_r=omega_r, omega_q=omega_q, g=g), n_sites, J, "periodic")


def measured_nonlinearity(params: LatticeParams, space: LatticeSpace) -> float:
    """Two-excitation gap U = (E₀(2) - E₀(1)) - (E₀(1) - E₀(0)) from sector
    ground energies.

    The N = 1 and N = 2 blocks are assembled from one term list, and
    E₀(0) = 0 is the energy of the vacuum, the one state of the N = 0 sector
    of the rotating-wave Hamiltonian.
    """
    if any(s.photon_cutoff < 2 for s in space.sites):
        raise ValueError("photon cutoff must be >= 2 to resolve the two-excitation sector")
    terms = jchm_terms(params, space)
    e1, e2 = (_lowest_eigenvalue(assemble(terms, sector_basis(space, n))) for n in (1, 2))
    return (e2 - e1) - e1


def nonlinearity_closed_form(g: float, n_sites: int) -> float:
    """Leading-order blockade nonlinearity of a band-resonant periodic chain,
    U(N_s) = 2g(1 - sqrt(1 - 1/(2 N_s))); exact single-site limit g(2 - √2)."""
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    return 2.0 * g * (1.0 - np.sqrt(1.0 - 1.0 / (2.0 * n_sites)))

