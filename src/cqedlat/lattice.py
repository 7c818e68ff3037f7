"""Jaynes-Cummings-Hubbard model on arbitrary graphs.

The lattice Hamiltonian is

    H = Σ_j [ω_r,j a†_j a_j + ω_q,j σ⁺_j σ⁻_j + g_j (a†_j σ⁻_j + a_j σ⁺_j)]
        + Σ_{(i,j)} J_ij (a†_i a_j + a†_j a_i),

with one hopping term per undirected edge.  J_ij may be negative (resonator
chains built from half-wavelength modes flip the sign).  In the rotating-wave
form the total polariton number N = Σ_j (a†a + σ⁺σ⁻)_j is conserved, which is
exploited by the sector-resolved exact diagonalization below: the N-excitation
block is assembled directly in the occupation basis, so large lattices never
materialize the full tensor-product space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .hilbert import LatticeSpace, annihilation, embed, photon_op_on
from .jc import JCParams, jc_hamiltonian

__all__ = [
    "LatticeParams",
    "ExcitationSector",
    "chain",
    "build_jchm",
    "sector_basis",
    "sector_hamiltonian",
    "sector_ground_energy",
    "photon_band_minimum",
    "band_resonant_chain",
    "measured_nonlinearity",
    "nonlinearity_closed_form",
    "parse_lattice",
    "serialize_lattice",
]

DENSE_SECTOR_LIMIT = 512  # above this the lowest eigenvalues come from ARPACK
EIGSH_TOL = 1e-10


@dataclass(frozen=True)
class LatticeParams:
    """Per-site JC parameters plus an undirected weighted edge list.

    Edges are stored as (i, j, J) with i < j; declaring both (i, j) and
    (j, i) is allowed only with equal J (the hopping term is Hermitian).
    """

    site_params: tuple[JCParams, ...]
    edges: tuple[tuple[int, int, float], ...] = ()
    boundary: str = "open"

    def __post_init__(self) -> None:
        if not self.site_params:
            raise ValueError("at least one site is required")
        if self.boundary not in ("open", "periodic"):
            raise ValueError(f"boundary must be 'open' or 'periodic', got {self.boundary!r}")
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


@dataclass(frozen=True)
class ExcitationSector:
    """Basis of the fixed-polariton-number subspace.

    Each basis configuration is a tuple of (n_photon, qubit) pairs, one per
    site, with Σ (n_photon + qubit) = N.  Configurations are lexicographically
    ordered so sector indices are reproducible.
    """

    N: int
    configs: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.configs)

    def index(self) -> dict[tuple[tuple[int, int], ...], int]:
        return {c: k for k, c in enumerate(self.configs)}


def chain(p: JCParams, n_sites: int, J: float, boundary: str = "open") -> LatticeParams:
    """Uniform 1D chain; the periodic variant adds the wrap-around bond.

    For n_sites = 2 the periodic chain keeps a single bond (a doubled edge
    would just rescale J).
    """
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    edges = [(i, i + 1, J) for i in range(n_sites - 1)]
    if boundary == "periodic" and n_sites > 2:
        edges.append((0, n_sites - 1, J))
    return LatticeParams(site_params=tuple(p for _ in range(n_sites)),
                         edges=tuple(edges), boundary=boundary)


def build_jchm(params: LatticeParams, space: LatticeSpace, rwa: bool = True) -> sp.csr_matrix:
    """Assemble the lattice Hamiltonian on the full tensor-product space."""
    if params.n_sites != space.n_sites:
        raise ValueError(f"parameter set has {params.n_sites} sites, space has {space.n_sites}")
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


def sector_basis(space: LatticeSpace, N: int) -> ExcitationSector:
    """All occupation configurations with total polariton number N."""
    if N < 0:
        raise ValueError(f"excitation number must be >= 0, got {N}")
    max_n = sum(s.photon_cutoff + 1 for s in space.sites)
    if N > max_n:
        raise ValueError(f"N = {N} exceeds the maximum representable {max_n}")
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
    return ExcitationSector(N=N, configs=tuple(configs))


def sector_hamiltonian(params: LatticeParams, space: LatticeSpace, N: int) -> tuple[sp.csr_matrix, ExcitationSector]:
    """Hamiltonian block restricted to the N-excitation sector.

    Matrix elements are generated directly from the occupation configurations,
    independently of the full-space builder; the two routes are cross-checked
    in the test suite.
    """
    sector = sector_basis(space, N)
    idx = sector.index()
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []

    for k, config in enumerate(sector.configs):
        diag = 0.0
        for (n_ph, q), p in zip(config, params.site_params):
            diag += p.omega_r * n_ph + p.omega_q * q
        rows.append(k)
        cols.append(k)
        vals.append(diag)

        # qubit-photon exchange, both directed processes set H[target, source]
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

        # photon hopping, one directed move per (edge, direction)
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

    h = sp.coo_matrix((vals, (rows, cols)), shape=(sector.dim, sector.dim)).tocsr()
    return h, sector


def sector_ground_energy(params: LatticeParams, space: LatticeSpace, N: int) -> float:
    """Lowest eigenvalue of the N-excitation block."""
    h, sector = sector_hamiltonian(params, space, N)
    if sector.dim == 1:
        return float(h[0, 0].real)
    if sector.dim <= DENSE_SECTOR_LIMIT:
        return float(np.linalg.eigvalsh(h.toarray())[0])
    vals = spla.eigsh(h, k=1, which="SA", tol=EIGSH_TOL, return_eigenvectors=False)
    return float(vals[0])


# ---------------------------------------------------------------------------
# finite-size nonlinearity of periodic chains

def photon_band_minimum(params: LatticeParams) -> float:
    """Bottom of the bare photon band: lowest eigenvalue of the one-photon
    hopping matrix (ω_r,i on the diagonal, J_ij off-diagonal).

    Computing the minimum instead of assuming ω_r - J or ω_r - 2J keeps the
    result correct for either sign of J and any coordination.
    """
    n = params.n_sites
    m = np.zeros((n, n))
    for i, p in enumerate(params.site_params):
        m[i, i] = p.omega_r
    for (i, j, J) in params.edges:
        m[i, j] += J
        m[j, i] += J
    return float(np.linalg.eigvalsh(m)[0])


def band_resonant_chain(omega_r: float, g: float, J: float, n_sites: int,
                        boundary: str = "periodic") -> LatticeParams:
    """Uniform chain with every qubit tuned to the bottom of the photon band."""
    probe = chain(JCParams(omega_r=omega_r, omega_q=omega_r, g=g), n_sites, J, boundary)
    omega_q = photon_band_minimum(probe)
    if omega_q <= 0:
        raise ValueError(
            f"photon band minimum {omega_q} is not positive; increase omega_r relative to |J|")
    return chain(JCParams(omega_r=omega_r, omega_q=omega_q, g=g), n_sites, J, boundary)


def measured_nonlinearity(params: LatticeParams, space: LatticeSpace) -> float:
    """Two-excitation gap U = (E₀(2) - E₀(1)) - (E₀(1) - E₀(0)) from sector
    ground energies."""
    if any(s.photon_cutoff < 2 for s in space.sites):
        raise ValueError("photon cutoff must be >= 2 to resolve the two-excitation sector")
    e0 = sector_ground_energy(params, space, 0)
    e1 = sector_ground_energy(params, space, 1)
    e2 = sector_ground_energy(params, space, 2)
    return (e2 - e1) - (e1 - e0)


def nonlinearity_closed_form(g: float, n_sites: int) -> float:
    """Leading-order blockade nonlinearity of a band-resonant periodic chain,
    U(N_s) = 2g(1 - sqrt(1 - 1/(2 N_s))); exact single-site limit g(2 - √2)."""
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    return 2.0 * g * (1.0 - np.sqrt(1.0 - 1.0 / (2.0 * n_sites)))


# ---------------------------------------------------------------------------
# lattice description files
#
# Line grammar (see docs/lattice_grammar.ebnf):
#   SITE <index> <omega_r> <omega_q> <g>
#   EDGE <i> <j> <J>
# '#' starts a comment, tokens are whitespace-separated.  Site indices must
# form the contiguous range 0..N-1.

class LatticeFileError(ValueError):
    """Raised on malformed lattice description files; carries (line, message) pairs."""

    def __init__(self, errors: list[tuple[int, str]]):
        self.errors = errors
        super().__init__("; ".join(f"line {ln}: {msg}" for ln, msg in errors))


def parse_lattice(text: str) -> LatticeParams:
    sites: dict[int, JCParams] = {}
    edges: list[tuple[int, int, float]] = []
    errors: list[tuple[int, str]] = []

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        kind = tok[0].upper()
        try:
            if kind == "SITE":
                if len(tok) != 5:
                    raise ValueError("SITE expects: SITE <index> <omega_r> <omega_q> <g>")
                i = int(tok[1])
                if i in sites:
                    raise ValueError(f"site {i} declared twice")
                sites[i] = JCParams(omega_r=float(tok[2]), omega_q=float(tok[3]), g=float(tok[4]))
            elif kind == "EDGE":
                if len(tok) != 4:
                    raise ValueError("EDGE expects: EDGE <i> <j> <J>")
                edges.append((int(tok[1]), int(tok[2]), float(tok[3])))
            else:
                raise ValueError(f"unknown directive {tok[0]!r}")
        except ValueError as exc:
            errors.append((ln, str(exc)))

    if not errors:
        if not sites:
            errors.append((0, "no SITE lines found"))
        elif sorted(sites) != list(range(len(sites))):
            errors.append((0, f"site indices {sorted(sites)} are not contiguous from 0"))
    if errors:
        raise LatticeFileError(errors)
    params = tuple(sites[i] for i in range(len(sites)))
    try:
        return LatticeParams(site_params=params, edges=tuple(edges))
    except ValueError as exc:
        raise LatticeFileError([(0, str(exc))]) from exc


def serialize_lattice(params: LatticeParams) -> str:
    lines = []
    for i, p in enumerate(params.site_params):
        lines.append(f"SITE {i} {p.omega_r!r} {p.omega_q!r} {p.g!r}")
    for (i, j, J) in params.edges:
        lines.append(f"EDGE {i} {j} {J!r}")
    return "\n".join(lines) + "\n"
