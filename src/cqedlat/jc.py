"""Single-site Jaynes-Cummings physics: the Hamiltonian and its dressed levels.

Conventions (ħ = 1, all frequencies angular):

* H = ω_r a†a + ω_q σ⁺σ⁻ + g(a†σ⁻ + aσ⁺), detuning δ = ω_r - ω_q,
* χ_n = sqrt(g²n + δ²/4), dressed energies ε_n± = ω_r n - δ/2 ± χ_n,
  ground state ε_0 = 0,
* mixing angle θ_n = atan2(2g√n, δ + 2χ_n) ∈ [0, π/2], continuous across
  δ sign changes.  With this definition the eigenvectors are
  |n,+⟩ = cos θ_n |n, g⟩ + sin θ_n |n-1, e⟩ and
  |n,−⟩ = sin θ_n |n, g⟩ − cos θ_n |n-1, e⟩, which reduce correctly to the
  photon-like / qubit-like product states in the g → 0 limit on either side
  of resonance.

``jc-spectrum`` tabulates ε_n±, χ_n and θ_n against the numeric spectrum of
:func:`jc_hamiltonian`; the mean-field lobes read the staircase ε_n⁻.  The
on-site nonlinearity U = ε_2 - 2ε_1 (g(2 - √2) on resonance) follows from
:func:`polariton_energy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import scipy.sparse as sp

from .hilbert import LatticeSpace, SiteSpace

__all__ = [
    "JCParams",
    "jc_hamiltonian",
    "chi",
    "mixing_angle",
    "polariton_energy",
]

@dataclass(frozen=True)
class JCParams:
    """Cavity frequency ω_r, qubit frequency ω_q and coupling g (ħ = 1)."""

    omega_r: float
    omega_q: float
    g: float

    def __post_init__(self) -> None:
        if self.omega_r <= 0 or self.omega_q <= 0:
            raise ValueError("omega_r and omega_q must be positive")
        if self.g < 0:
            raise ValueError("coupling g must be non-negative")

    @property
    def delta(self) -> float:
        """Detuning δ = ω_r - ω_q."""
        return self.omega_r - self.omega_q


def chi(p: JCParams, n: int) -> float:
    """Half Rabi splitting χ_n = sqrt(g²n + δ²/4)."""
    if n < 1:
        raise ValueError(f"chi is defined for n >= 1, got {n}")
    return math.sqrt(p.g * p.g * n + 0.25 * p.delta * p.delta)


def mixing_angle(p: JCParams, n: int) -> float:
    """θ_n = atan2(2g√n, δ + 2χ_n), in [0, π/2]; for δ < 0 taken as the equal
    atan2(2χ_n - δ, 2g√n), free of cancellation and π/2 (qubit-like) at g = 0."""
    x, y = 2.0 * p.g * math.sqrt(n), 2.0 * chi(p, n)
    return math.atan2(y - p.delta, x) if p.delta < 0 else math.atan2(x, p.delta + y)


def polariton_energy(p: JCParams, n: int, branch: str = "-") -> float:
    """Dressed energy ε_n± = ω_r n - δ/2 ± χ_n; ε_0 = 0 for n = 0."""
    if n < 0:
        raise ValueError(f"excitation number must be >= 0, got {n}")
    if n == 0:
        return 0.0
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    sign = 1.0 if branch == "+" else -1.0
    return p.omega_r * n - 0.5 * p.delta + sign * chi(p, n)


def jc_hamiltonian(p: JCParams, space: SiteSpace, rwa: bool = True) -> sp.csr_matrix:
    """Jaynes-Cummings Hamiltonian on one site.

    With ``rwa=True`` the excitation-conserving form
    ω_r a†a + ω_q σ⁺σ⁻ + g(a†σ⁻ + aσ⁺); with ``rwa=False`` the
    counter-rotating terms g(a†σ⁺ + aσ⁻) are added (Rabi form).  This is the
    single-site case of :func:`cqedlat.lattice.build_jchm`.
    """
    from .lattice import LatticeParams, build_jchm   # lattice imports JCParams from here
    return build_jchm(LatticeParams.single_site(p), LatticeSpace((space,)), rwa=rwa)
