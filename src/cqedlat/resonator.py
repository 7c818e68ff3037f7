"""Transmission-line-resonator normal modes, hopping amplitudes and port rates.

This is the only module working in SI units (henry/m, farad/m, meters,
seconds); everything else uses ħ = 1 frequency units.  A resonator of length
L_x with inductance ℓ and capacitance c per unit length, terminated by
coupling capacitors C∓, has mode functions solving

    ∂²_x Φ(x) = -ℓc ω² Φ(x),   ∓∂_x Φ|_{x∓} = ℓ C∓ ω² Φ|_{x∓},

i.e. Φ_μ(x) = A cos(k_μ x + φ_μ) on [0, L_x] with tan φ = χ₋ ω̄ from the left
boundary.  The dimensionless frequencies ω̄_μ = L_x sqrt(ℓc) ω_μ are the
positive roots of

    tan ω̄ = -(χ₋ + χ₊) ω̄ / (1 - χ₋ χ₊ ω̄²),      χ∓ = C∓ / (c L_x),

one per branch interval ((μ-1/2)π, (μ+1/2)π); the pole of the right-hand side
inside a branch is handled by sub-bracketing.  The amplitude A is fixed by the
capacitively weighted normalization

    C₋Φ²(0) + C₊Φ²(L_x) + c ∫ Φ²(x) dx = 1,

evaluated in closed form from the cosine (a numerical quadrature cross-check
lives in the tests).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ResonatorSpec",
    "Mode",
    "solve_modes",
    "hopping_amplitude",
    "port_rate",
]

ROOT_RTOL = 1e-12
NORMALIZATION_ATOL = 1e-8
CAPACITIVE_COUPLING_WARN_RATIO = 0.1


@dataclass(frozen=True)
class ResonatorSpec:
    """Distributed resonator: ℓ, c per unit length, length L_x, end capacitors C∓."""

    ell: float      # inductance per unit length [H/m]
    c: float        # capacitance per unit length [F/m]
    L_x: float      # resonator length [m]
    C_minus: float = 0.0
    C_plus: float = 0.0

    def __post_init__(self) -> None:
        if self.ell <= 0 or self.c <= 0 or self.L_x <= 0:
            raise ValueError("ell, c and L_x must be positive")
        if self.C_minus < 0 or self.C_plus < 0:
            raise ValueError("end capacitances must be non-negative")

    @property
    def chi_minus(self) -> float:
        return self.C_minus / (self.c * self.L_x)

    @property
    def chi_plus(self) -> float:
        return self.C_plus / (self.c * self.L_x)


@dataclass(frozen=True)
class Mode:
    """Normal mode μ: Φ(x) = amplitude · cos(k x + phase) on [0, L_x]."""

    mu: int
    omega_bar: float     # L_x sqrt(ℓc) ω
    omega: float         # angular frequency [rad/s]
    k: float             # wave number ω̄ / L_x [1/m]
    phase: float
    amplitude: float
    spec: ResonatorSpec

    def value(self, x) -> np.ndarray:
        """Φ(x), vectorized over x."""
        return self.amplitude * np.cos(self.k * np.asarray(x, dtype=float) + self.phase)

    @property
    def left_value(self) -> float:
        return float(self.value(0.0))

    @property
    def right_value(self) -> float:
        return float(self.value(self.spec.L_x))

    def normalization_integral(self) -> float:
        """Closed-form value of C₋Φ²(0) + C₊Φ²(L) + c∫Φ²dx (should be 1)."""
        s = self.spec
        A, k, ph, L = self.amplitude, self.k, self.phase, s.L_x
        integral = 0.5 * L + (math.sin(2 * (k * L + ph)) - math.sin(2 * ph)) / (4 * k)
        return (s.C_minus * self.left_value ** 2 + s.C_plus * self.right_value ** 2
                + s.c * A * A * integral)


def _char(omega_bar: float, chi_m: float, chi_p: float) -> float:
    """tan ω̄ + (χ₋+χ₊) ω̄ / (1 - χ₋χ₊ ω̄²); roots are the mode frequencies."""
    denom = 1.0 - chi_m * chi_p * omega_bar * omega_bar
    return math.tan(omega_bar) + (chi_m + chi_p) * omega_bar / denom


def _branch_brackets(spec: ResonatorSpec, branch: int) -> list[tuple[float, float]]:
    """One sign-changing bracket per root of the characteristic equation inside
    ((b-1/2)π, (b+1/2)π).

    When the pole of the right-hand side, ω̄ = 1/sqrt(χ₋χ₊), falls inside the
    branch, each side of it is bracketed separately: the pole branch carries
    two roots, and above the pole the μ-th mode sits one tan-branch lower.
    """
    chi_m, chi_p = spec.chi_minus, spec.chi_plus
    eps = 1e-9 * math.pi
    # branch 0 is (0, π/2): heavy two-sided loading (χ₋ + χ₊ > 1) can pull
    # the fundamental below the first tan pole; ω̄ = 0 itself is excluded
    lo = max((branch - 0.5) * math.pi, 1e-9) + eps
    hi = (branch + 0.5) * math.pi - eps
    brackets = [(lo, hi)]
    if chi_m > 0 and chi_p > 0:
        pole = 1.0 / math.sqrt(chi_m * chi_p)
        if lo < pole < hi:
            brackets = [(lo, pole - eps), (pole + eps, hi)]
    return [(a, b) for a, b in brackets if _char(a, chi_m, chi_p) * _char(b, chi_m, chi_p) <= 0]


def solve_modes(spec: ResonatorSpec, count: int) -> list[Mode]:
    """First ``count`` normal modes, normalized per the capacitive weight.

    Uncoupled ends (χ∓ = 0) give ω̄_μ = μπ exactly; finite loading pulls every
    frequency down.  Mode index μ orders the full root sequence, which is not
    always one-per-tan-branch (see :func:`_branch_brackets`).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    modes: list[Mode] = []
    sqrt_lc = math.sqrt(spec.ell * spec.c)
    if spec.chi_minus == 0 and spec.chi_plus == 0:
        roots = [mu * math.pi for mu in range(1, count + 1)]
    else:
        from scipy.optimize import brentq

        f = lambda w: _char(w, spec.chi_minus, spec.chi_plus)
        roots = []
        branch = 0
        while len(roots) < count:
            roots.extend(brentq(f, a, b, rtol=ROOT_RTOL) for a, b in _branch_brackets(spec, branch))
            branch += 1
            if branch > 4 * count + 8:
                raise ValueError(
                    f"found only {len(roots)} roots while scanning {branch} branches "
                    f"(χ₋ = {spec.chi_minus}, χ₊ = {spec.chi_plus})")
        roots = sorted(roots)[:count]
    for mu, w in enumerate(roots, start=1):
        k = w / spec.L_x
        phase = math.atan(spec.chi_minus * w)
        # closed-form normalization: C₋cos²φ + C₊cos²(ω̄+φ) + cA²∫cos² = 1
        L = spec.L_x
        integral = 0.5 * L + (math.sin(2 * (k * L + phase)) - math.sin(2 * phase)) / (4 * k)
        weight = (spec.C_minus * math.cos(phase) ** 2
                  + spec.C_plus * math.cos(w + phase) ** 2
                  + spec.c * integral)
        amplitude = 1.0 / math.sqrt(weight)
        modes.append(Mode(mu=mu, omega_bar=w, omega=w / (L * sqrt_lc), k=k,
                          phase=phase, amplitude=amplitude, spec=spec))
    return modes


def hopping_amplitude(spec_n: ResonatorSpec, spec_np: ResonatorSpec, C_c: float,
                      mode_n: Mode, mode_np: Mode,
                      end_n: str = "right", end_np: str = "left") -> float:
    """Photon hopping J = (1/2) sqrt(ω_n ω_n') C_c Φ⁽ⁿ⁾ Φ⁽ⁿ'⁾ at the shared end.

    The sign follows from the end-point values of the mode functions: joining
    half-wavelength modes end-to-start gives J < 0, full-wavelength modes give
    J > 0.  Valid for C_c small against the total resonator capacitance; a
    warning is emitted above 10%.
    """
    if C_c < 0:
        raise ValueError("coupling capacitance must be non-negative")
    for spec, mode in ((spec_n, mode_n), (spec_np, mode_np)):
        if mode.spec != spec:
            raise ValueError("mode does not belong to the provided resonator spec")
        if abs(mode.normalization_integral() - 1.0) > NORMALIZATION_ATOL:
            raise ValueError(f"mode μ = {mode.mu} is not normalized")
    ratio = max(C_c / (spec_n.c * spec_n.L_x), C_c / (spec_np.c * spec_np.L_x))
    if ratio > CAPACITIVE_COUPLING_WARN_RATIO:
        warnings.warn(
            f"C_c is {ratio:.2f} of the total resonator capacitance; the "
            "nearest-neighbor hopping picture degrades", stacklevel=2)
    val_n = mode_n.right_value if end_n == "right" else mode_n.left_value
    val_np = mode_np.left_value if end_np == "left" else mode_np.right_value
    return 0.5 * math.sqrt(mode_n.omega * mode_np.omega) * C_c * val_n * val_np


def port_rate(Z0: float, C_o: float, omega_r: float) -> float:
    """Intended photon loss rate κ = 4 Z₀² C_o² ω_r³ of a capacitive output port."""
    if Z0 <= 0 or C_o <= 0 or omega_r <= 0:
        raise ValueError("port_rate inputs must be positive")
    return 4.0 * Z0 ** 2 * C_o ** 2 * omega_r ** 3
