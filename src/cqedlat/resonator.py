"""Transmission-line-resonator normal modes.

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
lives in the tests).  The ``modes`` command tabulates these modes.  Hopping
amplitudes J and port rates κ are not derived here: the lattice commands take
them as inputs in ħ = 1 units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ResonatorSpec",
    "Mode",
    "solve_modes",
]

ROOT_RTOL = 1e-12
ROOT_XTOL = 2e-12
ROOT_MAX_ITER = 100   # iterations of one Brent search, one evaluation each, before it fails


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


def _brent(f, a: float, b: float) -> float:
    """A root of f in the bracket [a, b], where f changes sign, by Brent's
    method (Brent, *Algorithms for Minimization without Derivatives*, 1973,
    ch. 4).

    The search keeps a best point x_cur, the previous one x_pre and the other
    end x_blk of a bracket, with |f(x_cur)| ≤ |f(x_blk)|.  It takes the secant
    or inverse quadratic step when it stays well inside the bracket and is less
    than half the step before last, and bisects otherwise.  It stops when
    f(x_cur) = 0 or the bracket half-width is below
    (``ROOT_XTOL`` + ``ROOT_RTOL``·|x_cur|)/2, the rule of
    ``scipy.optimize.brentq``; an end where f vanishes is returned as is.
    A bracket without a sign change is refused.
    """
    x_pre, x_cur = a, b
    f_pre, f_cur = f(a), f(b)
    if f_pre == 0:
        return a
    if f_cur == 0:
        return b
    if math.copysign(1.0, f_pre) == math.copysign(1.0, f_cur):
        raise ValueError(f"no sign change on [{a}, {b}]")
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(ROOT_MAX_ITER):
        if f_pre != 0 and f_cur != 0 and math.copysign(1.0, f_pre) != math.copysign(1.0, f_cur):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = (ROOT_XTOL + ROOT_RTOL * abs(x_cur)) / 2
        s_bis = (x_blk - x_cur) / 2
        if f_cur == 0 or abs(s_bis) < delta:
            return x_cur
        good = False
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:      # secant
                trial = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:                   # inverse quadratic interpolation
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                trial = (-f_cur * (f_blk * d_blk - f_pre * d_pre)
                         / (d_blk * d_pre * (f_blk - f_pre)))
            good = 2 * abs(trial) < min(abs(s_pre), 3 * abs(s_bis) - delta)
        s_pre, s_cur = (s_cur, trial) if good else (s_bis, s_bis)
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else (delta if s_bis > 0 else -delta)
        f_cur = f(x_cur)
    raise RuntimeError(f"Brent search on [{a}, {b}] did not converge in {ROOT_MAX_ITER} steps")


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
        f = lambda w: _char(w, spec.chi_minus, spec.chi_plus)
        roots = []
        branch = 0
        while len(roots) < count:
            roots.extend(_brent(f, a, b) for a, b in _branch_brackets(spec, branch))
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

