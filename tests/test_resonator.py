import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from cqedlat import resonator
from cqedlat.resonator import (
    ROOT_RTOL,
    Mode,
    ResonatorSpec,
    _branch_brackets,
    _brent,
    _char,
    solve_modes,
)

ELL, CAP, LX = 4.1e-7, 1.7e-10, 0.01  # coplanar-waveguide-like numbers
CTOT = CAP * LX


def boundary_residuals(mode: Mode) -> tuple[float, float]:
    """Oracle: relative defect of ∓∂_xΦ|_{x∓} = ℓC∓ω²Φ|_{x∓} at both ends,
    from the derivative of the mode's cosine."""
    s = mode.spec
    dphi_left = -mode.amplitude * mode.k * math.sin(mode.phase)
    dphi_right = -mode.amplitude * mode.k * math.sin(mode.k * s.L_x + mode.phase)
    scale = abs(mode.amplitude * mode.k)
    left = (-dphi_left) - s.ell * s.C_minus * mode.omega ** 2 * mode.left_value
    right = dphi_right - s.ell * s.C_plus * mode.omega ** 2 * mode.right_value
    return abs(left) / scale, abs(right) / scale


def sign_scan_roots(chi_m, chi_p, w_max, n_grid=2_000_001):
    """Brute-force oracle: entire (pole-free) form of the characteristic
    equation, sin(w)(1 - χ₋χ₊w²) + cos(w)(χ₋+χ₊)w, on a fine grid with
    bisection refinement."""
    def entire(w):
        return math.sin(w) * (1 - chi_m * chi_p * w * w) + math.cos(w) * (chi_m + chi_p) * w

    grid = np.linspace(1e-9, w_max, n_grid)
    vals = (np.sin(grid) * (1 - chi_m * chi_p * grid**2)
            + np.cos(grid) * (chi_m + chi_p) * grid)
    roots = []
    for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
        lo, hi = grid[i], grid[i + 1]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if entire(lo) * entire(mid) <= 0:
                hi = mid
            else:
                lo = mid
        roots.append(0.5 * (lo + hi))
    return roots


class TestModeFrequencies:
    def test_uncoupled_roots_are_exact_multiples_of_pi(self):
        spec = ResonatorSpec(ELL, CAP, LX)
        for m in solve_modes(spec, 5):
            assert m.omega_bar == m.mu * math.pi

    def test_symmetric_loading_against_sign_scan_oracle(self):
        chi = 0.07
        spec = ResonatorSpec(ELL, CAP, LX, C_minus=chi * CTOT, C_plus=chi * CTOT)
        modes = solve_modes(spec, 5)
        oracle = sign_scan_roots(chi, chi, 5.6 * math.pi)
        assert len(oracle) >= 5
        for m, r in zip(modes, oracle):
            assert abs(m.omega_bar - r) <= 1e-10 * r

    def test_asymmetric_loading_against_oracle(self):
        spec = ResonatorSpec(ELL, CAP, LX, C_minus=0.12 * CTOT, C_plus=0.03 * CTOT)
        modes = solve_modes(spec, 4)
        oracle = sign_scan_roots(0.12, 0.03, 4.6 * math.pi)
        for m, r in zip(modes, oracle):
            assert abs(m.omega_bar - r) <= 1e-10 * r

    def test_root_structure_against_oracle(self):
        # below the pole 1/χ the branches ((μ-1/2)π, (μ+1/2)π) carry exactly
        # one root each; the pole branch carries two, and the solver must
        # return the globally sorted sequence without skips
        for chi in (0.05, 0.3, 0.9):
            pole = 1.0 / chi
            roots = sign_scan_roots(chi, chi, 6.5 * math.pi)
            for mu in (1, 2, 3, 4, 5):
                lo, hi = (mu - 0.5) * math.pi, (mu + 0.5) * math.pi
                inside = [r for r in roots if lo < r < hi]
                if hi < pole:
                    assert len(inside) == 1, (chi, mu, inside)
                elif lo < pole < hi:
                    assert len(inside) == 2, (chi, mu, inside)
            spec = ResonatorSpec(ELL, CAP, LX, C_minus=chi * CTOT, C_plus=chi * CTOT)
            solved = [m.omega_bar for m in solve_modes(spec, 6)]
            assert np.allclose(solved, roots[:6], rtol=1e-10)

    def test_heavy_loading_pushes_first_root_to_half_pi(self):
        spec = ResonatorSpec(ELL, CAP, LX, C_minus=1e3 * CTOT)
        m = solve_modes(spec, 1)[0]
        assert m.omega_bar == pytest.approx(math.pi / 2, rel=0.01)

    def test_loading_lowers_frequencies(self):
        prev = [m.omega_bar for m in solve_modes(ResonatorSpec(ELL, CAP, LX), 4)]
        for chi in (0.02, 0.08, 0.2):
            spec = ResonatorSpec(ELL, CAP, LX, C_minus=chi * CTOT, C_plus=chi * CTOT)
            now = [m.omega_bar for m in solve_modes(spec, 4)]
            assert all(b < a for a, b in zip(prev, now))
            prev = now

    def test_frequencies_increase_with_mode_index(self):
        spec = ResonatorSpec(ELL, CAP, LX, C_minus=0.07 * CTOT, C_plus=0.07 * CTOT)
        freqs = [m.omega_bar for m in solve_modes(spec, 6)]
        assert all(b > a for a, b in zip(freqs, freqs[1:]))


class TestNormalization:
    def test_closed_form_normalization(self):
        spec = ResonatorSpec(ELL, CAP, LX, C_minus=0.07 * CTOT, C_plus=0.07 * CTOT)
        for m in solve_modes(spec, 4):
            assert abs(m.normalization_integral() - 1.0) <= 1e-8

    def test_quadrature_cross_check(self):
        spec = ResonatorSpec(ELL, CAP, LX, C_minus=0.1 * CTOT, C_plus=0.05 * CTOT)
        m = solve_modes(spec, 2)[1]
        integral, _ = quad(lambda x: m.value(x) ** 2, 0.0, LX, limit=200)
        total = (spec.C_minus * m.left_value ** 2 + spec.C_plus * m.right_value ** 2
                 + spec.c * integral)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_richardson_grid_refinement(self):
        # trapezoid value of the weighted norm converges to the closed form
        spec = ResonatorSpec(ELL, CAP, LX, C_minus=0.07 * CTOT, C_plus=0.07 * CTOT)
        m = solve_modes(spec, 1)[0]

        def trapz_norm(n):
            x = np.linspace(0, LX, n)
            phi2 = m.value(x) ** 2
            return (spec.C_minus * phi2[0] + spec.C_plus * phi2[-1]
                    + spec.c * np.trapezoid(phi2, x))

        coarse, fine = trapz_norm(20001), trapz_norm(40001)
        assert abs(fine - coarse) < 1e-9

    def test_boundary_conditions(self):
        spec = ResonatorSpec(ELL, CAP, LX, C_minus=0.07 * CTOT, C_plus=0.11 * CTOT)
        for m in solve_modes(spec, 4):
            left, right = boundary_residuals(m)
            assert left <= 1e-8 and right <= 1e-8



class TestBrentSearch:
    @pytest.mark.parametrize("count", [20, 40])
    @pytest.mark.parametrize("chi_m, chi_p", [(0.07, 0.07), (0.9, 0.9), (0.12, 0.03), (1.5, 0.2)])
    def test_roots_match_brentq(self, chi_m, chi_p, count):
        # brentq on the same brackets; (0.9, 0.9) and (1.5, 0.2) put the pole
        # 1/sqrt(χ₋χ₊) inside a branch, which then carries two roots
        spec = ResonatorSpec(ELL, CAP, LX, C_minus=chi_m * CTOT, C_plus=chi_p * CTOT)
        chis = (spec.chi_minus, spec.chi_plus)
        oracle = sorted(brentq(_char, a, b, args=chis, rtol=ROOT_RTOL)
                        for branch in range(count + 2)
                        for a, b in _branch_brackets(spec, branch))[:count]
        modes = solve_modes(spec, count)
        assert len(modes) == len(oracle) == count
        for m, r in zip(modes, oracle):
            assert abs(m.omega_bar - r) <= 4 * ROOT_RTOL * r

    def test_bracket_without_sign_change_is_refused(self):
        with pytest.raises(ValueError, match="no sign change"):
            _brent(lambda x: x * x + 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("root", [0.3, 2.0])
    def test_exact_root_at_a_bracket_end_comes_back_exactly(self, root):
        assert _brent(lambda x: (x - root) * (x + 1.0), 0.3, 2.0) == root

    def test_search_that_runs_out_of_steps_raises(self, monkeypatch):
        monkeypatch.setattr(resonator, "ROOT_MAX_ITER", 3)
        with pytest.raises(RuntimeError, match="did not converge in 3 steps"):
            _brent(math.tan, 3.0, 3.5)
