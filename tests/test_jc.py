import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cqedlat.hilbert import SiteSpace, total_excitation, LatticeSpace
from cqedlat.jc import JCParams, chi, jc_hamiltonian, mixing_angle, polariton_energy

SQRT2 = np.sqrt(2.0)


def hubbard_u(p: JCParams, branch: str) -> float:
    """On-site nonlinearity U = ε_2 - 2ε_1 (ε_0 = 0) of one dressed branch."""
    return polariton_energy(p, 2, branch) - 2 * polariton_energy(p, 1, branch)


class TestParams:
    def test_delta_sign_convention(self):
        assert JCParams(1.2, 1.0, 0.1).delta == pytest.approx(0.2)

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            JCParams(1.0, 1.0, -0.1)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            JCParams(0.0, 1.0, 0.1)


class TestHamiltonian:
    def test_uncoupled_spectrum_is_additive(self):
        p = JCParams(1.0, 0.7, 0.0)
        space = SiteSpace(3)
        evals = np.linalg.eigvalsh(jc_hamiltonian(p, space).toarray())
        expected = sorted(1.0 * n + 0.7 * m for n in range(4) for m in (0, 1))
        assert np.allclose(evals, expected, atol=1e-14)

    def test_resonant_doublet_at_pm_g(self):
        p = JCParams(1.0, 1.0, 0.05)
        evals = np.linalg.eigvalsh(jc_hamiltonian(p, SiteSpace(4)).toarray())
        nonzero = evals[np.abs(evals) > 1e-12]
        assert nonzero[0] == pytest.approx(1.0 - 0.05, abs=1e-12)
        assert nonzero[1] == pytest.approx(1.0 + 0.05, abs=1e-12)

    @pytest.mark.parametrize("g_rel", [0.001, 0.01, 0.1])
    @pytest.mark.parametrize("delta_over_g", [-10.0, -1.0, 0.0, 2.5, 9.0])
    def test_spectrum_matches_closed_form(self, g_rel, delta_over_g):
        # delta/g = +10 at g/omega_r = 0.1 would push omega_q to zero
        g = g_rel
        p = JCParams(1.0, 1.0 - delta_over_g * g, g)
        space = SiteSpace(6)
        evals = np.linalg.eigvalsh(jc_hamiltonian(p, space).toarray())
        for n in range(1, space.photon_cutoff):
            for branch in ("+", "-"):
                e = polariton_energy(p, n, branch)
                assert np.min(np.abs(evals - e)) <= 1e-10 * max(1.0, abs(e))

    def test_rwa_conserves_total_excitation_exactly(self):
        p = JCParams(1.0, 0.9, 0.08)
        space = SiteSpace(4)
        h = jc_hamiltonian(p, space, rwa=True)
        n = total_excitation(LatticeSpace((space,)))
        assert (h @ n - n @ h).nnz == 0

    def test_counter_rotating_terms_break_conservation(self):
        p = JCParams(1.0, 0.9, 0.08)
        space = SiteSpace(4)
        h = jc_hamiltonian(p, space, rwa=False)
        n = total_excitation(LatticeSpace((space,)))
        comm = h @ n - n @ h
        assert abs(comm).max() > 1e-3


class TestPolaritonEnergies:
    def test_first_doublet_on_resonance(self):
        p = JCParams(1.0, 1.0, 0.05)
        assert polariton_energy(p, 1, "+") == pytest.approx(1.05, abs=1e-15)
        assert polariton_energy(p, 1, "-") == pytest.approx(0.95, abs=1e-15)

    def test_second_rung_on_resonance(self):
        p = JCParams(1.0, 1.0, 0.05)
        assert polariton_energy(p, 2, "+") == pytest.approx(2 + 0.05 * SQRT2, abs=1e-15)
        assert polariton_energy(p, 2, "-") == pytest.approx(2 - 0.05 * SQRT2, abs=1e-15)

    def test_ground_state_energy_zero(self):
        p = JCParams(1.0, 0.8, 0.1)
        assert polariton_energy(p, 0, "-") == 0.0

    def test_decoupled_limit_lower_branch_is_qubit_like(self):
        # symbolic limit oracle: chi_n -> delta/2 as g -> 0 (delta > 0), so
        # eps_n^- -> n*omega_r - delta
        delta = 0.3
        p = JCParams(1.0, 1.0 - delta, 0.0)
        for n in (1, 2, 3):
            assert polariton_energy(p, n, "-") == pytest.approx(n * 1.0 - delta, abs=1e-14)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            polariton_energy(JCParams(1.0, 1.0, 0.1), -1, "+")

    def test_branch_ordering(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = 10 ** rng.uniform(-3, -1)
            delta = rng.uniform(-10, 10) * g
            p = JCParams(1.0, 1.0 - delta, g)
            for n in (1, 2, 5):
                assert polariton_energy(p, n, "+") >= polariton_energy(p, n, "-")

    def test_branches_degenerate_only_without_coupling_on_resonance(self):
        p = JCParams(1.0, 1.0, 0.0)
        assert polariton_energy(p, 1, "+") == polariton_energy(p, 1, "-")
        p = JCParams(1.0, 1.0, 1e-8)
        assert polariton_energy(p, 1, "+") > polariton_energy(p, 1, "-")

    def test_rabi_splitting_is_two_chi(self):
        p = JCParams(1.0, 0.9, 0.04)
        splitting = polariton_energy(p, 3, "+") - polariton_energy(p, 3, "-")
        assert splitting == pytest.approx(2 * chi(p, 3), abs=1e-14)

    def test_mixing_angle_range(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            g = 10 ** rng.uniform(-3, -1)
            delta = rng.uniform(-10, 10) * g
            p = JCParams(1.0, 1.0 - delta, g)
            th = mixing_angle(p, int(rng.integers(1, 6)))
            assert 0 <= th <= np.pi / 2


class TestDressedStates:
    def test_equal_weights_on_resonance(self):
        p = JCParams(1.0, 1.0, 0.05)
        space = SiteSpace(4)
        v = oracles.dressed_state(p, 2, "+", space)
        weights = np.abs(v[np.abs(v) > 1e-12])
        assert np.allclose(weights, 1 / SQRT2, atol=1e-12)

    @pytest.mark.parametrize("delta", [0.3, -0.3])
    @pytest.mark.parametrize("branch", ["+", "-"])
    def test_matches_numeric_eigenvector_at_small_g(self, delta, branch):
        # the weak-coupling limit resolves the branch-content question: the
        # numeric eigenvectors at g = 1e-6 are the arbiter
        p = JCParams(1.0, 1.0 - delta, 1e-6)
        space = SiteSpace(4)
        evals, evecs = np.linalg.eigh(jc_hamiltonian(p, space).toarray())
        for n in (1, 2):
            e = polariton_energy(p, n, branch)
            k = int(np.argmin(np.abs(evals - e)))
            overlap = abs(np.vdot(evecs[:, k], oracles.dressed_state(p, n, branch, space)))
            assert overlap >= 1 - 1e-10

    def test_orthonormality(self):
        p = JCParams(1.0, 0.93, 0.07)
        space = SiteSpace(5)
        for n in (1, 2, 3):
            vp = oracles.dressed_state(p, n, "+", space)
            vm = oracles.dressed_state(p, n, "-", space)
            assert np.linalg.norm(vp) == pytest.approx(1.0, abs=1e-14)
            assert np.vdot(vp, vm) == pytest.approx(0.0, abs=1e-14)

    def test_cutoff_guard(self):
        with pytest.raises(ValueError, match="cutoff"):
            oracles.dressed_state(JCParams(1.0, 1.0, 0.1), 5, "+", SiteSpace(4))


class TestClosedFormProperties:
    @settings(max_examples=40)
    @given(st.floats(0.5, 1.5), st.floats(0.5, 1.5), st.floats(0.0, 0.3), st.integers(2, 8))
    def test_dressed_levels_are_eigenpairs_of_the_hamiltonian(self, omega_r, omega_q, g, n_max):
        p = JCParams(omega_r, omega_q, g)
        space = SiteSpace(n_max)
        h = jc_hamiltonian(p, space).toarray()
        evals = np.linalg.eigvalsh(h)
        for n in range(1, n_max + 1):
            for branch in ("+", "-"):
                e = polariton_energy(p, n, branch)
                assert np.min(np.abs(evals - e)) <= 1e-12
                v = oracles.dressed_state(p, n, branch, space)
                assert np.linalg.norm(h @ v - e * v) <= 1e-12


class TestHubbardU:
    def test_resonant_value_closed_form(self):
        g = 0.37
        p = JCParams(1.0, 1.0, g)
        assert hubbard_u(p, "-") == pytest.approx(g * (2 - SQRT2), abs=1e-12 * g)

    def test_vanishes_without_coupling(self):
        # linear photon ladder: follow the photon-like branch ('+' for
        # delta > 0, '-' for delta < 0, either on resonance)
        assert hubbard_u(JCParams(1.0, 0.8, 0.0), "+") == 0.0
        assert hubbard_u(JCParams(1.0, 1.2, 0.0), "-") == 0.0
        assert hubbard_u(JCParams(1.0, 1.0, 0.0), "-") == 0.0

    def test_dispersive_cubic_falloff(self):
        # photon-like branch for delta > 0 is '+'; |U| ~ 2 g^4 / delta^3
        g = 0.01
        deltas = np.array([20.0, 40.0, 80.0]) * g
        u = []
        for d in deltas:
            p = JCParams(1.0, 1.0 - d, g)
            u.append(abs(hubbard_u(p, "+")))
        slope = np.polyfit(np.log(deltas), np.log(u), 1)[0]
        assert slope == pytest.approx(-3.0, rel=0.05)

    def test_closed_form_equals_numeric_spectrum(self):
        p = JCParams(1.0, 0.97, 0.06)
        space = SiteSpace(6)
        evals = np.linalg.eigvalsh(jc_hamiltonian(p, space).toarray())
        for branch in ("+", "-"):
            e1 = polariton_energy(p, 1, branch)
            e2 = polariton_energy(p, 2, branch)
            n1 = evals[np.argmin(np.abs(evals - e1))]
            n2 = evals[np.argmin(np.abs(evals - e2))]
            u_numeric = (n2 - n1) - (n1 - 0.0)
            assert hubbard_u(p, branch) == pytest.approx(u_numeric, abs=1e-10)

