import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import DOP853

import oracles

from cqedlat import meanfield
from cqedlat.hilbert import (
    DensityMatrix,
    LatticeSpace,
    SiteSpace,
    expectation,
    photon_op_on,
    total_excitation,
)
from cqedlat.jc import JCParams, polariton_energy
from cqedlat.lattice import LatticeParams, build_jchm
from cqedlat.lindblad import (
    DissipationRates,
    DrivenLattice,
    DriveSpec,
    Liouvillian,
    StiffnessError,
    build_liouvillian,
    g2_zero,
    steady_state,
)
from cqedlat.meanfield import (
    CAPTURE_CONTRACTIONS,
    PSI_FLOOR,
    TRANSIENT_ATOL,
    TRANSIENT_RTOL,
    MeanFieldConvergenceError,
    _coherent_site_state,
    _DrivenSite,
    driven_mf_steady,
    minimize_order_parameter,
    mott_window_analytic,
    phase_diagram,
)

G, WR = 1.0, 20.0
JC0 = JCParams(WR, WR, G)  # resonant site, energies in units of g
JC_DET = JCParams(WR, WR - 0.5 * G, G)  # delta = +0.5 g
# the N=1/N=2 crossing of the J = 0 staircase: a degenerate site ground state
MU_DEG = polariton_energy(JC0, 2, "-") - polariton_energy(JC0, 1, "-")


def site_x(space):
    """X = a + a† on one site, from the Kronecker-product oracle operators."""
    a = oracles.photon_op_on(LatticeSpace((space,)), 0, oracles.annihilation(space)).toarray()
    return a + a.conj().T


def ground_response(h, x):
    """E₀, ⟨0|X|0⟩ and χ = Σ_m |⟨m|X|0⟩|²/(E_m - E₀) of the Hermitian matrix h;
    χ = ∞ when the ground state is degenerate to roundoff."""
    vals, vecs = np.linalg.eigh(h)
    x_m0 = vecs.conj().T @ (x @ vecs[:, 0])
    gaps = vals[1:] - vals[0]
    if gaps[0] <= 1e-12 * np.max(np.abs(vals)):
        return vals[0], x_m0[0].real, np.inf
    return vals[0], x_m0[0].real, float(np.sum(np.abs(x_m0[1:]) ** 2 / gaps))


def susceptibility(jc, mu, space):
    """χ(μ) of the J = 0 site ground state, from the oracle operators."""
    lat = LatticeSpace((space,))
    h0 = (oracles.jc_hamiltonian(jc, space) - mu * oracles.total_excitation(lat)).toarray()
    return ground_response(h0, site_x(space))[2]


class TestLocalHamiltonian:
    def test_block_diagonal_at_zero_psi(self):
        space = SiteSpace(4)
        h = oracles.local_mf_hamiltonian(JC0, WR - 0.5, 0.1, 0.0, space).toarray()
        n = total_excitation(LatticeSpace((space,))).toarray()
        assert np.allclose(h @ n - n @ h, 0.0, atol=1e-12)

    def test_negative_zj_is_refused(self):
        with pytest.raises(ValueError, match=r"require J >= 0"):
            minimize_order_parameter(JC0, WR - 0.5, -0.1, SiteSpace(4))

    def test_psi_independent_at_zero_hopping(self):
        space = SiteSpace(3)
        h0 = oracles.local_mf_hamiltonian(JC0, WR - 0.5, 0.0, 0.0, space).toarray()
        h1 = oracles.local_mf_hamiltonian(JC0, WR - 0.5, 0.0, 0.7, space).toarray()
        assert np.allclose(h0, h1, atol=1e-14)

    def test_energy_even_in_real_psi(self):
        space = SiteSpace(5)
        p = (JC0, WR - 0.6, 0.08)
        for psi in (0.2, 0.9):
            e_plus = np.linalg.eigvalsh(oracles.local_mf_hamiltonian(*p, psi, space).toarray())[0]
            e_minus = np.linalg.eigvalsh(oracles.local_mf_hamiltonian(*p, -psi, space).toarray())[0]
            assert e_plus == pytest.approx(e_minus, abs=1e-12)

    def test_gauge_invariance_of_spectrum(self):
        # minimized energy must not depend on the phase of psi
        rng = np.random.default_rng(42)
        space = SiteSpace(5)
        for _ in range(3):
            mu = WR + G * rng.uniform(-0.9, -0.3)
            zj = G * rng.uniform(0.02, 0.3)
            p = (JC0, mu, zj)
            psi_mag = rng.uniform(0.1, 0.8)
            base = np.linalg.eigvalsh(oracles.local_mf_hamiltonian(*p, psi_mag, space).toarray())[0]
            for phi in np.linspace(0, 2 * np.pi, 7):
                h = oracles.local_mf_hamiltonian(*p, psi_mag * np.exp(1j * phi), space).toarray()
                assert np.linalg.eigvalsh(h)[0] == pytest.approx(base, abs=1e-11)


class TestMinimization:
    def test_deep_mott_has_zero_order_parameter(self):
        res = minimize_order_parameter(JC0, WR - 0.7 * G, 0.001 * G, SiteSpace(8))
        assert res.psi < 1e-6
        assert res.n_polariton == pytest.approx(1.0, abs=1e-6)

    def test_superfluid_at_large_hopping(self):
        # energy-comparison oracle: some sampled psi beats psi = 0
        space = SiteSpace(8)
        p = (JC0, WR - 0.7 * G, 0.5 * G)
        e0 = np.linalg.eigvalsh(oracles.local_mf_hamiltonian(*p, 0.0, space).toarray())[0]
        sampled = min(np.linalg.eigvalsh(oracles.local_mf_hamiltonian(*p, s, space).toarray())[0]
                      for s in np.linspace(0.05, 2.5, 40))
        assert sampled < e0 - 1e-6
        res = minimize_order_parameter(*p, space)
        assert res.psi > 0.1
        assert res.energy <= sampled + 1e-9

    def test_vacuum_lobe_below_first_polariton(self):
        res = minimize_order_parameter(JC0, WR - 1.5 * G, 0.001 * G, SiteSpace(6))
        assert res.psi < 1e-6
        assert res.n_polariton == pytest.approx(0.0, abs=1e-8)


class TestMottWindows:
    def test_analytic_n1_window_on_resonance(self):
        lo, hi = mott_window_analytic(JC0, 1)
        assert (lo - WR) / G == pytest.approx(-1.0, abs=1e-12)
        assert (hi - WR) / G == pytest.approx(-(np.sqrt(2) - 1), abs=1e-12)

    def test_numeric_matches_analytic(self):
        space = SiteSpace(8)
        for n in (1, 2, 3):
            lo_a, hi_a = mott_window_analytic(JC0, n)
            lo_n, hi_n = oracles.mott_window_numeric(JC0, n, space)
            assert lo_n == pytest.approx(lo_a, abs=1e-10)
            assert hi_n == pytest.approx(hi_a, abs=1e-10)

    def test_windows_shrink_with_n(self):
        widths = [np.subtract(*reversed(mott_window_analytic(JC0, n))) for n in (1, 2, 3)]
        assert widths[0] > widths[1] > widths[2] > 0

    def test_psi_zero_throughout_analytic_window(self):
        lo, hi = mott_window_analytic(JC0, 1)
        space = SiteSpace(6)
        for mu in np.linspace(lo + 0.02 * G, hi - 0.02 * G, 5):
            assert minimize_order_parameter(JC0, float(mu), 0.002 * G, space).psi < 1e-5


def lobe_edge(jc, mu, space):
    """zJ_c(μ) = 1/χ(μ) as ``phase_diagram`` reports it, from a single zJ = 0 cell."""
    cell, = phase_diagram(jc, np.array([mu]), np.array([0.0]), space)
    return cell.zj_critical


class TestLobeBoundary:
    def test_degenerate_ground_state_has_zero_lobe_edge(self):
        # at the N=1/N=2 degeneracy the lattice is superfluid for any zJ > 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lobe_edge(JC0, MU_DEG, SiteSpace(6)) == 0.0

    def test_boundary_stable_under_cutoff_doubling(self):
        mu = WR - 0.6 * G
        b1 = lobe_edge(JC0, mu, SiteSpace(6))
        b2 = lobe_edge(JC0, mu, SiteSpace(12))
        assert oracles.ZJ_RESOLUTION < b1 <= 0.4
        assert abs(b1 - b2) <= 1e-4

    def test_detuning_raises_n1_critical_hopping(self):
        mu0 = WR - 0.6 * G
        b_res = lobe_edge(JC0, mu0, SiteSpace(6))
        lo, hi = mott_window_analytic(JC_DET, 1)
        b_det = lobe_edge(JC_DET, 0.5 * (lo + hi), SiteSpace(6))
        assert oracles.ZJ_RESOLUTION < b_res <= 0.6 and b_det <= 0.8
        assert b_det > b_res

    @pytest.mark.parametrize("jc, mu, n_max, zj_max", [
        (JC0, WR - 0.6 * G, 6, 0.4),
        (JC0, WR - 0.6 * G, 12, 0.4),
        (JC_DET, 0.5 * sum(mott_window_analytic(JC_DET, 1)), 6, 0.8),
        (JCParams(WR, WR + 0.7 * G, G), WR - 0.3 * G, 6, 0.8),
    ], ids=["resonant", "resonant_n12", "detuned_mid_window", "qubit_above_cavity"])
    def test_closed_form_matches_bisection_oracle(self, jc, mu, n_max, zj_max):
        space = SiteSpace(n_max)
        closed = lobe_edge(jc, mu, space)
        assert oracles.ZJ_RESOLUTION < closed <= zj_max
        assert abs(closed - oracles.bisect_lobe_boundary(jc, mu, space, zj_max)) <= oracles.ZJ_RESOLUTION


class TestPhaseDiagram:
    def test_mott_cells_have_integer_filling(self):
        cells = phase_diagram(JC0, np.array([WR - 0.7 * G]),
                              G * np.linspace(0.01, 0.3, 8), SiteSpace(8))
        motts = [c for c in cells if c.phase.startswith("Mott")]
        sfs = [c for c in cells if c.phase == "SF"]
        assert motts and sfs
        for c in motts:
            assert abs(c.n_polariton - round(c.n_polariton)) <= 1e-6
            assert c.psi <= 1e-5

    def test_degenerate_ground_state_is_superfluid_at_any_hopping(self):
        # zJ_c = 1/χ = 0 there: no Mott cell, and no division warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = phase_diagram(JC0, np.array([MU_DEG]), G * np.array([1e-3, 0.05, 0.3]),
                                  SiteSpace(6))
        assert [c.phase for c in cells] == ["SF"] * 3
        assert all(c.zj_critical == 0.0 and c.psi > PSI_FLOOR for c in cells)

    def test_negative_hopping_is_refused(self):
        with pytest.raises(ValueError, match=r"require J >= 0"):
            phase_diagram(JC0, np.array([WR - 0.7 * G]), G * np.array([0.1, -0.01]),
                          SiteSpace(4))

    def test_cells_carry_the_closed_form_lobe_edge(self):
        space = SiteSpace(8)
        mus = WR + G * np.array([-0.9, -0.6, -0.45])
        zjs = G * np.linspace(0.02, 0.4, 5)
        cells = phase_diagram(JC0, mus, zjs, space)
        for i, mu in enumerate(mus):
            edge = 1.0 / susceptibility(JC0, mu, space)
            for c in cells[i * len(zjs):(i + 1) * len(zjs)]:
                assert c.zj_critical == pytest.approx(edge, rel=1e-10)
                assert c.phase.startswith("Mott") == (c.zj < edge)


class TestSusceptibilityVerdict:
    @settings(max_examples=60)
    @given(omega_r=st.floats(5.0, 15.0), g=st.floats(0.5, 1.5), detuning=st.floats(-1.0, 1.0),
           mu_offset=st.floats(-2.0, 0.5), zj=st.floats(1e-3, 0.5))
    def test_agrees_with_the_search_oracle(self, omega_r, g, detuning, mu_offset, zj):
        # energies scale with g: δ, μ - ω_r and zJ are drawn in its units
        jc = JCParams(omega_r, omega_r - detuning * g, g)
        mu, zj = omega_r + mu_offset * g, zj * g
        space = SiteSpace(6)
        ratio = zj * susceptibility(jc, mu, space)
        res = minimize_order_parameter(jc, mu, zj, space)
        ref = oracles.search_order_parameter(jc, mu, zj, space)
        if abs(ratio - 1) >= 1e-3:
            assert (ratio > 1) == (ref.psi > PSI_FLOOR)
        if ratio < 1:
            assert res.psi == 0.0
            assert abs(res.n_polariton - round(res.n_polariton)) <= 1e-9
            return
        # a minimum no higher than the oracle's, where ψ = Re⟨a⟩ holds
        h = oracles.local_mf_hamiltonian(jc, mu, zj, res.psi, space).toarray()
        energy, x_mean, chi = ground_response(h, site_x(space))
        assert res.energy == pytest.approx(energy, abs=1e-12)
        assert res.energy <= ref.energy + 1e-12
        assert abs(res.psi - 0.5 * x_mean) <= 1e-6
        curvature = 2 * zj * (1 - zj * chi)        # d²E/dψ², second-order response
        assert curvature > 0
        # the oracle searches the energy, so it resolves ψ to 1e-6 only where a
        # 1e-6 shift moves E by well above roundoff; near the lobe edge, or at
        # very small zJ, its own error reaches 1e-5
        if 0.5 * curvature * 1e-12 >= 64 * np.finfo(float).eps * abs(ref.energy):
            assert abs(res.psi - ref.psi) <= 1e-6


def oracle_phase(ref):
    """The phase label ``phase_diagram`` gives a cell, from the search oracle's result."""
    if ref.psi <= PSI_FLOOR and abs(ref.n_polariton - round(ref.n_polariton)) <= 1e-6:
        return f"Mott{int(round(ref.n_polariton))}"
    return "SF"


def resolves_psi(jc, mu, zj, space, ref):
    """Whether the search oracle resolves ψ to 1e-6: a 1e-6 shift must move its
    energy by well above roundoff (the rule of ``test_agrees_with_the_search_oracle``)."""
    h = oracles.local_mf_hamiltonian(jc, mu, zj, ref.psi, space).toarray()
    curvature = 2 * zj * (1 - zj * ground_response(h, site_x(space))[2])
    return 0.5 * curvature * 1e-12 >= 64 * np.finfo(float).eps * abs(ref.energy)


class TestGlobalSearch:
    """The superfluid search is a safeguarded Newton on dE/dψ = 0 from one start
    per cell; it is global because E(ψ) has one stationary point with ψ > 0."""

    @settings(max_examples=60)
    @given(omega_r=st.floats(5.0, 15.0), g=st.floats(0.5, 1.5), detuning=st.floats(-1.0, 1.0),
           mu_offset=st.floats(-2.0, 0.5), n_max=st.integers(4, 11))
    def test_response_ratio_is_nonincreasing(self, omega_r, g, detuning, mu_offset, n_max):
        # f(t) = ⟨X⟩ in the ground state of H_JC - μN - tX; dE/dψ = zJ(2ψ - f(zJψ)),
        # so f(t)/t nonincreasing leaves at most one stationary ψ > 0.  t runs up to
        # zJ·√n_max, the edge of the ψ window, with zJ ≤ g, the largest hopping the
        # scans here reach
        jc = JCParams(omega_r, omega_r - detuning * g, g)
        mu, space = omega_r + mu_offset * g, SiteSpace(n_max)
        h0, x = oracles.local_mf_hamiltonian(jc, mu, 0.0, 0.0, space).toarray(), site_x(space)
        vals = np.linalg.eigvalsh(h0)
        assume(vals[1] - vals[0] > 1e-6 * np.max(np.abs(vals)))     # nondegenerate ground state
        t = np.linspace(0.0, g * np.sqrt(n_max), 61)[1:]
        ratio = np.array([ground_response(h0 - s * x, x)[1] / s for s in t])
        assert np.all(np.diff(ratio) <= 1e-10 * np.max(np.abs(ratio)))

    @settings(max_examples=60)
    @given(omega_r=st.floats(5.0, 15.0), g=st.floats(0.5, 1.5), detuning=st.floats(-1.0, 1.0),
           mu_offset=st.floats(-2.0, 2.0), zj=st.floats(1e-3, 10.0), n_max=st.integers(1, 15))
    def test_energy_rises_at_the_window_edge(self, omega_r, g, detuning, mu_offset, zj, n_max):
        # the ψ window ends at √n_max because |⟨a⟩|² ≤ ⟨a†a⟩ ≤ n_max in every state
        # of the site: ⟨X⟩ < 2√n_max, so dE/dψ = zJ(2ψ - ⟨X⟩) > 0 at ψ = √n_max
        # and the minimizer lies inside the window
        jc = JCParams(omega_r, omega_r - detuning * g, g)
        space, edge = SiteSpace(n_max), np.sqrt(n_max)
        h = oracles.local_mf_hamiltonian(jc, omega_r + mu_offset * g, zj, edge, space).toarray()
        assert 2.0 * edge - ground_response(h, site_x(space))[1] > 0

    @pytest.mark.parametrize("mu_lo, mu_hi, zj_hi, phases", [
        (WR - 1.3 * G, WR - 0.45 * G, 0.4 * G, {"Mott0", "Mott1", "SF"}),
        (WR - 0.45 * G, WR - 0.27 * G, 0.05 * G, {"Mott1", "Mott2", "Mott3", "SF"}),
    ], ids=["lobes_0_1", "lobes_1_2_3"])
    def test_windows_agree_with_the_search_oracle(self, mu_lo, mu_hi, zj_hi, phases):
        # no cell lies within 2% of its lobe edge, where the oracle's ψ* < PSI_FLOOR
        # could not tell the phases apart
        space = SiteSpace(10)
        cells = phase_diagram(JC0, np.linspace(mu_lo, mu_hi, 9), np.geomspace(1e-3, zj_hi, 7),
                              space)
        assert {c.phase for c in cells} == phases
        for c in cells:
            ref = oracles.search_order_parameter(JC0, c.mu, c.zj, space)
            assert c.phase == oracle_phase(ref)
            assert c.energy <= ref.energy + 1e-12
            if c.phase == "SF" and resolves_psi(JC0, c.mu, c.zj, space, ref):
                assert abs(c.psi - ref.psi) <= 1e-6

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_zj_order_changes_only_the_start(self, order):
        space = SiteSpace(10)
        jc, mus = JCParams(10.0, 10.0, 1.0), np.linspace(8.6, 9.9, 10)
        zjs = np.linspace(0.0, 0.2, 10)[1:]
        perm = (np.arange(zjs.size)[::-1] if order == "reversed"
                else np.random.default_rng(3).permutation(zjs.size))
        sorted_cells = phase_diagram(jc, mus, zjs, space)
        permuted = phase_diagram(jc, mus, zjs[perm], space)
        assert sum(c.phase == "SF" for c in sorted_cells) >= 20
        for i, mu in enumerate(mus):
            row = sorted_cells[i * zjs.size:(i + 1) * zjs.size]
            for k, c in zip(perm, permuted[i * zjs.size:(i + 1) * zjs.size]):
                assert c.phase == row[k].phase and c.zj == row[k].zj
                assert abs(c.psi - row[k].psi) <= 2e-7
            for c in row:
                alone = minimize_order_parameter(jc, float(mu), c.zj, space)
                assert abs(c.psi - alone.psi) <= 2e-7
                assert c.energy == pytest.approx(alone.energy, abs=1e-12)


class TestDrivenMeanField:
    def run_point(self, zj, xi=0.01 * G, seeds=(0.0,), **kw):
        de = 0.01 * G
        wq = WR - zj
        rates = DissipationRates(gamma1=de, kappa=de)
        drive = DriveSpec(xi=xi, omega_d=wq - G)
        jc = JCParams(WR, wq, G)
        return driven_mf_steady(jc, rates, drive, zj, seeds=seeds,
                                space=SiteSpace(7), **kw)

    def test_zero_hopping_reduces_to_single_site(self):
        de = 0.01 * G
        jc = JCParams(WR, WR, G)
        rates = DissipationRates(gamma1=de, kappa=de)
        drive = DriveSpec(xi=0.01 * G, omega_d=WR - G)
        res = driven_mf_steady(jc, rates, drive, 0.0, seeds=(0.0,),
                               space=SiteSpace(7))
        space = LatticeSpace.uniform(1, 7)
        model = DrivenLattice(LatticeParams.single_site(jc), space, rates)
        rho = steady_state(model.generator(drive.xi, drive.omega_d))
        a = photon_op_on(space, 0, "a")
        assert abs(res.per_seed[0].psi - expectation(a, rho)) < 1e-8
        assert res.per_seed[0].g2 == pytest.approx(g2_zero(rho, 0, space), abs=1e-8)

    def test_weak_hopping_stays_blockaded(self):
        res = self.run_point(0.05 * G)
        assert res.per_seed[0].g2 < 0.5

    def test_strong_hopping_breaks_blockade(self):
        weak = self.run_point(0.1 * G).per_seed[0].g2
        strong = self.run_point(2.0 * G).per_seed[0].g2
        assert strong > 0.5
        assert strong > weak

    def test_bistability_from_seed_dependence(self, monkeypatch):
        # pumping above the lower-polariton band bottom develops two stable
        # branches reachable from the empty and the bright seed
        de = 0.01 * G
        zj = 1.0 * G
        wq = WR - zj
        jc = JCParams(WR, wq, G)
        rates = DissipationRates(gamma1=de, kappa=de)
        drive = DriveSpec(xi=0.02 * G, omega_d=wq - G + 0.2 * G)
        monkeypatch.setattr(meanfield, "HORIZON_RELAXATIONS", 250)
        res = driven_mf_steady(jc, rates, drive, zj, seeds=(0.0, 1.5), space=SiteSpace(7))
        assert res.multistable
        assert len(res.branches) == 2
        psis = sorted(abs(b.psi) for b in res.branches)
        assert psis[1] - psis[0] > 1e-2

    @pytest.mark.parametrize("chunks", [1, CAPTURE_CONTRACTIONS])
    def test_short_unconverged_run_is_not_a_limit_cycle(self, chunks, monkeypatch):
        # fewer than 40 ψ samples cannot show a sustained oscillation; capture
        # takes more than CAPTURE_CONTRACTIONS intervals, so a horizon of at
        # most that many leaves every run uncaptured whatever Newton finds
        jc = JCParams(20.0, 19.0, 1.0)
        rates = DissipationRates(gamma1=0.06, kappa=0.06)
        drive = DriveSpec(xi=0.12, omega_d=18.3)
        monkeypatch.setattr(meanfield, "HORIZON_RELAXATIONS", chunks)
        with pytest.raises(MeanFieldConvergenceError, match=f"{chunks + 1} ψ samples"):
            driven_mf_steady(jc, rates, drive, 1.0, seeds=(0.0,), space=SiteSpace(6))

    def test_convergence_error_reports_the_last_step(self, monkeypatch):
        # a horizon of CAPTURE_CONTRACTIONS intervals is too short for capture
        jc = JCParams(20.0, 19.0, 1.0)
        rates = DissipationRates(gamma1=0.06, kappa=0.06)
        drive = DriveSpec(xi=0.12, omega_d=18.3)
        monkeypatch.setattr(meanfield, "HORIZON_RELAXATIONS", CAPTURE_CONTRACTIONS)
        with pytest.raises(MeanFieldConvergenceError) as info:
            driven_mf_steady(jc, rates, drive, 1.0, seeds=(0.0,), space=SiteSpace(6))
        last_step = float(str(info.value).split("last |Δψ| = ")[1].rstrip(")"))
        assert last_step > 1e-8

    def test_requires_dissipation(self):
        jc = JCParams(WR, WR, G)
        with pytest.raises(ValueError, match="dissipative"):
            driven_mf_steady(jc, DissipationRates(), DriveSpec(xi=0.01, omega_d=WR),
                             0.1, space=SiteSpace(4))


# bistable points: the driven-mf CLI workload (|ψ| ≈ 0.18 and 0.50) and the
# point of test_bistability_from_seed_dependence (|ψ| ≈ 0.045 and 0.42)
DRIVEN_POINT = dict(jc=JCParams(20.0, 19.0, 1.0),
                    rates=DissipationRates(gamma1=0.06, kappa=0.06),
                    drive=DriveSpec(xi=0.12, omega_d=18.3), zj=1.0, space=SiteSpace(6))
BISTABLE_POINT = dict(jc=JCParams(WR, WR - G, G),
                      rates=DissipationRates(gamma1=0.01 * G, kappa=0.01 * G),
                      drive=DriveSpec(xi=0.02 * G, omega_d=WR - 2 * G + 0.2 * G), zj=G,
                      space=SiteSpace(7))


def _nonlinear_rhs(jc, rates, drive, zj, space):
    """∂_t vec(ρ) = L₀ vec(ρ) + i zJ(ψ[a†, ρ] + ψ*[a, ρ]) with ψ = tr(aρ); also returns vec(aᵀ).

    L₀ is the generator of H - ω_d N + ξ(a + a†), built here and not by ``DrivenLattice``.
    """
    lat = LatticeSpace((space,))
    a = photon_op_on(lat, 0, "a")
    h_rot = (build_jchm(LatticeParams.single_site(jc), lat) - drive.omega_d * total_excitation(lat)
             + drive.xi * (a + a.getH()))
    liouv = build_liouvillian(h_rot, rates, lat)
    eye = sp.identity(space.dim, format="csr")
    terms = sp.vstack([liouv.matrix, sp.kron(a.getH(), eye) - sp.kron(eye, a.conj()),
                       sp.kron(a, eye) - sp.kron(eye, a.T)], format="csr")
    a_trace = a.T.toarray().reshape(-1)

    def rhs(_t, y):
        psi = a_trace @ y
        l0_y, adag_y, a_y = (terms @ y).reshape(3, -1)
        return l0_y + 1j * zj * (psi * adag_y + np.conj(psi) * a_y)

    return rhs, a_trace


def _settle_by_integration(point, seed, psi_tol=1e-8):
    """Oracle: DOP853 in control intervals of 1/γ_min until ψ moves by less than
    psi_tol over one interval, the fixed-point loop before root finding."""
    rhs, a_trace = _nonlinear_rhs(**point)
    d = point["space"].dim
    rates = point["rates"]
    interval = 1.0 / min(r for r in (rates.gamma1, rates.kappa) if r > 0)
    y = _coherent_site_state(point["space"], seed).rho.reshape(-1)
    psi_prev = a_trace @ y
    for _ in range(600):
        solver = DOP853(rhs, 0.0, y, interval, rtol=1e-9, atol=1e-12)
        while solver.status == "running":
            solver.step()
        rho = solver.y.reshape(d, d)
        y = (0.5 * (rho + rho.conj().T)).reshape(-1)
        psi = a_trace @ y
        if abs(psi - psi_prev) < psi_tol:
            return complex(psi)
        psi_prev = psi
    raise AssertionError(f"seed {seed} did not settle")


def _finite_difference_margin(point, rho, h=1e-6):
    """max Re λ of a central-difference Jacobian of the nonlinear right-hand side
    at ρ, on traceless Hermitian perturbations (the trace mode excluded).

    Real coordinates: Re ρ_ii for i < d-1, then Re ρ_ij and Im ρ_ij for i < j.
    The right-hand side is quadratic in ρ, so central differences are exact up
    to roundoff.
    """
    rhs, _ = _nonlinear_rhs(**point)
    d = point["space"].dim
    upper = np.triu_indices(d, 1)
    basis = []
    for i in range(d - 1):
        b = np.zeros((d, d), dtype=complex)
        b[i, i], b[-1, -1] = 1.0, -1.0
        basis.append(b)
    for i, j in zip(*upper):
        for re, im in ((1.0, 0.0), (0.0, 1.0)):
            b = np.zeros((d, d), dtype=complex)
            b[i, j], b[j, i] = re + 1j * im, re - 1j * im
            basis.append(b)

    def coords(x):
        return np.concatenate([x.diagonal()[:-1].real,
                               np.stack([x[upper].real, x[upper].imag], axis=1).reshape(-1)])

    columns = [coords((rhs(0.0, (rho + h * b).reshape(-1))
                       - rhs(0.0, (rho - h * b).reshape(-1))).reshape(d, d) / (2 * h))
               for b in basis]
    return float(np.max(np.linalg.eigvals(np.array(columns).T).real))


class TestDrivenRootFinding:
    @pytest.mark.parametrize("point, seeds", [
        (DRIVEN_POINT, (0.0, 0.4, 0.8, 1.5)),
        (BISTABLE_POINT, (0.0, 0.6, 1.0, 1.5)),
    ], ids=["driven_mf", "bistable"])
    def test_per_seed_matches_integration_oracle(self, point, seeds):
        # seeds on both sides of the separatrix: 0.4 and 0.6 end on the low
        # branch, 0.8 and 1.0 on the high one
        res = driven_mf_steady(**point, seeds=seeds)
        assert res.multistable
        for seed, fp in zip(seeds, res.per_seed):
            assert not fp.limit_cycle
            assert abs(fp.psi - _settle_by_integration(point, seed)) <= 1e-7
            assert fp.residual <= 1e-8
            assert fp.stability_margin < 0

    def test_step_budget_at_the_benchmark_point(self, monkeypatch):
        # DOP853 at TRANSIENT_RTOL / TRANSIENT_ATOL takes 530 steps over both
        # seeds here; the loop steps through meanfield.RK45.  Seed 0 is captured
        # after 4 control intervals; without the Newton line search a wandering
        # run there resets the capture and costs 2 more
        steps = []

        class Counting(meanfield.RK45):
            def step(self):
                steps.append(1)
                return super().step()

        calls, factorizations = [], []
        rhs, lu_factor = _DrivenSite.rhs, meanfield.lu_factor

        def counting_rhs(self, t, x):
            calls.append(1)
            return rhs(self, t, x)

        def counting_lu(*args, **kwargs):
            factorizations.append(1)
            return lu_factor(*args, **kwargs)

        monkeypatch.setattr(meanfield, "RK45", Counting)
        monkeypatch.setattr(_DrivenSite, "rhs", counting_rhs)
        monkeypatch.setattr(meanfield, "lu_factor", counting_lu)
        res = driven_mf_steady(**DRIVEN_POINT, seeds=(0.0, 1.5))
        assert res.multistable
        assert 0 < len(steps) <= 700
        assert res.control_intervals[0] <= 4
        # the counts the result carries are the calls made
        assert sum(res.rhs_calls) == len(calls)
        assert sum(res.lu_factorizations) == len(factorizations)

    @pytest.mark.parametrize("point, separatrix, low, high", [
        (DRIVEN_POINT, (0.76963, 0.76968), 0.174278 - 0.026888j, -0.462686 - 0.178930j),
        (BISTABLE_POINT, (0.92080, 0.92090), 0.044717 - 0.001286j, -0.402357 - 0.125510j),
    ], ids=["driven_mf", "bistable"])
    def test_loose_transient_keeps_seeds_beside_the_separatrix(self, point, separatrix,
                                                               low, high):
        # the real-seed separatrix, bisected with _settle_by_integration's
        # rtol 1e-9 / atol 1e-12, lies in the bracket; seeds 1e-3 outside it
        # must still reach the low and the high branch at the transient pair
        below, above = separatrix[0] - 1e-3, separatrix[1] + 1e-3
        res = driven_mf_steady(**point, seeds=(below, above))
        assert res.multistable
        for fp, branch in zip(res.per_seed, (low, high)):
            assert not fp.limit_cycle and fp.stability_margin < 0
            assert abs(fp.psi - branch) <= 1e-5

    def test_steady_state_runs_once_per_root(self, monkeypatch):
        # Newton factors the bordered generator instead; steady_state only
        # verifies each new root: the two stable ones and the saddle at most
        solves = []

        def counting(*args, **kwargs):
            solves.append(1)
            return steady_state(*args, **kwargs)

        monkeypatch.setattr(meanfield, "steady_state", counting)
        res = driven_mf_steady(**DRIVEN_POINT, seeds=(0.0, 1.5))
        assert res.multistable
        assert 0 < len(solves) <= 3

    def test_bordered_solution_is_the_steady_state(self):
        # the real bordered system gives the steady state of the complex
        # oracle and of steady_state at frozen ψ
        site = _DrivenSite(**DRIVEN_POINT)
        space, zj = DRIVEN_POINT["space"], DRIVEN_POINT["zj"]
        d = space.dim
        a = photon_op_on(LatticeSpace((space,)), 0, "a").toarray()
        root = site.newton(0.17 - 0.03j, [])
        assert root is not None
        unit = -(site.liouv0.scale() / d) * np.eye(d).reshape(-1)    # -s vec(I/d)
        for psi in (0.0, root.psi, 0.3 - 0.2j):
            rho = site.matrix(np.linalg.solve(site.bordered(psi), site.unit_source))
            oracle = np.linalg.solve(oracles.driven_bordered(site.liouv0, a, zj, psi), unit)
            frozen = Liouvillian(site.liouv0.h_rot - zj * (psi * a.conj().T + np.conj(psi) * a),
                                 site.liouv0.jumps)
            assert np.linalg.norm(rho - oracle.reshape(d, d)) <= 1e-10
            assert np.linalg.norm(rho - steady_state(frozen).rho) <= 1e-10
            assert abs(np.trace(rho) - 1.0) <= 1e-12

    def test_singular_generator_fails_the_newton_run(self, monkeypatch):
        # a zero column makes every bordered generator exactly singular:
        # lu_factor warns and returns, and Newton gives up without a warning
        bordered = _DrivenSite.bordered

        def singular(self, psi):
            m = bordered(self, psi)
            m[:, 0] = 0.0
            return m

        monkeypatch.setattr(_DrivenSite, "bordered", singular)
        monkeypatch.setattr(meanfield, "HORIZON_RELAXATIONS", 2)
        site = _DrivenSite(**DRIVEN_POINT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert site.newton(0.17 - 0.03j, []) is None
            with pytest.raises(MeanFieldConvergenceError):
                driven_mf_steady(**DRIVEN_POINT, seeds=(0.0,))

    def test_real_form_margin_matches_the_complex_spectrum(self):
        # the margin's matrix is the bordered linearization in an orthonormal
        # Hermitian basis, so its spectrum is that of the complex oracle at any
        # ψ and any density matrix
        site = _DrivenSite(**DRIVEN_POINT)
        space, zj = DRIVEN_POINT["space"], DRIVEN_POINT["zj"]
        d = space.dim
        a = photon_op_on(LatticeSpace((space,)), 0, "a").toarray()
        x = np.random.default_rng(7).normal(size=(d, 2 * d)).view(complex)
        rho = DensityMatrix(x @ x.conj().T / np.trace(x @ x.conj().T))
        assert np.linalg.norm(site.matrix(site.coords(rho.rho)) - rho.rho) <= 1e-14
        for psi in (0.0, 0.3 - 0.2j):
            spectrum = np.linalg.eigvals(oracles.driven_bordered(site.liouv0, a, zj, psi, rho.rho))
            assert site.margin(psi, site.coords(rho.rho)) == pytest.approx(
                np.max(spectrum.real), abs=1e-12)

    def test_line_search_reaches_the_low_root_from_a_wandering_start(self, monkeypatch):
        # full Newton steps from here wander in |F| and spend all NEWTON_MAX_ITER
        # evaluations; halving the step whenever |F| does not decrease reaches
        # the stable low root.  |F| comes from the complex oracle at every ψ at
        # which F was evaluated
        evaluated = []
        bordered = _DrivenSite.bordered

        def recording(self, psi):
            evaluated.append(complex(psi))
            return bordered(self, psi)

        monkeypatch.setattr(_DrivenSite, "bordered", recording)
        site = _DrivenSite(**DRIVEN_POINT)
        space, zj = DRIVEN_POINT["space"], DRIVEN_POINT["zj"]
        d = space.dim
        a = photon_op_on(LatticeSpace((space,)), 0, "a").toarray()
        root = site.newton(0.2127606739395293 - 0.01901825151267915j, [])
        assert root is not None
        assert abs(root.psi - (0.174278 - 0.026888j)) <= 1e-6
        assert root.margin < 0
        trials = evaluated[:site.lu_factorizations]      # the margin evaluates once more
        unit = -(site.liouv0.scale() / d) * np.eye(d).reshape(-1)

        def residual(psi):
            rho = np.linalg.solve(oracles.driven_bordered(site.liouv0, a, zj, psi), unit)
            return abs(np.trace(a @ rho.reshape(d, d)) - psi)

        # a rejected trial is followed by the midpoint between the last accepted
        # iterate and itself, the step halved
        accepted = [0]
        for k in range(1, len(trials)):
            halved = 0.5 * (trials[accepted[-1]] + trials[k])
            if k + 1 == len(trials) or abs(trials[k + 1] - halved) > 1e-12:
                accepted.append(k)
        assert len(accepted) < len(trials)
        accepted_residuals = [residual(trials[k]) for k in accepted]
        assert all(later <= earlier
                   for earlier, later in zip(accepted_residuals, accepted_residuals[1:]))

    def test_stability_margins_match_finite_differences(self):
        site = _DrivenSite(**BISTABLE_POINT)
        roots = []
        low, middle, high = (site.newton(psi, roots)
                             for psi in (0.05, 0.37 - 0.1j, -0.4 - 0.13j))
        assert len(roots) == 3
        assert abs(low.psi) < 0.05 and 0.37 < abs(middle.psi) < 0.39 < abs(high.psi)
        assert low.margin < 0 and high.margin < 0
        assert middle.margin > 0
        for root in (low, middle, high):
            assert root.margin == pytest.approx(
                _finite_difference_margin(BISTABLE_POINT, root.rho.rho), abs=1e-8)


class TestTransientStepper:
    @pytest.mark.parametrize("seed", [0.0, 1.5])
    def test_steps_like_scipy_dop853(self, seed):
        # three successive control intervals at the benchmark point and the
        # transient pair, each integrator continuing from its own end state
        site = _DrivenSite(**DRIVEN_POINT)
        t_chunk = 1.0 / DRIVEN_POINT["rates"].gamma1
        ours = theirs = site.coords(_coherent_site_state(DRIVEN_POINT["space"], seed).rho)
        for _ in range(3):
            stepper = meanfield.RK45(site.rhs, ours, t_chunk, TRANSIENT_RTOL, TRANSIENT_ATOL)
            steps = 0
            while stepper.t < t_chunk:
                assert stepper.step()
                steps += 1
            oracle = DOP853(site.rhs, 0.0, theirs, t_chunk, rtol=TRANSIENT_RTOL,
                            atol=TRANSIENT_ATOL)
            oracle_steps = 0
            while oracle.status == "running":
                oracle.step()
                oracle_steps += 1
            assert oracle.status == "finished"
            assert (steps, stepper.nfev) == (oracle_steps, oracle.nfev)
            assert stepper.t == oracle.t == t_chunk
            ours, theirs = stepper.y, oracle.y
            assert np.linalg.norm(ours - theirs) <= 1e-12 * np.linalg.norm(theirs)

    @pytest.mark.parametrize("where", ["everywhere", "inside_the_interval"])
    def test_non_finite_right_hand_side_raises_a_stiffness_error(self, where, monkeypatch):
        # from the second control interval on, the right-hand side is NaN at
        # every t ("everywhere": no step size can be chosen) or at t > 0 only
        # (every step is rejected until it falls below 10 spacings of t = 0);
        # either way the run stops where that interval starts, t = 1/γ_min
        rhs, newton = _DrivenSite.rhs, _DrivenSite.newton
        intervals_done = []

        def counting_newton(self, psi, known):     # runs after each interval
            intervals_done.append(1)
            return newton(self, psi, known)

        def breaking_rhs(self, t, x):
            if intervals_done and (where == "everywhere" or t > 0):
                return np.full_like(x, np.nan)
            return rhs(self, t, x)

        monkeypatch.setattr(_DrivenSite, "newton", counting_newton)
        monkeypatch.setattr(_DrivenSite, "rhs", breaking_rhs)
        with pytest.raises(StiffnessError, match=r"failed at t = 16\.67: the step size"):
            driven_mf_steady(**DRIVEN_POINT, seeds=(0.0,))
        assert len(intervals_done) == 1
