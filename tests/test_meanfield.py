import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.integrate import DOP853

import oracles

from cqedlat import meanfield
from cqedlat.hilbert import (
    LatticeSpace,
    SiteSpace,
    annihilation,
    expectation,
    photon_op_on,
    total_excitation,
)
from cqedlat.jc import JCParams, polariton_energy
from cqedlat.lattice import LatticeParams, build_jchm
from cqedlat.lindblad import DissipationRates, DriveSpec, build_liouvillian, g2_zero, steady_state
from cqedlat.meanfield import (
    CAPTURE_CONTRACTIONS,
    PSI_FLOOR,
    ZJ_RESOLUTION,
    CutoffWindowError,
    GrandCanonicalParams,
    MeanFieldConvergenceError,
    _coherent_site_state,
    _DrivenSite,
    driven_mf_steady,
    lobe_boundary,
    local_mf_hamiltonian,
    minimize_order_parameter,
    mott_window_analytic,
    mott_window_numeric,
    phase_diagram,
)

G, WR = 1.0, 20.0
JC0 = JCParams(WR, WR, G)  # resonant site, energies in units of g
JC_DET = JCParams(WR, WR - 0.5 * G, G)  # delta = +0.5 g
# the N=1/N=2 crossing of the J = 0 staircase: a degenerate site ground state
MU_DEG = polariton_energy(JC0, 2, "-") - polariton_energy(JC0, 1, "-")


def site_x(space):
    """X = a + a† on one site, from the Kronecker-product oracle operators."""
    a = oracles.photon_op_on(LatticeSpace((space,)), 0, annihilation(space)).toarray()
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
        p = GrandCanonicalParams(jc=JC0, mu=WR - 0.5, z=1, J=0.1)
        h = local_mf_hamiltonian(p, 0.0, space).toarray()
        n = total_excitation(LatticeSpace((space,))).toarray()
        assert np.allclose(h @ n - n @ h, 0.0, atol=1e-12)

    def test_psi_independent_at_zero_hopping(self):
        space = SiteSpace(3)
        p = GrandCanonicalParams(jc=JC0, mu=WR - 0.5, z=1, J=0.0)
        h0 = local_mf_hamiltonian(p, 0.0, space).toarray()
        h1 = local_mf_hamiltonian(p, 0.7, space).toarray()
        assert np.allclose(h0, h1, atol=1e-14)

    def test_energy_even_in_real_psi(self):
        space = SiteSpace(5)
        p = GrandCanonicalParams(jc=JC0, mu=WR - 0.6, z=1, J=0.08)
        for psi in (0.2, 0.9):
            e_plus = np.linalg.eigvalsh(local_mf_hamiltonian(p, psi, space).toarray())[0]
            e_minus = np.linalg.eigvalsh(local_mf_hamiltonian(p, -psi, space).toarray())[0]
            assert e_plus == pytest.approx(e_minus, abs=1e-12)

    def test_gauge_invariance_of_spectrum(self):
        # minimized energy must not depend on the phase of psi
        rng = np.random.default_rng(42)
        space = SiteSpace(5)
        for _ in range(3):
            mu = WR + G * rng.uniform(-0.9, -0.3)
            zj = G * rng.uniform(0.02, 0.3)
            p = GrandCanonicalParams(jc=JC0, mu=mu, z=1, J=zj)
            psi_mag = rng.uniform(0.1, 0.8)
            base = np.linalg.eigvalsh(local_mf_hamiltonian(p, psi_mag, space).toarray())[0]
            for phi in np.linspace(0, 2 * np.pi, 7):
                h = local_mf_hamiltonian(p, psi_mag * np.exp(1j * phi), space).toarray()
                assert np.linalg.eigvalsh(h)[0] == pytest.approx(base, abs=1e-11)


class TestMinimization:
    def test_deep_mott_has_zero_order_parameter(self):
        p = GrandCanonicalParams(jc=JC0, mu=WR - 0.7 * G, z=1, J=0.001 * G)
        res = minimize_order_parameter(p, SiteSpace(8))
        assert res.psi < 1e-6
        assert res.n_polariton == pytest.approx(1.0, abs=1e-6)

    def test_superfluid_at_large_hopping(self):
        # energy-comparison oracle: some sampled psi beats psi = 0
        space = SiteSpace(8)
        p = GrandCanonicalParams(jc=JC0, mu=WR - 0.7 * G, z=1, J=0.5 * G)
        e0 = np.linalg.eigvalsh(local_mf_hamiltonian(p, 0.0, space).toarray())[0]
        sampled = min(np.linalg.eigvalsh(local_mf_hamiltonian(p, s, space).toarray())[0]
                      for s in np.linspace(0.05, 2.5, 40))
        assert sampled < e0 - 1e-6
        res = minimize_order_parameter(p, space)
        assert res.psi > 0.1
        assert res.energy <= sampled + 1e-9

    def test_vacuum_lobe_below_first_polariton(self):
        p = GrandCanonicalParams(jc=JC0, mu=WR - 1.5 * G, z=1, J=0.001 * G)
        res = minimize_order_parameter(p, SiteSpace(6))
        assert res.psi < 1e-6
        assert res.n_polariton == pytest.approx(0.0, abs=1e-8)

    def test_window_edge_error(self):
        p = GrandCanonicalParams(jc=JC0, mu=WR - 0.7 * G, z=1, J=0.5 * G)
        with pytest.raises(CutoffWindowError):
            minimize_order_parameter(p, SiteSpace(8), psi_max=0.5)


class TestMottWindows:
    def test_analytic_n1_window_on_resonance(self):
        lo, hi = mott_window_analytic(JC0, 1)
        assert (lo - WR) / G == pytest.approx(-1.0, abs=1e-12)
        assert (hi - WR) / G == pytest.approx(-(np.sqrt(2) - 1), abs=1e-12)

    def test_numeric_matches_analytic(self):
        space = SiteSpace(8)
        for n in (1, 2, 3):
            lo_a, hi_a = mott_window_analytic(JC0, n)
            lo_n, hi_n = mott_window_numeric(JC0, n, space)
            assert lo_n == pytest.approx(lo_a, abs=1e-10)
            assert hi_n == pytest.approx(hi_a, abs=1e-10)

    def test_windows_shrink_with_n(self):
        widths = [np.subtract(*reversed(mott_window_analytic(JC0, n))) for n in (1, 2, 3)]
        assert widths[0] > widths[1] > widths[2] > 0

    def test_psi_zero_throughout_analytic_window(self):
        lo, hi = mott_window_analytic(JC0, 1)
        space = SiteSpace(6)
        for mu in np.linspace(lo + 0.02 * G, hi - 0.02 * G, 5):
            p = GrandCanonicalParams(jc=JC0, mu=float(mu), z=1, J=0.002 * G)
            assert minimize_order_parameter(p, space).psi < 1e-5


class TestLobeBoundary:
    def test_boundary_bracket_errors(self):
        space = SiteSpace(6)
        # at the N=1/N=2 degeneracy the lattice is superfluid for any zJ > 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="outside the Mott lobe"):
                lobe_boundary(JC0, MU_DEG, space, zj_max=0.5)
        with pytest.raises(ValueError, match="enlarge zj_max"):
            lobe_boundary(JC0, WR - 0.7 * G, space, zj_max=0.01)

    def test_boundary_stable_under_cutoff_doubling(self):
        mu = WR - 0.6 * G
        b1 = lobe_boundary(JC0, mu, SiteSpace(6), zj_max=0.4)
        b2 = lobe_boundary(JC0, mu, SiteSpace(12), zj_max=0.4)
        assert abs(b1 - b2) <= 1e-4

    def test_detuning_raises_n1_critical_hopping(self):
        mu0 = WR - 0.6 * G
        b_res = lobe_boundary(JC0, mu0, SiteSpace(6), zj_max=0.6)
        lo, hi = mott_window_analytic(JC_DET, 1)
        b_det = lobe_boundary(JC_DET, 0.5 * (lo + hi), SiteSpace(6), zj_max=0.8)
        assert b_det > b_res

    @pytest.mark.parametrize("jc, mu, n_max, zj_max", [
        (JC0, WR - 0.6 * G, 6, 0.4),
        (JC0, WR - 0.6 * G, 12, 0.4),
        (JC_DET, 0.5 * sum(mott_window_analytic(JC_DET, 1)), 6, 0.8),
        (JCParams(WR, WR + 0.7 * G, G), WR - 0.3 * G, 6, 0.8),
    ], ids=["resonant", "resonant_n12", "detuned_mid_window", "qubit_above_cavity"])
    def test_closed_form_matches_bisection_oracle(self, jc, mu, n_max, zj_max):
        space = SiteSpace(n_max)
        closed = lobe_boundary(jc, mu, space, zj_max=zj_max)
        assert abs(closed - oracles.bisect_lobe_boundary(jc, mu, space, zj_max)) <= ZJ_RESOLUTION


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
        p = GrandCanonicalParams(jc=jc, mu=omega_r + mu_offset * g, J=zj * g)
        space = SiteSpace(6)
        ratio = p.zj * susceptibility(jc, p.mu, space)
        res = minimize_order_parameter(p, space)
        ref = oracles.search_order_parameter(p, space)
        if abs(ratio - 1) >= 1e-3:
            assert (ratio > 1) == (ref.psi > PSI_FLOOR)
        if ratio < 1:
            assert res.psi == 0.0
            assert abs(res.n_polariton - round(res.n_polariton)) <= 1e-9
            return
        # a minimum no higher than the oracle's, where ψ = Re⟨a⟩ holds
        energy, x_mean, chi = ground_response(local_mf_hamiltonian(p, res.psi, space).toarray(),
                                              site_x(space))
        assert res.energy == pytest.approx(energy, abs=1e-12)
        assert res.energy <= ref.energy + 1e-12
        assert abs(res.psi - 0.5 * x_mean) <= 1e-6
        curvature = 2 * p.zj * (1 - p.zj * chi)        # d²E/dψ², second-order response
        assert curvature > 0
        # the oracle searches the energy, so it resolves ψ to 1e-6 only where a
        # 1e-6 shift moves E by well above roundoff; near the lobe edge, or at
        # very small zJ, its own error reaches 1e-5
        if 0.5 * curvature * 1e-12 >= 64 * np.finfo(float).eps * abs(ref.energy):
            assert abs(res.psi - ref.psi) <= 1e-6


class TestDrivenMeanField:
    def run_point(self, zj, xi=0.01 * G, seeds=(0.0,), **kw):
        de = 0.01 * G
        wq = WR - zj
        rates = DissipationRates(gamma1=de, kappa_ports={0: de})
        drive = DriveSpec(xi=xi, omega_d=wq - G)
        jc = JCParams(WR, wq, G)
        return driven_mf_steady(jc, rates, drive, zj, seeds=seeds,
                                space=SiteSpace(7), **kw)

    def test_zero_hopping_reduces_to_single_site(self):
        de = 0.01 * G
        jc = JCParams(WR, WR, G)
        rates = DissipationRates(gamma1=de, kappa_ports={0: de})
        drive = DriveSpec(xi=0.01 * G, omega_d=WR - G)
        res = driven_mf_steady(jc, rates, drive, 0.0, seeds=(0.0,),
                               space=SiteSpace(7), psi_tol=1e-10)
        space = LatticeSpace.uniform(1, 7)
        h = build_jchm(LatticeParams.single_site(jc), space)
        liouv = build_liouvillian(h, rates, drive, space)
        rho = steady_state(liouv)
        a = photon_op_on(space, 0, annihilation(space.sites[0]))
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

    def test_bistability_from_seed_dependence(self):
        # pumping above the lower-polariton band bottom develops two stable
        # branches reachable from the empty and the bright seed
        de = 0.01 * G
        zj = 1.0 * G
        wq = WR - zj
        jc = JCParams(WR, wq, G)
        rates = DissipationRates(gamma1=de, kappa_ports={0: de})
        drive = DriveSpec(xi=0.02 * G, omega_d=wq - G + 0.2 * G)
        res = driven_mf_steady(jc, rates, drive, zj, seeds=(0.0, 1.5),
                               space=SiteSpace(7), t_max=250 / de)
        assert res.multistable
        assert len(res.branches) == 2
        psis = sorted(abs(b.psi) for b in res.branches)
        assert psis[1] - psis[0] > 1e-2

    @pytest.mark.parametrize("chunks", [1, CAPTURE_CONTRACTIONS])
    def test_short_unconverged_run_is_not_a_limit_cycle(self, chunks):
        # fewer than 40 ψ samples cannot show a sustained oscillation; capture
        # takes more than CAPTURE_CONTRACTIONS intervals, so a horizon of at
        # most that many leaves every run uncaptured whatever Newton finds
        jc = JCParams(20.0, 19.0, 1.0)
        rates = DissipationRates(gamma1=0.06, kappa_ports={0: 0.06})
        drive = DriveSpec(xi=0.12, omega_d=18.3)
        with pytest.raises(MeanFieldConvergenceError, match=f"{chunks + 1} ψ samples"):
            driven_mf_steady(jc, rates, drive, 1.0, seeds=(0.0,), space=SiteSpace(6),
                             t_max=chunks / 0.06)

    def test_convergence_error_reports_the_last_step(self):
        # a horizon of CAPTURE_CONTRACTIONS intervals is too short for capture
        jc = JCParams(20.0, 19.0, 1.0)
        rates = DissipationRates(gamma1=0.06, kappa_ports={0: 0.06})
        drive = DriveSpec(xi=0.12, omega_d=18.3)
        with pytest.raises(MeanFieldConvergenceError) as info:
            driven_mf_steady(jc, rates, drive, 1.0, seeds=(0.0,), space=SiteSpace(6),
                             t_max=CAPTURE_CONTRACTIONS / 0.06)
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
                    rates=DissipationRates(gamma1=0.06, kappa_ports={0: 0.06}),
                    drive=DriveSpec(xi=0.12, omega_d=18.3), zj=1.0, space=SiteSpace(6))
BISTABLE_POINT = dict(jc=JCParams(WR, WR - G, G),
                      rates=DissipationRates(gamma1=0.01 * G, kappa_ports={0: 0.01 * G}),
                      drive=DriveSpec(xi=0.02 * G, omega_d=WR - 2 * G + 0.2 * G), zj=G,
                      space=SiteSpace(7))


def _nonlinear_rhs(jc, rates, drive, zj, space):
    """∂_t vec(ρ) = L₀ vec(ρ) + i zJ(ψ[a†, ρ] + ψ*[a, ρ]) with ψ = tr(aρ); also returns vec(aᵀ)."""
    lat = LatticeSpace((space,))
    liouv = build_liouvillian(build_jchm(LatticeParams.single_site(jc), lat), rates, drive, lat)
    a = photon_op_on(lat, 0, annihilation(space))
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
    interval = 1.0 / min(r for r in (rates.gamma1, *(k for _, k in rates.kappa_ports)) if r > 0)
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
        # DOP853 at ODE_RTOL / ODE_ATOL takes 1349 steps over both seeds here,
        # the RK45 it replaced 6599; the loop steps through meanfield.RK45
        steps = []

        class Counting(meanfield.RK45):
            def step(self):
                steps.append(1)
                return super().step()

        monkeypatch.setattr(meanfield, "RK45", Counting)
        res = driven_mf_steady(**DRIVEN_POINT, seeds=(0.0, 1.5))
        assert res.multistable
        assert 0 < len(steps) <= 2700

    def test_stability_margins_match_finite_differences(self):
        site = _DrivenSite(**BISTABLE_POINT)
        roots = []
        low, middle, high = (site.newton(psi, 1e-10, roots)
                             for psi in (0.05, 0.37 - 0.1j, -0.4 - 0.13j))
        assert len(roots) == 3
        assert abs(low.psi) < 0.05 and 0.37 < abs(middle.psi) < 0.39 < abs(high.psi)
        assert low.margin < 0 and high.margin < 0
        assert middle.margin > 0
        for root in (low, middle, high):
            assert root.margin == pytest.approx(
                _finite_difference_margin(BISTABLE_POINT, root.rho.rho), abs=1e-8)
