import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import oracles
from cqedlat.hilbert import (DensityMatrix, LatticeSpace, assemble, diagonal_factor, expectation,
                             occupation_basis, photon_op_on)
from cqedlat.jc import JCParams
from cqedlat.lattice import (LatticeParams, band_resonant_chain, build_jchm, chain,
                              photon_band_minimum)
from cqedlat import hilbert, lindblad
from cqedlat.lindblad import (
    ConvergenceError,
    DissipationRates,
    DrivenLattice,
    Liouvillian,
    build_liouvillian,
    collapse_operators,
    g2_zero,
    steady_state,
    steady_states,
    transmission_scan,
)


def empty_cavity(n_max=8):
    """Single site with the qubit decoupled (g = 0) and far detuned."""
    params = LatticeParams.single_site(JCParams(1.0, 0.5, 0.0))
    space = LatticeSpace.uniform(1, n_max)
    return params, space, build_jchm(params, space)


def driven_cavity_closed_form(xi, delta, kappa_t):
    # c-number equation of motion for the driven damped cavity in the drive
    # frame: d⟨a⟩/dt = -i(Δ⟨a⟩ + ξ) - (κ_t/2)⟨a⟩ = 0
    #   ⇒ ⟨a⟩ = -ξ / (Δ - i κ_t / 2)
    return -xi / (delta - 1j * kappa_t / 2)


def photon_number_op(space, site=0):
    a = photon_op_on(space, site, "a")
    return a.getH() @ a


def random_state(d, rng):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def dense_nullspace_steady(liouv):
    """Oracle: dense LU of the superoperator with the ρ₀₀ row replaced by the trace."""
    d = liouv.dim
    m = liouv.matrix.toarray()
    m[0, :] = np.eye(d).reshape(-1)
    b = np.zeros(d * d, dtype=complex)
    b[0] = 1.0
    rho = np.linalg.solve(m, b).reshape(d, d)
    return 0.5 * (rho + rho.conj().T)


def single_site_liouvillian(jc, n_max, rates, xi=0.0, omega_d=0.0):
    """The generator of one JC site driven at (ξ, ω_d); undriven in the lab frame by default."""
    model = DrivenLattice(LatticeParams.single_site(jc), LatticeSpace.uniform(1, n_max), rates)
    return model.generator(xi, omega_d)


def dimer_liouvillian(n_max):
    params = chain(JCParams(50.0, 50.0, 1.0), 2, 0.5, boundary="periodic")
    model = DrivenLattice(params, LatticeSpace.uniform(2, n_max),
                          DissipationRates(gamma1=0.01, gamma_kappa=0.01), driven_sites=(0, 1))
    return model.generator(0.01, 48.5)


# the systems whose steady states the tests in this repository solve
STEADY_SYSTEMS = {
    "undriven_jc": lambda: single_site_liouvillian(
        JCParams(1.0, 0.98, 0.05), 3, DissipationRates(gamma1=0.05, gamma_kappa=0.1)),
    **{f"driven_cavity_{xi}_{wd}": (lambda xi=xi, wd=wd: single_site_liouvillian(
        JCParams(1.0, 0.5, 0.0), 8,
        DissipationRates(gamma1=0.01, gamma_kappa=0.02, kappa=0.03), xi, wd))
       for xi, wd in [(0.003, 0.98), (0.005, 1.0), (0.002, 1.03)]},
    "detuned_jc": lambda: single_site_liouvillian(
        JCParams(1.0, 1.0, 0.08), 4, DissipationRates(gamma1=0.02, gamma_kappa=0.03), 0.01, 0.93),
    "coherent_cavity": lambda: single_site_liouvillian(
        JCParams(1.0, 0.5, 0.0), 8, DissipationRates(gamma1=0.01, gamma_kappa=0.05), 0.004, 1.0),
    "blockade_peak": lambda: single_site_liouvillian(
        JCParams(50.0, 50.0, 1.0), 6, DissipationRates(gamma1=0.01, kappa=0.01), 0.01, 49.0),
    "blockade_center": lambda: single_site_liouvillian(
        JCParams(50.0, 50.0, 1.0), 5, DissipationRates(gamma1=0.01, gamma_kappa=0.01), 0.005, 50.0),
    "bright_linear_cavity": lambda: single_site_liouvillian(
        JCParams(1.0, 0.5, 0.0), 6, DissipationRates(gamma1=0.01, kappa=0.04), 0.02, 1.0),
    "meanfield_zero_hopping": lambda: single_site_liouvillian(
        JCParams(20.0, 20.0, 1.0), 7, DissipationRates(gamma1=0.01, kappa=0.01), 0.01, 19.0),
    "dimer": lambda: dimer_liouvillian(2),
    # g = κ/4 on resonance: H_eff is defective in the one-excitation sector
    # (an exceptional point), so an eigenbasis of H_eff is singular
    "exceptional_point_jc": lambda: single_site_liouvillian(
        JCParams(1.0, 1.0, 0.01), 3, DissipationRates(kappa=0.04)),
}


def dark_vacuum():
    """An undriven dimer, whose vacuum the no-jump evolution leaves stationary,
    and its space."""
    params = chain(JCParams(1.0, 1.0, 0.1), 2, 0.2)
    space = LatticeSpace.uniform(2, 1)
    return build_liouvillian(build_jchm(params, space),
                             DissipationRates(gamma1=0.1, gamma_kappa=0.05), space), space


@st.composite
def open_lattices(draw):
    """Random 1-3 site chains (Hilbert dimension <= 216) with random rates, driven
    sites and drive."""
    n_sites = draw(st.integers(1, 3))
    n_max = draw(st.integers(1, 3 if n_sites < 3 else 2))
    freq, coupling, rate = st.floats(0.5, 1.5), st.floats(0.0, 0.3), st.floats(0.0, 0.3)
    sites = tuple(JCParams(draw(freq), draw(freq), draw(coupling)) for _ in range(n_sites))
    edges = tuple((i, i + 1, draw(st.floats(-0.3, 0.3))) for i in range(n_sites - 1))
    rates = DissipationRates(gamma1=draw(rate), gamma_phi=draw(rate),
                             gamma_kappa=draw(rate), kappa=draw(rate))
    driven = draw(st.lists(st.integers(0, n_sites - 1), min_size=1, unique=True))
    model = DrivenLattice(LatticeParams(sites, edges), LatticeSpace.uniform(n_sites, n_max),
                          rates, driven)
    return (model.generator(draw(st.floats(0.0, 0.2)), draw(freq)),
            draw(st.integers(0, 2**32 - 1)))


class TestMatrixFreeGenerator:
    @settings(max_examples=40)
    @given(open_lattices())
    def test_apply_matches_matrix_and_preserves_trace_and_hermiticity(self, case):
        liouv, seed = case
        rng = np.random.default_rng(seed)
        d = liouv.dim
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        lx = liouv.apply(x)
        assert np.max(np.abs(lx.reshape(-1) - liouv.matrix @ x.reshape(-1))) <= 1e-12
        assert abs(np.trace(lx)) <= 1e-12
        rho = random_state(d, rng)
        lrho = liouv.apply(rho)
        assert np.max(np.abs(lrho - lrho.conj().T)) <= 1e-12
        assert abs(np.trace(lrho)) <= 1e-12


class TestLiouvillianStructure:
    def test_trace_preservation_defect(self):
        params, space, h = empty_cavity(4)
        liouv = build_liouvillian(h, DissipationRates(gamma_kappa=0.1), space)
        assert liouv.trace_preservation_defect() <= 1e-12

    def test_trace_derivative_vanishes_on_random_state(self):
        params, space, h = empty_cavity(3)
        rates = DissipationRates(gamma1=0.1, gamma_phi=0.05, gamma_kappa=0.2)
        liouv = DrivenLattice(params, space, rates).generator(0.05, 0.97)
        rng = np.random.default_rng(2)
        m = rng.standard_normal((space.total_dim,) * 2) + 1j * rng.standard_normal((space.total_dim,) * 2)
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        drho = liouv.apply(rho)
        assert abs(np.trace(drho)) <= 1e-10

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            DissipationRates(gamma1=-0.1)

    def test_port_rates_add_to_uniform_loss(self):
        # Σ C†C holds (γ_κ + κ) a†a on the port site and γ_κ a†a elsewhere
        space = LatticeSpace.uniform(2, 2)
        rates = DissipationRates(gamma_kappa=0.02, kappa=0.03)
        loss = sum(c.getH() @ c for c in collapse_operators(rates, space))
        n0, n1 = (assemble([(1.0, (diagonal_factor(space, i, lambda n, q: n),))],
                           occupation_basis(space)) for i in (0, 1))
        assert abs(loss - (0.05 * n0 + 0.02 * n1)).max() <= 1e-14

    def test_rates_are_hashable(self):
        assert hash(DissipationRates()) == hash(DissipationRates(kappa=0.0))
        a = DissipationRates(gamma1=0.01, kappa=0.03)
        b = DissipationRates(gamma1=0.01, kappa=0.03)
        assert a == b and hash(a) == hash(b)
        assert a != DissipationRates(gamma1=0.01, kappa=0.04)

    def test_port_rates_cannot_be_changed_after_validation(self):
        rates = DissipationRates(kappa=0.03)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rates.kappa = -1.0
        assert rates.kappa == 0.03
        with pytest.raises(ValueError, match="non-negative"):
            DissipationRates(kappa=-0.03)

    def test_nonhermitian_hamiltonian_rejected(self):
        # the one Hermiticity check on a Hamiltonian: K = i(H† - H) breaks the trace
        params, space, h = empty_cavity(3)
        a = photon_op_on(space, 0, "a")
        with pytest.raises(ValueError, match="trace"):
            build_liouvillian(h + 0.1j * a.getH() @ a, DissipationRates(gamma_kappa=0.1), space)

    def test_generator_with_shared_jumps_matches_a_fresh_one(self):
        params = chain(JCParams(1.0, 0.97, 0.08), 2, 0.04)
        space = LatticeSpace.uniform(2, 2)
        rates = DissipationRates(gamma1=0.02, gamma_phi=0.01, gamma_kappa=0.01, kappa=0.03)
        jumps = collapse_operators(rates, space)
        base = Liouvillian(build_jchm(params, space), jumps)
        a = photon_op_on(space, 0, "a").toarray()
        h = build_jchm(params, space).toarray() - 0.95 * a.conj().T @ a + 0.02 * (a + a.conj().T)
        shared, fresh = base.with_hamiltonian(h), Liouvillian(h, jumps)
        assert shared.jumps is base.jumps
        rng = np.random.default_rng(3)
        rho = random_state(shared.dim, rng)
        assert np.max(np.abs(shared.apply(rho) - fresh.apply(rho))) <= 1e-14
        assert shared.scale() == fresh.scale()
        assert (shared.matrix != fresh.matrix).nnz == 0
        extended = lindblad._BorderedBatch([shared]).apply_extended([rho[None]])[0][0]
        assert np.array_equal(extended, lindblad._BorderedBatch([fresh]).apply_extended([rho[None]])[0][0])
        assert np.max(np.abs(extended - fresh.apply(rho))) <= 1e-14
        with pytest.raises(ValueError, match="trace"):
            base.with_hamiltonian(h + 0.1j * a.conj().T @ a)
        with pytest.raises(ValueError, match="trace"):
            Liouvillian(h + 0.1j * a.conj().T @ a, jumps)


class TestEvolve:
    def test_closed_diagonal_evolution_preserves_populations(self):
        params, space, h = empty_cavity(4)
        liouv = build_liouvillian(h, DissipationRates(), space)
        rng = np.random.default_rng(8)
        pop = rng.random(space.total_dim)
        pop /= pop.sum()
        rho0 = DensityMatrix(np.diag(pop).astype(complex))
        res = oracles.evolve(liouv, rho0, t_final=20.0)
        assert np.allclose(np.diag(res.final.rho).real, pop, atol=1e-10)

    def test_cavity_decay_matches_exponential(self):
        params, space, h = empty_cavity(4)
        kappa_t = 0.5
        liouv = build_liouvillian(h, DissipationRates(gamma_kappa=0.3, kappa=0.2), space)
        vec = np.zeros(space.total_dim)
        vec[oracles.basis_index(space, [(1, 0)])] = 1.0
        res = oracles.evolve(liouv, DensityMatrix.pure(vec), t_final=4.0, dt_control=0.25)
        n_op = photon_number_op(space)
        for t, state in zip(res.times, res.states):
            assert expectation(n_op, state).real == pytest.approx(np.exp(-kappa_t * t), abs=1e-6)
        assert res.trace_drift < 1e-8
        assert res.min_eigenvalue >= -1e-8

    def test_vacuum_rabi_oscillation_period(self):
        g = 0.1
        params = LatticeParams.single_site(JCParams(1.0, 1.0, g))
        space = LatticeSpace.uniform(1, 3)
        h = build_jchm(params, space)
        liouv = build_liouvillian(h, DissipationRates(), space)
        vec = np.zeros(space.total_dim)
        vec[oracles.basis_index(space, [(1, 0)])] = 1.0
        period = 2 * np.pi / (2 * g)
        res = oracles.evolve(liouv, DensityMatrix.pure(vec), t_final=period, dt_control=period / 4)
        n_vals = [expectation(photon_number_op(space), s).real for s in res.states]
        assert n_vals[0] == pytest.approx(1.0, abs=1e-9)
        assert n_vals[2] == pytest.approx(0.0, abs=1e-7)   # half period: excitation on qubit
        assert n_vals[4] == pytest.approx(1.0, abs=1e-7)

    def test_trajectory_states_keep_unit_trace(self):
        params, space, h = empty_cavity(3)
        liouv = DrivenLattice(params, space, DissipationRates(gamma_kappa=0.4)).generator(0.02, 1.0)
        res = oracles.evolve(liouv, oracles.vacuum(space), t_final=30.0, dt_control=3.0)
        assert res.trace_drift < 1e-8


class TestSteadyState:
    def test_undriven_dissipative_jc_relaxes_to_vacuum(self):
        params = LatticeParams.single_site(JCParams(1.0, 0.98, 0.05))
        space = LatticeSpace.uniform(1, 3)
        h = build_jchm(params, space)
        liouv = build_liouvillian(h, DissipationRates(gamma1=0.05, gamma_kappa=0.1), space)
        rho = steady_state(liouv)
        vac = oracles.vacuum(space)
        assert np.linalg.norm(rho.rho - vac.rho) < 1e-9

    @pytest.mark.parametrize("xi,omega_d", [(0.003, 0.98), (0.005, 1.0), (0.002, 1.03)])
    def test_driven_cavity_matches_closed_form(self, xi, omega_d):
        params, space, h = empty_cavity(8)
        rates = DissipationRates(gamma1=0.01, gamma_kappa=0.02, kappa=0.03)
        liouv = DrivenLattice(params, space, rates).generator(xi, omega_d)
        rho = steady_state(liouv)
        a = photon_op_on(space, 0, "a")
        want = driven_cavity_closed_form(xi, 1.0 - omega_d, 0.05)
        assert abs(expectation(a, rho) - want) < 1e-8

    def test_nullspace_equals_longtime_evolution(self):
        params = LatticeParams.single_site(JCParams(1.0, 1.0, 0.08))
        space = LatticeSpace.uniform(1, 4)
        h = build_jchm(params, space)
        rates = DissipationRates(gamma1=0.02, gamma_kappa=0.03)
        liouv = DrivenLattice(params, space, rates).generator(0.01, 0.93)
        r1 = steady_state(liouv)
        # slowest decay rate 0.01: e^{-0.01 t} < 1e-8 well before t = 2000
        r2 = oracles.evolve(liouv, oracles.vacuum(space), t_final=2000.0).final
        a = photon_op_on(space, 0, "a")
        assert abs(expectation(a, r1) - expectation(a, r2)) < 1e-6

    @pytest.mark.parametrize("name", sorted(STEADY_SYSTEMS))
    def test_matches_dense_nullspace_oracle(self, name):
        liouv = STEADY_SYSTEMS[name]()
        rho = steady_state(liouv)
        assert np.linalg.norm(rho.rho - dense_nullspace_steady(liouv)) <= 1e-10

    @pytest.mark.parametrize("omega_r, g, xis", [
        (50.0, 1.0, (0.004,)),
        (5.0, 0.1, (0.004, 0.002)),
    ], ids=["omega_r_50", "omega_r_5"])
    def test_weak_drive_g2_matches_the_drive_series(self, omega_r, g, xis):
        # the periodic dimer of dimer-g2 (J 0.5, n_max 3, d = 64), both sites
        # driven at the band bottom - g.  Its two-photon populations are ~ξ⁴ of
        # the trace, below the absolute error of a double-precision solve.  With
        # the refinement's residual formed in extended precision g²(0) is within
        # 1.6e-8, 3.0e-8 and 1.1e-6 of the series at these points; formed in
        # double precision it is off by 3.2e-3, 5.1e-5 and 8.6e-4
        params = band_resonant_chain(omega_r, g, 0.5, 2)
        omega_d = photon_band_minimum(params) - g
        space = LatticeSpace.uniform(2, 3)
        model = DrivenLattice(params, space, DissipationRates(gamma1=0.01, gamma_kappa=0.01),
                              driven_sites=(0, 1))
        series = oracles.weak_drive_series(model.generator(0.0, omega_d),
                                           model.generator(1.0, omega_d), space, 0, order=14)
        for xi in xis:
            g2 = g2_zero(steady_state(model.generator(xi, omega_d)), 0, space)
            assert g2 == pytest.approx(series.g2(xi), rel=1e-5)

    @pytest.mark.parametrize("name", sorted(STEADY_SYSTEMS))
    def test_residual_scale_is_below_infinity_norm(self, name):
        liouv = STEADY_SYSTEMS[name]()
        # a lower bound in exact arithmetic; the margin covers roundoff when a
        # row holds its diagonal entry alone
        assert 0 < liouv.scale() <= spla.norm(liouv.matrix, np.inf) * (1 + 1e-12)

    def test_undriven_dark_vacuum_keeps_preconditioner_finite(self):
        # the vacuum has H_eff eigenvalue 0, so the no-jump inverse has a zero
        # denominator that must be regularized, not divided by
        liouv, space = dark_vacuum()
        assert np.any(np.abs(np.linalg.eigvals(liouv.h_eff)) < 1e-12)
        rho = steady_state(liouv)
        assert np.linalg.norm(rho.rho - oracles.vacuum(space).rho) < 1e-12

    def test_degenerate_steady_space_reported(self):
        # g = 0 with no qubit dissipation: qubit populations are conserved,
        # so the stationary space is two-dimensional and the probe's random
        # right-hand side has no solution
        params, space, h = empty_cavity(4)
        liouv = DrivenLattice(params, space, DissipationRates(gamma_kappa=0.05)).generator(0.01, 1.0)
        assert oracles.unique_probe_residual(liouv) > oracles.UNIQUE_PROBE_RTOL

    def test_unique_steady_space_passes_the_probe(self):
        # the same cavity with qubit relaxation has one steady state
        params, space, h = empty_cavity(4)
        rates = DissipationRates(gamma1=0.05, gamma_kappa=0.05)
        liouv = DrivenLattice(params, space, rates).generator(0.01, 1.0)
        assert oracles.unique_probe_residual(liouv) <= oracles.UNIQUE_PROBE_RTOL

    def test_requires_dissipation(self):
        params, space, h = empty_cavity(3)
        liouv = build_liouvillian(h, DissipationRates(), space)
        with pytest.raises(ValueError, match="dissipative"):
            steady_state(liouv)

    def test_generator_without_jumps_is_refused(self):
        params, space, h = empty_cavity(3)
        liouv = Liouvillian(h, ())
        assert liouv.dim == space.total_dim
        with pytest.raises(ValueError, match="dissipative"):
            steady_state(liouv)

    def test_residual_above_the_bound_raises(self, monkeypatch):
        liouv = STEADY_SYSTEMS["detuned_jc"]()
        monkeypatch.setattr(lindblad, "STEADY_RESIDUAL_RTOL", 0.0)
        with pytest.raises(ConvergenceError, match="residual"):
            steady_state(liouv)

    def test_non_physical_state_is_not_converged(self, monkeypatch):
        # a solved state that fails the DensityMatrix bounds is a failed solve,
        # not an input error: every eigenvalue is below a floor of 1
        liouv = STEADY_SYSTEMS["detuned_jc"]()
        monkeypatch.setattr(hilbert, "RHO_EIGENVALUE_FLOOR", 1.0)
        with pytest.raises(ConvergenceError, match="steady state 0 of the batch: .*eigenvalue"):
            steady_state(liouv)


def preconditioned(liouv, z):
    """P z for the steady-state preconditioner P of ``liouv`` and a d×d z."""
    return lindblad._BorderedBatch([liouv]).precondition(np.arange(1), z.reshape(1, -1))[0]


def no_jump(liouv, y):
    """The no-jump part of ``liouv`` on y: -i(H_eff y - y H_eff†)."""
    return -1j * (liouv.h_eff @ y - y @ liouv.h_eff.conj().T)


def schur_generator(d, upper_scale, seed):
    """A generator whose H_eff = U (Λ + ε N) U†, for a random unitary U,
    Im Λ in [-0.6, -0.2], a random strictly upper N of norm about 1, and
    ε = ``upper_scale``: normal for ε = 0.  The jump is the square root of
    i(H_eff - H_eff†), positive definite at the ε ≤ 0.05 of these tests."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    lam = rng.uniform(-1, 1, d) - 1j * rng.uniform(0.2, 0.6, d)
    upper = np.triu(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)), 1) / d
    h_eff = u @ (np.diag(lam) + upper_scale * upper) @ u.conj().T
    loss_val, loss_vec = np.linalg.eigh(1j * (h_eff - h_eff.conj().T))
    jump = (loss_vec * np.sqrt(loss_val)) @ loss_vec.conj().T
    return Liouvillian(0.5 * (h_eff + h_eff.conj().T), [sp.csr_matrix(jump)])


def random_matrix(d, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


class TestPreconditioner:
    @settings(max_examples=30)
    @given(st.integers(2, 12), st.integers(0, 2**32 - 1))
    def test_inverts_a_normal_no_jump_part_exactly(self, d, seed):
        # T is diagonal, so the correction sweep vanishes and W₀ = C ⊘ D is exact
        liouv = schur_generator(d, 0.0, seed)
        z = random_matrix(d, seed)
        exact = oracles.no_jump_inverse(liouv.h_eff, z)
        assert np.linalg.norm(preconditioned(liouv, z) - exact) <= 1e-12 * np.linalg.norm(exact)

    @pytest.mark.parametrize("seed", range(5))
    def test_defect_is_second_order_in_the_non_normal_part(self, seed):
        # S P = I - (S_N S_D⁻¹)²: halving N quarters the defect.  Without the
        # correction sweep, or with its sign flipped, the defect is first
        # order and only halves
        d = 8
        z = random_matrix(d, seed + 100)
        defects, errors = [], []
        for eps in (0.05, 0.025):
            liouv = schur_generator(d, eps, seed)
            y = preconditioned(liouv, z)
            defects.append(np.linalg.norm(no_jump(liouv, y) - z))
            errors.append(np.linalg.norm(y - oracles.no_jump_inverse(liouv.h_eff, z)))
        assert defects[1] > 1e-8 * np.linalg.norm(z)          # far above roundoff
        assert 3.5 < defects[0] / defects[1] < 4.5
        assert 3.5 < errors[0] / errors[1] < 4.5

    @pytest.mark.parametrize("name", sorted(STEADY_SYSTEMS) + ["dark_vacuum"])
    def test_is_finite_on_every_solved_system(self, name):
        # exceptional points and stationary modes included
        liouv = dark_vacuum()[0] if name == "dark_vacuum" else STEADY_SYSTEMS[name]()
        y = preconditioned(liouv, random_matrix(liouv.dim, 3))
        assert np.all(np.isfinite(y)) and np.linalg.norm(y) > 0


def batched(*matrices):
    """The ``matvec`` of ``lindblad._gmres`` for the systems A_m of ``matrices``,
    and the list of its applications per member."""
    applications = [0] * len(matrices)

    def matvec(members, v):
        for m in members:
            applications[m] += 1
        return np.stack([matrices[m] @ row for m, row in zip(members, v)])

    return matvec, applications


def padded(a, b, n):
    """A ⊕ I and (b, 0) of size n: the same Krylov spaces, and x padded by zeros."""
    k = a.shape[0]
    a_pad = np.eye(n, dtype=complex)
    a_pad[:k, :k] = a
    return a_pad, np.concatenate([b, np.zeros(n - k, dtype=complex)])


def non_normal_system():
    # well conditioned but far from normal: a shifted random matrix plus a
    # strictly upper-triangular part
    n = 120
    rng = np.random.default_rng(11)
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = 2 * np.eye(n) + 0.5 * noise / np.sqrt(n) + np.triu(noise.conj(), 1) / n
    return a, rng.standard_normal(n) + 1j * rng.standard_normal(n)


def eigenvector_system():
    # e₀ is an eigenvector of an upper-triangular matrix, so the Krylov
    # space is exhausted after one step
    n = 30
    rng = np.random.default_rng(12)
    a = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) + 3 * np.eye(n)
    b = np.zeros(n, dtype=complex)
    b[0] = 2.0                   # A b is exactly a multiple of b
    return a, b


def singular_system():
    # b has a component outside the range of A, so no x reaches the tolerance
    n = 40
    rng = np.random.default_rng(13)
    u, s, vh = np.linalg.svd(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    s[-1] = 0.0
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return (u * s) @ vh, b, abs(np.vdot(u[:, -1], b)) / np.linalg.norm(b)


def zero_pivot_system():
    # b in the null space of a diagonal A: A b = 0 exactly leaves a zero
    # pivot, whose direction is dropped
    n = 40
    return np.diag(np.arange(n, dtype=complex)), np.eye(n, dtype=complex)[0]


def solve_alone(a, b, rtol):
    """x, residual, Krylov steps and applications of ``_gmres`` on A x = b alone."""
    matvec, applications = batched(a)
    x, residual, steps = lindblad._gmres(matvec, b[None], rtol)
    return x[0], residual[0], steps[0], applications[0]


class TestGmres:
    def check_non_normal(self, a, b, x, residual, applications):
        # more than one restart cycle ran, and no more than the three that GMRES(10)
        # needs here (a wrong Hessenberg reduction takes seven)
        assert 10 + 1 < applications <= 3 * (10 + 1)
        assert residual <= 1e-12
        assert residual == pytest.approx(np.linalg.norm(b - a @ x) / np.linalg.norm(b), rel=1e-12)
        x_ref = np.linalg.solve(a, b)
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)

    def check_eigenvector(self, a, b, x, residual):
        assert residual <= 1e-12
        assert x[0] == pytest.approx(b[0] / a[0, 0], rel=1e-14)

    def check_singular(self, a, b, outside, x, residual):
        # the uniqueness probe of tests/oracles.py relies on this
        assert residual > 1e-8
        assert residual >= outside * (1 - 1e-12)
        assert residual == pytest.approx(np.linalg.norm(b - a @ x) / np.linalg.norm(b), rel=1e-12)

    def check_zero_pivot(self, x, residual):
        assert residual == 1.0
        assert not x.any()

    def test_restarted_solve_matches_a_dense_solve(self, monkeypatch):
        monkeypatch.setattr(lindblad, "STEADY_GMRES_RESTART", 10)
        a, b = non_normal_system()
        x, residual, steps, applications = solve_alone(a, b, 1e-12)
        self.check_non_normal(a, b, x, residual, applications)
        assert steps < applications          # one true-residual product per cycle

    def test_lucky_breakdown_returns_without_dividing_by_zero(self):
        a, b = eigenvector_system()
        with np.errstate(all="raise"):
            x, residual, steps, _ = solve_alone(a, b, 1e-12)
        self.check_eigenvector(a, b, x, residual)
        assert steps == 1

    def test_singular_system_reports_its_residual_and_does_not_raise(self):
        a, b, outside = singular_system()
        x, residual, _, _ = solve_alone(a, b, 1e-8)
        self.check_singular(a, b, outside, x, residual)
        x, residual, _, _ = solve_alone(*zero_pivot_system(), 1e-8)
        self.check_zero_pivot(x, residual)

    def test_zero_right_hand_side_takes_no_step(self):
        a, _ = eigenvector_system()
        x, residual, steps, applications = solve_alone(a, np.zeros(30, dtype=complex), 1e-8)
        assert not x.any()
        assert residual == 0.0
        assert steps == applications == 0

    def test_mixed_batch_matches_each_member_alone(self, monkeypatch):
        # the four systems above in one batch, padded to one size: each member
        # stops, restarts, breaks down or drops its zero pivot on its own
        monkeypatch.setattr(lindblad, "STEADY_GMRES_RESTART", 10)
        non_normal = non_normal_system()
        eigenvector = eigenvector_system()
        singular_a, singular_b, outside = singular_system()
        zero_pivot = zero_pivot_system()
        systems = [non_normal, eigenvector, (singular_a, singular_b), zero_pivot]
        n = 120
        pads = [padded(a, b, n) for a, b in systems]
        matvec, applications = batched(*(a for a, _ in pads))
        rhs = np.stack([b for _, b in pads])
        # one tolerance for the batch, the tightest of the four tests; the
        # singular members miss any tolerance, so their assertions still hold
        with np.errstate(all="raise"):
            x, residual, steps = lindblad._gmres(matvec, rhs, 1e-12)
        for m, (a, b) in enumerate(systems):
            k = a.shape[0]
            x_alone, residual_alone, steps_alone, applications_alone = solve_alone(a, b, 1e-12)
            assert not x[m, k:].any()
            assert np.linalg.norm(x[m, :k] - x_alone) <= 1e-12 * np.linalg.norm(x_alone)
            assert residual[m] == pytest.approx(residual_alone, rel=1e-12)
            assert (steps[m], applications[m]) == (steps_alone, applications_alone)
        self.check_non_normal(*non_normal, x[0], residual[0], applications[0])
        self.check_eigenvector(*eigenvector, x[1, :30], residual[1])
        self.check_singular(singular_a, singular_b, outside, x[2, :40], residual[2])
        self.check_zero_pivot(x[3], residual[3])


class TestG2:
    def coherent_steady(self, xi=0.004):
        params, space, h = empty_cavity(8)
        rates = DissipationRates(gamma1=0.01, gamma_kappa=0.05)
        liouv = DrivenLattice(params, space, rates).generator(xi, 1.0)
        return space, steady_state(liouv)

    def test_coherent_state_is_poissonian(self):
        space, rho = self.coherent_steady()
        assert g2_zero(rho, 0, space) == pytest.approx(1.0, abs=1e-6)

    def test_fock_one_gives_zero(self):
        space = LatticeSpace.uniform(1, 3)
        vec = np.zeros(space.total_dim)
        vec[oracles.basis_index(space, [(1, 0)])] = 1.0
        rho = DensityMatrix.pure(vec)
        assert g2_zero(rho, 0, space) == pytest.approx(0.0, abs=1e-12)

    def test_blockade_antibunching(self):
        # drive resonant with the lower polariton; U = g(2-sqrt(2)) dwarfs
        # both the drive and the linewidth, so multi-photon processes are
        # frozen out
        g, wr = 1.0, 50.0
        de = 0.01 * g
        params = LatticeParams.single_site(JCParams(wr, wr, g))
        space = LatticeSpace.uniform(1, 6)
        rates = DissipationRates(gamma1=de, kappa=de)
        liouv = DrivenLattice(params, space, rates).generator(0.01 * g, wr - g)
        rho = steady_state(liouv)
        assert g2_zero(rho, 0, space) < 0.1

    def test_vacuum_gives_nan(self):
        # below the photon floor g²(0) is undefined, and every command reports NaN
        space = LatticeSpace.uniform(1, 2)
        assert math.isnan(g2_zero(oracles.vacuum(space), 0, space))

    def test_weak_photon_number_above_the_floor_gives_finite_g2(self):
        # ⟨a†a⟩ = 1e-10 lies above the photon floor of 1e-12: DrivenLattice.point
        # reports g²(0) = 2p₂/⟨a†a⟩² = 0.2 for the two-photon population p₂, not NaN
        space = LatticeSpace.uniform(1, 3)
        model = DrivenLattice(LatticeParams.single_site(JCParams(1.0, 1.0, 0.1)), space,
                              DissipationRates(kappa=0.01))
        p1, p2 = 1e-10 - 2e-21, 1e-21
        rho = np.zeros((space.total_dim, space.total_dim), dtype=complex)
        for n, p in ((0, 1.0 - p1 - p2), (1, p1), (2, p2)):
            k = oracles.basis_index(space, [(n, 0)])
            rho[k, k] = p
        stats = lindblad.KrylovStats(0, 0, 0.0, 0.0, (space.total_dim,))
        point = model.point(0.0, 1.0, lindblad.SteadyState(rho, stats))
        assert point.n_photon == pytest.approx(1e-10, rel=1e-12)
        assert point.g2 == pytest.approx(0.2, rel=1e-9)


def mirror_permutation(space):
    """The occupation-state permutation of the site mirror, from the product
    configurations: (c₀, …, c_{n-1}) ↦ (c_{n-1}, …, c₀)."""
    configs = itertools.product(*[[(n, q) for n in range(site.photon_cutoff + 1) for q in (0, 1)]
                                  for site in space.sites])
    perm = np.zeros(space.total_dim, dtype=int)
    for config in configs:
        perm[oracles.basis_index(space, config)] = oracles.basis_index(space, config[::-1])
    return perm


@st.composite
def mirror_lattices(draw):
    """Random 2- and 3-site lattices (Hilbert dimension <= 64) that the site
    mirror maps to themselves, with κ = 0, and qubit and photon loss on every
    site (one steady state)."""
    n_sites = draw(st.integers(2, 3))
    n_max = draw(st.integers(1, 3 if n_sites == 2 else 1))
    freq, coupling, hop = st.floats(0.5, 1.5), st.floats(0.0, 0.3), st.floats(-0.3, 0.3)
    outer = JCParams(draw(freq), draw(freq), draw(coupling))
    sites = (outer,) * 2 if n_sites == 2 else (outer, JCParams(draw(freq), draw(freq),
                                                               draw(coupling)), outer)
    hopping = draw(hop)
    edges = [(i, i + 1, hopping) for i in range(n_sites - 1)]
    if n_sites == 3 and draw(st.booleans()):
        edges.append((0, 2, draw(hop)))
    driven = draw(st.sampled_from([(0, 1)] if n_sites == 2 else [(1,), (0, 2), (0, 1, 2)]))
    rates = DissipationRates(gamma1=draw(st.floats(0.05, 0.3)), gamma_phi=draw(st.floats(0.0, 0.3)),
                             gamma_kappa=draw(st.floats(0.05, 0.3)))
    space = LatticeSpace.uniform(n_sites, n_max)
    model = DrivenLattice(LatticeParams(sites, tuple(edges)), space, rates, driven)
    return model, space, draw(st.floats(0.0, 0.2)), draw(freq)


MIRROR_RATES = DissipationRates(gamma1=0.01, gamma_kappa=0.01)


class TestMirrorBlocks:
    """A driven lattice that the site mirror π(i) = n - 1 - i maps to itself is
    solved on the mirror's even and odd blocks; the state must be the one
    solved in the occupation basis, as one block."""

    CASES = {
        # (params, n_max, rates, driven sites, ξ, ω_d, block dimensions)
        "periodic_dimer_2": (band_resonant_chain(50.0, 1.0, 0.5, 2), 2, MIRROR_RATES, (0, 1),
                             0.01, 48.5, (21, 15)),
        "periodic_dimer_3": (band_resonant_chain(50.0, 1.0, 0.5, 2), 3, MIRROR_RATES, (0, 1),
                             0.01, 48.5, (36, 28)),
        "open_chain": (chain(JCParams(1.0, 0.95, 0.05), 2, 0.03), 3,
                       DissipationRates(gamma1=0.01, gamma_phi=0.005, gamma_kappa=0.02), (0, 1),
                       0.02, 0.96, (36, 28)),
        "ring_3": (chain(JCParams(1.0, 1.0, 0.05), 3, 0.02, boundary="periodic"), 2,
                   DissipationRates(gamma1=0.01, gamma_kappa=0.02), (1,), 0.02, 0.93, (126, 90)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_block_solve_matches_the_occupation_basis(self, name):
        params, n_max, rates, driven, xi, omega_d, dims = self.CASES[name]
        space = LatticeSpace.uniform(params.n_sites, n_max)
        model = DrivenLattice(params, space, rates, driven)
        gen = model.generator(xi, omega_d)
        state = steady_state(gen)
        whole = steady_state(Liouvillian(gen.h_rot, gen.jumps))
        assert state.krylov.block_dims == dims
        assert whole.krylov.block_dims == (space.total_dim,)
        assert np.max(np.abs(state.rho - whole.rho)) <= 1e-10
        assert g2_zero(state, 0, space) == pytest.approx(g2_zero(whole, 0, space), rel=1e-6)

    @pytest.mark.parametrize("params, rates, driven", [
        (band_resonant_chain(50.0, 1.0, 0.5, 2), DissipationRates(gamma1=0.01, kappa=0.01), (0, 1)),
        (LatticeParams((JCParams(50.0, 50.0, 1.0), JCParams(50.2, 50.0, 1.0)), ((0, 1, 0.5),)),
         MIRROR_RATES, (0, 1)),
        (band_resonant_chain(50.0, 1.0, 0.5, 2), MIRROR_RATES, (0,)),
    ], ids=["port", "unequal_omega_r", "one_driven_site"])
    def test_broken_mirror_runs_on_one_block(self, params, rates, driven):
        space = LatticeSpace.uniform(2, 2)
        model = DrivenLattice(params, space, rates, driven)
        gen = model.generator(0.01, 48.5)
        state = steady_state(gen)
        assert gen.mirror is None
        assert state.krylov.block_dims == (36,)
        assert np.array_equal(state.rho, steady_state(Liouvillian(gen.h_rot, gen.jumps)).rho)

    def test_a_mirror_the_model_breaks_is_refused(self):
        space = LatticeSpace.uniform(2, 2)
        model = DrivenLattice(band_resonant_chain(50.0, 1.0, 0.5, 2), space, MIRROR_RATES, (0, 1))
        gen = model.generator(0.01, 48.5)
        assert np.array_equal(gen.mirror, mirror_permutation(space))
        with pytest.raises(ValueError, match="not symmetric"):
            gen.with_hamiltonian(gen.h_rot + 0.1 * photon_number_op(space, 0).toarray())
        port = collapse_operators(DissipationRates(gamma1=0.01, kappa=0.01), space)
        with pytest.raises(ValueError, match="not covariant"):
            Liouvillian(gen.h_rot, port, gen.mirror)

    @settings(max_examples=10)
    @given(mirror_lattices())
    def test_full_space_steady_state_is_mirror_symmetric(self, case):
        # the premise of the block solve: L commutes with ρ ↦ PρP, so its one
        # steady state, solved here in the occupation basis, has PρP = ρ
        model, space, xi, omega_d = case
        gen = model.generator(xi, omega_d)
        rho = steady_state(Liouvillian(gen.h_rot, gen.jumps)).rho
        perm = mirror_permutation(space)
        assert np.max(np.abs(rho[np.ix_(perm, perm)] - rho)) <= 1e-10
        state = steady_state(gen)
        assert len(state.krylov.block_dims) == 2
        assert np.max(np.abs(state.rho - rho)) <= 1e-10


class TestTransmissionScan:
    def setup_blockade(self, n_max=6):
        g, wr = 1.0, 50.0
        de = 0.01 * g
        params = LatticeParams.single_site(JCParams(wr, wr, g))
        space = LatticeSpace.uniform(1, n_max)
        rates = DissipationRates(gamma1=de, kappa=de)
        return params, space, rates, g, wr, de

    def test_weak_drive_vacuum_rabi_peaks(self):
        params, space, rates, g, wr, de = self.setup_blockade()
        grid = np.concatenate([
            np.linspace(wr - g - 4 * de, wr - g + 4 * de, 41),
            np.linspace(wr + g - 4 * de, wr + g + 4 * de, 41),
        ])
        pts = transmission_scan(params, space, rates, [0.01 * de], grid)
        T = np.array([q.abs_a for q in pts])
        lower = grid[np.argmax(T[:41])]
        upper = grid[41 + np.argmax(T[41:])]
        assert lower == pytest.approx(wr - g, abs=de / 2)
        assert upper == pytest.approx(wr + g, abs=de / 2)

    def test_weak_drive_linewidth(self):
        # the power lineshape |⟨a⟩|² of the polariton peak has FWHM δε
        params, space, rates, g, wr, de = self.setup_blockade()
        grid = np.linspace(wr - g - 6 * de, wr - g + 6 * de, 121)
        pts = transmission_scan(params, space, rates, [0.01 * de], grid)
        fit = oracles.fit_lorentzian(grid, [q.abs_a ** 2 for q in pts])
        assert fit.center == pytest.approx(wr - g, abs=0.05 * de)
        assert fit.fwhm == pytest.approx(de, rel=0.02)

    def test_linear_cavity_single_lorentzian(self):
        params, space, h = empty_cavity(6)
        rates = DissipationRates(gamma1=0.01, gamma_kappa=0.0, kappa=0.04)
        grid = np.linspace(0.9, 1.1, 81)
        for xi in (0.001, 0.02):
            pts = transmission_scan(params, space, rates, [xi], grid)
            T = np.array([q.abs_a for q in pts])
            peaks = np.flatnonzero((T[1:-1] > T[:-2]) & (T[1:-1] > T[2:])) + 1
            assert len(peaks) == 1
            assert grid[peaks[0]] == pytest.approx(1.0, abs=grid[1] - grid[0])

    def test_detuning_symmetry(self):
        # at delta = 0 with gamma1 = gamma_kappa and no dephasing, the scan is
        # symmetric under omega_d -> 2 omega_r - omega_d
        g, wr, de = 1.0, 50.0, 0.01
        params = LatticeParams.single_site(JCParams(wr, wr, g))
        space = LatticeSpace.uniform(1, 5)
        rates = DissipationRates(gamma1=de, gamma_kappa=de)
        offsets = np.array([-1.5 * g, -g, -0.3 * g, 0.3 * g, g, 1.5 * g])
        pts = transmission_scan(params, space, rates, [0.005 * g], wr + offsets)
        T = np.array([q.abs_a for q in pts])
        assert np.allclose(T, T[::-1], atol=1e-6)

    def test_blockade_monotonic_in_drive(self):
        params, space, rates, g, wr, de = self.setup_blockade()
        grid = [wr - g]
        g2s = []
        for xi in (0.005 * g, 0.01 * g, 0.02 * g):
            pts = transmission_scan(params, space, rates, [xi], grid)
            g2s.append(pts[0].g2)
        assert g2s[0] < g2s[1] < g2s[2]

    def test_normalized_column_peaks_at_one(self):
        params, space, rates, g, wr, de = self.setup_blockade(n_max=4)
        grid = np.linspace(wr - g - 3 * de, wr - g + 3 * de, 21)
        pts = transmission_scan(params, space, rates, [0.01 * de, 0.05 * de], grid)
        for xi in (0.01 * de, 0.05 * de):
            block = [q.t_norm for q in pts if q.xi == xi]
            assert max(block) == pytest.approx(1.0)

    def test_scan_generator_matches_build_liouvillian(self):
        # the generator of H - ω_d N + ξ Σ_m (a_m + a_m†), built here from the Kronecker lifts
        params = chain(JCParams(1.0, 0.97, 0.08), 2, 0.04)
        space = LatticeSpace.uniform(2, 2)
        rates = DissipationRates(gamma1=0.02, gamma_kappa=0.01, kappa=0.03)
        h = oracles.build_jchm(params, space).toarray()
        n_tot = oracles.total_excitation(space).toarray()
        a = [oracles.photon_op_on(space, n, oracles.annihilation(site)).toarray()
             for n, site in enumerate(space.sites)]
        for driven_sites in ((0,), (1,), (0, 1)):
            model = DrivenLattice(params, space, rates, driven_sites)
            x_drive = sum(a[m] + a[m].conj().T for m in driven_sites)
            for xi, omega_d in ((0.0, 0.9), (0.02, 1.03), (0.3, 0.95)):
                scan = model.generator(xi, omega_d)
                full = build_liouvillian(h - omega_d * n_tot + xi * x_drive, rates, space)
                assert scan.dim == full.dim == space.total_dim
                assert np.abs(scan.h_eff - full.h_eff).max() <= 1e-14 * np.abs(full.h_eff).max()
                for c_scan, c_full in zip(scan.jumps, full.jumps, strict=True):
                    assert (c_scan != c_full).nnz == 0

    def test_worker_pool_preserves_order_and_values(self):
        # a 9-point row is one batch at d = 10; two amplitudes give the pool two
        params, space, rates, g, wr, de = self.setup_blockade(n_max=4)
        grid = np.linspace(wr - g - 2 * de, wr - g + 2 * de, 9)
        amplitudes = [0.01 * de, 0.05 * de]
        serial = transmission_scan(params, space, rates, amplitudes, grid, max_workers=1)
        parallel = transmission_scan(params, space, rates, amplitudes, grid, max_workers=2)
        assert serial == parallel
        assert [q.omega_d for q in serial] == [float(w) for w in grid] * 2

    def test_rows_are_cut_into_batches_of_bounded_memory(self, monkeypatch):
        params, space, rates, g, wr, de = self.setup_blockade()        # d = 14
        sizes = []
        solve = lindblad.steady_states

        def recording(generators):
            sizes.append(len(generators))
            return solve(generators)

        monkeypatch.setattr(lindblad, "steady_states", recording)
        transmission_scan(params, space, rates, [0.005, 0.02], np.linspace(48.9, 51.1, 51))
        # the fewest batches of at most STEADY_BATCH_ENTRIES / d² points per row,
        # as even as the row allows
        limit = lindblad.STEADY_BATCH_ENTRIES // space.total_dim ** 2
        assert 1 < limit < 51
        assert len(sizes) == 2 * math.ceil(51 / limit)
        assert sum(sizes) == 102
        assert limit >= max(sizes) >= min(sizes) >= max(sizes) - 1

    def test_batched_members_match_batches_of_one(self):
        params, space, rates, g, wr, de = self.setup_blockade()
        model = DrivenLattice(params, space, rates)
        grid = np.linspace(48.9, 51.1, 17)
        generators = [model.generator(0.02, w) for w in grid]
        batch = steady_states(generators)
        for gen, state in zip(generators, batch):
            alone = steady_state(gen)
            assert np.linalg.norm(state.rho - alone.rho) <= 1e-12 * np.linalg.norm(alone.rho)
            assert state.krylov.steps == alone.krylov.steps
            assert state.krylov.refine_steps == alone.krylov.refine_steps
            assert state.krylov.refine_residual == pytest.approx(alone.krylov.refine_residual,
                                                                 rel=1e-12)

    def test_batch_refuses_generators_with_other_jumps(self):
        params, space, rates, g, wr, de = self.setup_blockade(n_max=3)
        model = DrivenLattice(params, space, rates)
        other = DrivenLattice(params, space, DissipationRates(gamma1=de, gamma_kappa=de))
        with pytest.raises(ValueError, match="jump set"):
            steady_states([model.generator(0.01, wr - g), other.generator(0.01, wr - g)])

    def test_krylov_work_of_the_benchmark_scan(self, monkeypatch):
        # the seed-0 blockade scan: bordered applications summed over the 102
        # members, the true-residual product of each restart cycle included
        params, space, rates, g, wr, de = self.setup_blockade()
        applications = []
        gmres = lindblad._gmres

        def counting(matvec, b, rtol):
            def counted(members, u):
                applications.append(len(members))
                return matvec(members, u)

            return gmres(counted, b, rtol)

        monkeypatch.setattr(lindblad, "_gmres", counting)
        pts = transmission_scan(params, space, rates, [0.005, 0.02], np.linspace(48.9, 51.1, 51))
        assert sum(applications) <= 2450
        # the summary's statistics: every solve met its tolerance
        assert all(q.krylov.residual <= lindblad.STEADY_GMRES_RTOL for q in pts)
        assert all(q.krylov.refine_residual <= lindblad.STEADY_REFINE_RTOL for q in pts)
        assert sum(q.krylov.steps + q.krylov.refine_steps for q in pts) < sum(applications)

    def test_scan_model_pickles_with_its_shared_jumps(self):
        params, space, rates, g, wr, de = self.setup_blockade(n_max=3)
        model = DrivenLattice(params, space, rates)
        copy = pickle.loads(pickle.dumps(model))
        omegas = [wr - g - de, wr - g]
        assert copy.points(0.01, omegas) == model.points(0.01, omegas)


class TestLorentzianFit:
    def test_recovers_synthetic_parameters(self):
        rng = np.random.default_rng(1)
        x = np.linspace(-1, 1, 201)
        fwhm, c, h, b = 0.11, 0.07, 2.4, 0.02
        y = h * (fwhm / 2) ** 2 / ((x - c) ** 2 + (fwhm / 2) ** 2) + b
        y += 1e-6 * rng.standard_normal(x.size)
        fit = oracles.fit_lorentzian(x, y)
        assert fit.center == pytest.approx(c, abs=1e-4)
        assert fit.fwhm == pytest.approx(fwhm, rel=1e-3)
