import time
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cqedlat.hilbert import LatticeSpace, assemble, total_excitation
from cqedlat.jc import JCParams, jc_hamiltonian
from cqedlat.lindblad import DissipationRates, collapse_operators
from cqedlat.lattice import (
    DENSE_SECTOR_LIMIT,
    LatticeParams,
    band_degeneracy,
    band_resonant_chain,
    build_jchm,
    chain,
    jchm_terms,
    measured_nonlinearity,
    nonlinearity_closed_form,
    photon_band_minimum,
    sector_basis,
    sector_ground_energy,
    sector_hamiltonian,
)

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)


def brute_force_sector_count(space: LatticeSpace, N: int) -> int:
    """Enumeration oracle: walk the full product basis and count."""
    per_site = [[(n, q) for n in range(s.photon_cutoff + 1) for q in (0, 1)]
                for s in space.sites]
    return sum(1 for cfg in product(*per_site) if sum(n + q for n, q in cfg) == N)


class TestLatticeParams:
    def test_self_edge_rejected(self):
        p = JCParams(1.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="self-edge"):
            LatticeParams(site_params=(p, p), edges=((0, 0, 0.1),))

    def test_out_of_range_edge_rejected(self):
        p = JCParams(1.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="outside"):
            LatticeParams(site_params=(p, p), edges=((0, 2, 0.1),))

    def test_asymmetric_hopping_rejected(self):
        p = JCParams(1.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="asymmetric"):
            LatticeParams(site_params=(p, p), edges=((0, 1, 0.1), (1, 0, 0.2)))

    def test_hermitian_redeclaration_merges(self):
        p = JCParams(1.0, 1.0, 0.1)
        lp = LatticeParams(site_params=(p, p), edges=((0, 1, 0.1), (1, 0, 0.1)))
        assert lp.edges == ((0, 1, 0.1),)

    def test_periodic_dimer_keeps_single_bond(self):
        lp = chain(JCParams(1.0, 1.0, 0.1), 2, 0.05, "periodic")
        assert lp.edges == ((0, 1, 0.05),)

    def test_periodic_ring_has_wraparound(self):
        lp = chain(JCParams(1.0, 1.0, 0.1), 4, 0.05, "periodic")
        assert (0, 3, 0.05) in lp.edges

    def test_unknown_chain_boundary_rejected(self):
        with pytest.raises(ValueError, match="'open' or 'periodic'"):
            chain(JCParams(1.0, 1.0, 0.1), 4, 0.05, "ring")


class TestBuildJchm:
    def test_decoupled_sites_spectrum_is_sum(self):
        p = JCParams(1.0, 0.92, 0.07)
        space = LatticeSpace.uniform(2, 2)
        h = build_jchm(chain(p, 2, 0.0), space)
        evals = np.sort(np.linalg.eigvalsh(h.toarray()))
        single = np.linalg.eigvalsh(jc_hamiltonian(p, space.sites[0]).toarray())
        expected = np.sort((single[:, None] + single[None, :]).ravel())
        assert np.allclose(evals, expected, atol=1e-12)

    def test_one_photon_tight_binding_band(self):
        # g = 0 photon sector of a periodic ring is the cosine band
        n_sites = 5
        p = JCParams(1.0, 0.5, 0.0)
        params = chain(p, n_sites, 0.03, "periodic")
        space = LatticeSpace.uniform(n_sites, 1)
        h = sector_hamiltonian(params, space, 1)
        evals = np.sort(np.linalg.eigvalsh(h.toarray()))
        band = np.sort(1.0 + 2 * 0.03 * np.cos(2 * np.pi * np.arange(n_sites) / n_sites))
        qubit_flat = np.full(n_sites, 0.5)
        expected = np.sort(np.concatenate([band, qubit_flat]))
        assert np.allclose(evals, expected, atol=1e-12)

    def test_two_site_one_excitation_analytic_block(self):
        # independent 4x4 oracle in the ordered basis
        # {|ph0⟩, |q0⟩, |ph1⟩, |q1⟩}
        wr, wq, g, J = 1.0, 0.94, 0.06, 0.023
        oracle = np.array([
            [wr, g, J, 0.0],
            [g, wq, 0.0, 0.0],
            [J, 0.0, wr, g],
            [0.0, 0.0, g, wq],
        ])
        expected = np.linalg.eigvalsh(oracle)
        params = chain(JCParams(wr, wq, g), 2, J)
        space = LatticeSpace.uniform(2, 2)
        h = sector_hamiltonian(params, space, 1)
        assert np.allclose(np.linalg.eigvalsh(h.toarray()), expected, atol=1e-12)

    def test_commutes_with_total_excitation_exactly(self):
        params = chain(JCParams(1.0, 0.9, 0.05), 3, 0.02, "periodic")
        space = LatticeSpace.uniform(3, 2)
        h = build_jchm(params, space)
        n = total_excitation(space)
        assert (h @ n - n @ h).nnz == 0

    def test_spectrum_invariant_under_ring_relabeling(self):
        p = JCParams(1.0, 0.9, 0.05)
        space = LatticeSpace.uniform(4, 1)
        ring = chain(p, 4, 0.03, "periodic")
        rotated_edges = tuple(((i + 1) % 4, (j + 1) % 4, J) for (i, j, J) in ring.edges)
        rotated = LatticeParams(site_params=ring.site_params, edges=rotated_edges)
        e1 = np.linalg.eigvalsh(build_jchm(ring, space).toarray())
        e2 = np.linalg.eigvalsh(build_jchm(rotated, space).toarray())
        assert np.allclose(e1, e2, atol=1e-11)


class TestSectorBasis:
    def test_vacuum_sector(self):
        assert len(sector_basis(LatticeSpace.uniform(3, 2), 0)) == 1

    @pytest.mark.parametrize("n_sites", [1, 2, 4])
    def test_one_excitation_dimension(self, n_sites):
        assert len(sector_basis(LatticeSpace.uniform(n_sites, 2), 1)) == 2 * n_sites

    def test_two_site_two_excitations_against_enumeration(self):
        space = LatticeSpace.uniform(2, 2)
        assert len(sector_basis(space, 2)) == brute_force_sector_count(space, 2)

    @pytest.mark.parametrize("n_sites,n_max,N", [(2, 2, 3), (3, 1, 2), (2, 4, 5)])
    def test_dimensions_match_enumeration(self, n_sites, n_max, N):
        space = LatticeSpace.uniform(n_sites, n_max)
        assert len(sector_basis(space, N)) == brute_force_sector_count(space, N)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            sector_basis(LatticeSpace.uniform(2, 2), -1)

    def test_overfull_sector_rejected(self):
        with pytest.raises(ValueError, match="maximum representable"):
            sector_basis(LatticeSpace.uniform(2, 2), 7)

    def test_cutoff_respected_in_configs(self):
        space = LatticeSpace.uniform(2, 1)
        n_photon, _ = np.divmod(sector_basis(space, 2), 2)
        assert n_photon.max() <= 1


class TestSectorVersusFullSpace:
    @pytest.mark.parametrize("n_sites,n_max", [(2, 3), (3, 2)])
    def test_common_eigenvalues_agree(self, n_sites, n_max):
        params = chain(JCParams(1.0, 0.95, 0.04), n_sites, 0.017, "periodic")
        space = LatticeSpace.uniform(n_sites, n_max)
        full = np.sort(np.linalg.eigvalsh(build_jchm(params, space).toarray()))
        collected = []
        max_n = sum(s.photon_cutoff + 1 for s in space.sites)
        for N in range(max_n + 1):
            h = sector_hamiltonian(params, space, N)
            collected.extend(np.linalg.eigvalsh(h.toarray()))
        assert np.allclose(np.sort(collected), full, atol=1e-9)


class TestJchmProperties:
    @settings(max_examples=30)
    @given(oracles.random_lattices())
    def test_hermitian_conserving_and_equal_to_sector_union(self, case):
        params, space = case
        h = build_jchm(params, space)
        assert (h - h.getH()).nnz == 0
        n = total_excitation(space)
        assert (h @ n - n @ h).nnz == 0
        collected = []
        for N in range(sum(s.photon_cutoff + 1 for s in space.sites) + 1):
            block = sector_hamiltonian(params, space, N)
            collected.extend(np.linalg.eigvalsh(block.toarray()))
        full = np.linalg.eigvalsh(h.toarray())
        assert len(collected) == len(full)
        assert np.max(np.abs(np.sort(collected) - full)) <= 1e-10 * abs(h).max()


class TestKernelAgainstOracles:
    @settings(max_examples=30)
    @given(oracles.random_lattices(), st.booleans())
    def test_full_space_operators_are_bitwise_equal_to_kron_lifts(self, case, rwa):
        params, space = case
        assert np.array_equal(build_jchm(params, space, rwa).toarray(),
                              oracles.build_jchm(params, space, rwa).toarray())
        for p, site in zip(params.site_params, space.sites):
            assert np.array_equal(jc_hamiltonian(p, site, rwa).toarray(),
                                  oracles.jc_hamiltonian(p, site, rwa).toarray())
        rates = DissipationRates(gamma1=0.3, gamma_phi=0.02, gamma_kappa=0.11, kappa=0.07)
        new, old = collapse_operators(rates, space), oracles.collapse_operators(rates, space)
        assert len(new) == len(old) == 3 * space.n_sites + 1
        for c_new, c_old in zip(new, old):
            assert np.array_equal(c_new.toarray(), c_old.toarray())

    @settings(max_examples=30)
    @given(oracles.random_lattices())
    def test_sector_blocks_match_the_configuration_loop(self, case):
        # hopping amplitudes are √n·√(m+1) here and √(n(m+1)) in the loop
        params, space = case
        for N in range(sum(s.photon_cutoff + 1 for s in space.sites) + 1):
            block = sector_hamiltonian(params, space, N)
            configs = np.stack(np.divmod(sector_basis(space, N), 2), axis=-1)
            assert block.shape == (len(configs),) * 2
            assert np.array_equal(configs, np.array(oracles.sector_configs(space, N)).reshape(configs.shape))
            reference = oracles.sector_hamiltonian(params, space, N).toarray()
            tol = 1e-15 * max(np.abs(reference).max(), 1e-300)
            assert np.abs(block.toarray() - reference).max() <= tol

    def test_24_site_two_excitation_sector_is_fast_and_exact(self):
        # the full space, 10^24 states, exceeds int64; the sector has 1152
        space = LatticeSpace.uniform(24, 4)
        params = chain(JCParams(1.0, 0.93, 0.05), 24, -0.02, "periodic")
        start = time.perf_counter()
        block = sector_hamiltonian(params, space, 2)
        elapsed = time.perf_counter() - start
        assert block.shape == (1152, 1152)
        assert elapsed < 0.5
        configs = np.stack(np.divmod(sector_basis(space, 2), 2), axis=-1)
        assert np.array_equal(configs, np.array(oracles.sector_configs(space, 2)))
        reference = oracles.sector_hamiltonian(params, space, 2)
        assert abs(block - reference).max() <= 1e-15 * abs(reference).max()

    def test_full_space_build_is_no_slower_than_the_kron_oracle(self):
        # dim 4096: target rows are found by a lexsort, not a record sort
        params = chain(JCParams(1.0, 0.9, 0.1), 4, 0.05)
        space = LatticeSpace.uniform(4, 3)

        def best_of_five(build):
            times = []
            for _ in range(5):
                start = time.perf_counter()
                build(params, space)
                times.append(time.perf_counter() - start)
            return min(times)

        assert best_of_five(build_jchm) <= best_of_five(oracles.build_jchm)

    def test_counter_rotating_terms_leave_a_sector(self):
        params = chain(JCParams(1.0, 0.9, 0.05), 2, 0.01)
        space = LatticeSpace.uniform(2, 2)
        states = sector_basis(space, 1)
        assert assemble(jchm_terms(params, space), states).shape == (4, 4)
        with pytest.raises(ValueError, match="outside the basis"):
            assemble(jchm_terms(params, space, rwa=False), states)

    def test_site_count_mismatch_rejected(self):
        params = chain(JCParams(1.0, 0.9, 0.05), 2, 0.01)
        with pytest.raises(ValueError, match="2 sites, space has 3"):
            sector_hamiltonian(params, LatticeSpace.uniform(3, 1), 1)


class TestFiniteSizeNonlinearity:
    def test_closed_form_single_site(self):
        g = 0.013
        assert nonlinearity_closed_form(g, 1) == pytest.approx(g * (2 - SQRT2), abs=1e-15)

    def test_closed_form_dimer(self):
        g = 0.013
        assert nonlinearity_closed_form(g, 2) == pytest.approx(g * (2 - SQRT3), abs=1e-15)

    def test_band_minimum_from_hopping_matrix(self):
        params = chain(JCParams(1.0, 1.0, 0.01), 4, -0.1, "periodic")
        # uniform mode of the 4-ring with negative J sits at omega_r - 2|J|
        assert photon_band_minimum(params) == pytest.approx(0.8, abs=1e-12)

    def test_integer_frequencies_keep_the_fractional_hopping(self):
        # an all-int diagonal must not truncate J = 0.5 when it is added in place
        params = chain(JCParams(50, 50, 1), 2, 0.5, "periodic")
        assert photon_band_minimum(params) == 49.5
        assert band_resonant_chain(50, 1, 0.5, 2).site_params[0].omega_q == 49.5

    def test_band_degeneracy_counts_the_band_bottom_modes(self):
        # J > 0 frustrates odd rings: the 3-ring's bottom is the k = ±2π/3 pair
        ring = lambda J, n: band_resonant_chain(50.0, 1.0, J, n)
        assert [band_degeneracy(ring(0.5, n)) for n in (3, 4)] == [2, 1]
        assert [band_degeneracy(ring(-0.5, n)) for n in range(1, 6)] == [1] * 5

    @pytest.mark.parametrize("stretch, count", [(1e-4, 1), (1e-12, 2)])
    def test_band_degeneracy_resolves_a_split_band_bottom(self, stretch, count):
        # a stronger (0, 2) hop splits the 3-ring's bottom pair by 1.3e-6 of
        # the band's largest magnitude at 1e-4, and by roundoff at 1e-12
        site = JCParams(50.0, 50.0, 1.0)
        params = LatticeParams((site,) * 3, ((0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5 * (1 + stretch))))
        assert band_degeneracy(params) == count

    def test_trimer_matches_closed_form_at_strong_hopping(self):
        # sector ED oracle; hopping sign chosen so the band bottom is the
        # non-degenerate uniform mode (odd rings frustrate with +J)
        g = 0.002
        params = band_resonant_chain(1.0, g, -50 * g, 3)
        space = LatticeSpace.uniform(3, 4)
        u = measured_nonlinearity(params, space)
        assert u == pytest.approx(nonlinearity_closed_form(g, 3), rel=0.05)

    def test_meas_decreases_with_size(self):
        g = 0.002
        values = []
        for ns in (1, 2, 3, 4):
            params = band_resonant_chain(1.0, g, -50 * g, ns)
            values.append(measured_nonlinearity(params, LatticeSpace.uniform(ns, 3)))
        assert all(values[i + 1] < values[i] for i in range(len(values) - 1))

    def test_cutoff_too_small_rejected(self):
        params = band_resonant_chain(1.0, 0.01, -0.5, 2)
        with pytest.raises(ValueError, match="cutoff"):
            measured_nonlinearity(params, LatticeSpace.uniform(2, 1))

    @pytest.mark.parametrize("J, ns", [(-0.5, 1), (0.5, 3), (-0.5, 4)])
    def test_matches_the_three_sector_ground_energies_bitwise(self, J, ns):
        # one term list for N = 1 and 2, and E₀(0) = 0 without its 1×1 solve
        params = band_resonant_chain(50.0, 1.0, J, ns)
        space = LatticeSpace.uniform(ns, 2)
        e0, e1, e2 = (sector_ground_energy(params, space, n) for n in (0, 1, 2))
        assert measured_nonlinearity(params, space) == (e2 - e1) - (e1 - e0)

    def test_sector_ground_energy_above_the_dense_limit(self):
        # 648 states: the lowest eigenvalue comes from ARPACK, not eigvalsh
        params = band_resonant_chain(50.0, 1.0, -0.5, 18)
        space = LatticeSpace.uniform(18, 2)
        h = sector_hamiltonian(params, space, 2)
        assert h.shape[0] == 648 > DENSE_SECTOR_LIMIT
        dense = np.linalg.eigvalsh(h.toarray())[0]
        assert sector_ground_energy(params, space, 2) == pytest.approx(dense, rel=1e-12)

    def test_sector_ground_energy_scalar_sector(self):
        params = chain(JCParams(1.0, 0.9, 0.02), 2, 0.01)
        assert sector_ground_energy(params, LatticeSpace.uniform(2, 2), 0) == 0.0
