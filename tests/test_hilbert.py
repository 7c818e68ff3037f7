import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

import oracles
from cqedlat.hilbert import (
    DensityMatrix,
    LatticeSpace,
    SiteSpace,
    assemble,
    cutoff_convergence,
    diagonal_factor,
    expectation,
    photon_op_on,
    occupation_basis,
    site_factor,
    total_excitation,
)
from oracles import annihilation, qubit_lower, sigma_z


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


class TestSiteAndLatticeSpaces:
    def test_site_dimension(self):
        assert SiteSpace(3).dim == 8
        assert SiteSpace(1).dim == 4

    def test_cutoff_must_be_positive(self):
        with pytest.raises(ValueError):
            SiteSpace(0)

    def test_total_dim_is_product(self):
        space = LatticeSpace((SiteSpace(2), SiteSpace(3), SiteSpace(1)))
        assert space.total_dim == 6 * 8 * 4

    def test_total_dim_is_exact_beyond_int64(self):
        assert LatticeSpace.uniform(32, 1).total_dim == 4 ** 32
        assert LatticeSpace.uniform(24, 4).total_dim == 10 ** 24

    def test_site_zero_is_slowest_index(self):
        space = LatticeSpace.uniform(2, 1)
        # |n0=1,q0=0; n1=0,q1=1⟩: site0 index 2, site1 index 1, dims 4 each
        assert oracles.basis_index(space, [(1, 0), (0, 1)]) == 2 * 4 + 1

    def test_photon_slow_qubit_fast_within_site(self):
        s = SiteSpace(2)
        assert s.basis_index(0, 1) == 1
        assert s.basis_index(1, 0) == 2


class TestElementaryOperators:
    def test_annihilation_nmax1(self):
        a = annihilation(SiteSpace(1)).toarray()
        assert np.array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))

    def test_annihilation_nmax3_superdiagonal(self):
        a = annihilation(SiteSpace(3)).toarray()
        expected = np.zeros((4, 4), dtype=complex)
        for k in (1, 2, 3):
            expected[k - 1, k] = np.sqrt(k)
        assert np.array_equal(a, expected)

    def test_number_operator_eigenvalues(self):
        s = SiteSpace(3)
        n = (annihilation(s).getH() @ annihilation(s)).toarray()
        assert np.allclose(np.linalg.eigvalsh(n), [0, 1, 2, 3])

    def test_qubit_lower_action(self):
        sm = qubit_lower().toarray()
        e = np.array([0, 1], dtype=complex)
        g = np.array([1, 0], dtype=complex)
        assert np.array_equal(sm @ e, g)
        assert np.array_equal(sm @ g, np.zeros(2))

    def test_two_level_algebra(self):
        sm = qubit_lower()
        sp_ = sm.getH()
        anti = (sp_ @ sm + sm @ sp_).toarray()
        assert np.array_equal(anti, np.eye(2))
        assert np.allclose(np.linalg.eigvalsh(sigma_z().toarray()), [-1, 1])

    def test_sigma_z_from_projectors(self):
        sm = qubit_lower()
        sp_ = sm.getH()
        sz = (sp_ @ sm - sm @ sp_).toarray()
        assert np.array_equal(sz, sigma_z().toarray())


class TestEmbed:
    """A site operator lifted into the lattice space by the term kernel."""

    def test_embed_identity_is_identity(self):
        space = LatticeSpace.uniform(3, 1)
        op = assemble([(1.0, (site_factor(space, 1),))], occupation_basis(space))
        assert np.array_equal(op.toarray(), np.eye(space.total_dim))

    def test_distinct_site_operators_commute(self):
        space = LatticeSpace.uniform(2, 2)
        a0 = photon_op_on(space, 0, "a")
        adag1 = photon_op_on(space, 1, "a_dag")
        comm = a0 @ adag1 - adag1 @ a0
        assert comm.nnz == 0

    def test_embed_dimension(self):
        space = LatticeSpace.uniform(3, 2)
        op = assemble([(1.0, (site_factor(space, 2),))], occupation_basis(space))
        assert op.shape == (space.total_dim, space.total_dim)


class TestSiteLift:
    def test_rejects_wrong_factor_dimension(self):
        # a two-level qubit operator where the photon factor is asked for
        space = LatticeSpace.uniform(2, 2)
        with pytest.raises(ValueError, match="no closed form"):
            photon_op_on(space, 0, "sigma_m")

    def test_rejects_unknown_operator_and_site(self):
        # σ_x would split a state in two; a†a is a diagonal factor, not a closed form
        space = LatticeSpace.uniform(1, 2)
        for photon, qubit in (("a", "sigma_x"), ("n", None), (None, "a")):
            with pytest.raises(ValueError, match="no closed form"):
                site_factor(space, 0, photon, qubit)
        for site_index in (1, -1):
            with pytest.raises(ValueError, match="out of range"):
                site_factor(space, site_index, "a", "sigma_p")
            with pytest.raises(ValueError, match="out of range"):
                diagonal_factor(space, site_index, lambda n, q: n)

    def test_rejects_bad_site_index(self):
        space = LatticeSpace.uniform(2, 2)
        _, target, amp = site_factor(space, 0, "a")
        for site_index in (2, -1):
            with pytest.raises(ValueError, match="out of range"):
                assemble([(1.0, ((site_index, target, amp),))], occupation_basis(space))
            with pytest.raises(ValueError, match="out of range"):
                site_factor(space, site_index, "a")
            with pytest.raises(ValueError, match="out of range"):
                photon_op_on(space, site_index, "a")

    def test_lifted_product_is_product_of_lifts(self):
        # a σ⁻ and a† σ⁺ on site 0, as two factors of one term and as two operators
        space = LatticeSpace.uniform(2, 2)
        x = site_factor(space, 0, "a", "sigma_m")
        y = site_factor(space, 0, "a_dag", "sigma_p")
        basis = occupation_basis(space)
        lhs = assemble([(1.0, (x, y))], basis).toarray()
        rhs = (assemble([(1.0, (x,))], basis) @ assemble([(1.0, (y,))], basis)).toarray()
        assert np.array_equal(lhs, rhs)
        assert np.abs(lhs).max() > 0

    def test_term_leaving_the_basis_is_rejected(self):
        # a† maps the one-excitation sector into the two-excitation one
        space = LatticeSpace.uniform(2, 2)
        adag = site_factor(space, 0, "a_dag")
        with pytest.raises(ValueError, match="outside the basis"):
            assemble([(1.0, (adag,))], occupation_basis(space, 1))

    def test_sector_basis_is_the_sorted_slice_of_the_full_basis(self):
        space = LatticeSpace((SiteSpace(1), SiteSpace(3), SiteSpace(2)))
        full = occupation_basis(space)
        assert full.shape == (space.total_dim, space.n_sites)
        assert np.array_equal(full @ [8 * 6, 6, 1], np.arange(space.total_dim))
        load = (full // 2 + full % 2).sum(axis=1)
        for N in range(int(load.max()) + 1):
            assert np.array_equal(occupation_basis(space, N), full[load == N])


class TestKernelAgainstKronOracle:
    @settings(max_examples=30)
    @given(oracles.random_lattices())
    def test_site_operators_and_total_excitation_are_bitwise_equal(self, case):
        _, space = case
        pairs = [(total_excitation(space), oracles.total_excitation(space))]
        for i, site in enumerate(space.sites):
            a = annihilation(site)
            pairs.append((photon_op_on(space, i, "a"), oracles.photon_op_on(space, i, a)))
            pairs.append((photon_op_on(space, i, "a_dag"), oracles.photon_op_on(space, i, a.getH())))
        for new, old in pairs:
            assert np.array_equal(new.toarray(), old.toarray())

    @settings(max_examples=30)
    @given(oracles.random_lattices())
    def test_closed_form_factors_are_the_kronecker_products(self, case):
        # each factor on the full basis against the product of the Kronecker lifts
        _, space = case
        basis = occupation_basis(space)
        for i, site in enumerate(space.sites):
            a, sm = annihilation(site), qubit_lower()
            photon = {"a": oracles.photon_op_on(space, i, a),
                      "a_dag": oracles.photon_op_on(space, i, a.getH())}
            qubit = {"sigma_m": oracles.qubit_op_on(space, i, sm),
                     "sigma_p": oracles.qubit_op_on(space, i, sm.getH()),
                     "sigma_z": oracles.qubit_op_on(space, i, sigma_z())}
            cases = [((p, None), photon[p]) for p in ("a", "a_dag")]
            cases += [((None, q), qubit[q]) for q in ("sigma_m", "sigma_p", "sigma_z")]
            cases += [((p, q), photon[p] @ qubit[q]) for p, q in (
                ("a_dag", "sigma_m"), ("a", "sigma_p"),       # the RWA exchange
                ("a_dag", "sigma_p"), ("a", "sigma_m"))]      # the counter-rotating pair
            for ops, oracle in cases:
                kernel = assemble([(1.0, (site_factor(space, i, *ops),))], basis)
                assert np.array_equal(kernel.toarray(), oracle.toarray()), ops
            number = assemble([(1.0, (diagonal_factor(space, i, lambda n, q: n),))], basis)
            assert np.array_equal(number.toarray(),
                                  oracles.photon_op_on(space, i, oracles.number(site)).toarray())
            # a† drops the states at the cutoff instead of leaving the basis
            _, target, _ = site_factor(space, i, "a_dag")
            assert np.array_equal(target[-2:], [-1, -1])
            top = basis[:, i] // 2 == site.photon_cutoff
            adag = assemble([(1.0, (site_factor(space, i, "a_dag"),))], basis)
            assert adag.tocsc()[:, np.nonzero(top)[0]].nnz == 0


class TestExpectation:
    def test_identity_expectation_is_one(self):
        space = LatticeSpace.uniform(1, 3)
        rho = random_density(space.total_dim, seed=4)
        assert expectation(sp.identity(space.total_dim), rho) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_photon_number(self):
        space = LatticeSpace.uniform(1, 3)
        rho = oracles.vacuum(space)
        n = assemble([(1.0, (diagonal_factor(space, 0, lambda n, q: n),))], occupation_basis(space))
        assert expectation(n, rho) == 0

    def test_excited_qubit_population(self):
        space = LatticeSpace.uniform(1, 1)
        vec = np.zeros(space.total_dim)
        vec[oracles.basis_index(space, [(0, 1)])] = 1.0
        rho = DensityMatrix.pure(vec)
        excited = oracles.qubit_op_on(space, 0, oracles.qubit_number())
        assert expectation(excited, rho) == pytest.approx(1.0)

    def test_dimension_mismatch_raises(self):
        space = LatticeSpace.uniform(1, 2)
        with pytest.raises(ValueError, match="mismatch"):
            expectation(sp.identity(3), oracles.vacuum(space))

    def test_hermitian_conjugation_identity(self):
        # expectation(op, ρ) = conj(expectation(op†, ρ)) for any operator
        space = LatticeSpace.uniform(1, 2)
        rho = random_density(space.total_dim, seed=11)
        rng = np.random.default_rng(3)
        m = rng.standard_normal((space.total_dim,) * 2) + 1j * rng.standard_normal((space.total_dim,) * 2)
        op = sp.csr_matrix(m)
        assert expectation(op, rho) == pytest.approx(np.conj(expectation(op.getH(), rho)), abs=1e-12)


class TestInvariants:
    def test_truncated_commutator_on_low_states(self):
        # ⟨ψ|[a,a†]|ψ⟩ = 1 exactly for support on Fock levels 0..n_max-1
        s = SiteSpace(4)
        a = annihilation(s)
        comm = (a @ a.getH() - a.getH() @ a).toarray()
        rng = np.random.default_rng(0)
        for _ in range(5):
            psi = np.zeros(s.photon_cutoff + 1, dtype=complex)
            psi[: s.photon_cutoff] = rng.standard_normal(s.photon_cutoff) + 1j * rng.standard_normal(s.photon_cutoff)
            psi /= np.linalg.norm(psi)
            assert psi.conj() @ comm @ psi == pytest.approx(1.0, abs=1e-14)

    def test_total_excitation_diagonal(self):
        space = LatticeSpace.uniform(2, 2)
        n = total_excitation(space).toarray()
        assert np.allclose(n, np.diag(np.diag(n)))


class TestValidation:
    def test_density_matrix_trace_check(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.6, 0.6]).astype(complex))

    def test_density_matrix_hermiticity_check(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    def test_density_matrix_positivity_check(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(m)


class TestCutoffConvergence:
    def test_converged_observable(self):
        check = cutoff_convergence(lambda n: 1.0 + 2.0 ** (-n), 40, 1.0 + 2.0 ** (-40))
        assert check["passed"]
        assert (check["n_max"], check["n_max_ref"]) == (40, 42)

    def test_unconverged_observable(self):
        check = cutoff_convergence(lambda n: float(n), 4, 4.0)
        assert check == {"rel_shift": pytest.approx(1 / 3), "passed": False,
                         "n_max": 4, "n_max_ref": 6}

    def test_nan_at_both_cutoffs_passes(self):
        # a g²(0) below the photon floor is NaN at every cutoff
        check = cutoff_convergence(lambda n: float("nan"), 3, float("nan"))
        assert check["passed"] is True
        assert np.isnan(check["rel_shift"])

    @pytest.mark.parametrize("value,reference", [(float("nan"), 1.0), (1.0, float("nan"))])
    def test_nan_at_one_cutoff_fails(self, value, reference):
        assert cutoff_convergence(lambda n: reference, 3, value)["passed"] is False
