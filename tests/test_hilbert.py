import numpy as np
import pytest
import scipy.sparse as sp

from cqedlat.hilbert import (
    DensityMatrix,
    LatticeSpace,
    SiteSpace,
    annihilation,
    cutoff_convergence,
    embed,
    expectation,
    number,
    photon_op_on,
    qubit_lower,
    qubit_number,
    qubit_op_on,
    sigma_z,
    total_excitation,
)


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

    def test_site_zero_is_slowest_index(self):
        space = LatticeSpace.uniform(2, 1)
        # |n0=1,q0=0; n1=0,q1=1⟩: site0 index 2, site1 index 1, dims 4 each
        assert space.basis_index([(1, 0), (0, 1)]) == 2 * 4 + 1

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
    def test_embed_identity_is_identity(self):
        space = LatticeSpace.uniform(3, 1)
        op = embed(sp.identity(4), 1, space)
        assert np.array_equal(op.toarray(), np.eye(space.total_dim))

    def test_distinct_site_operators_commute(self):
        space = LatticeSpace.uniform(2, 2)
        a0 = photon_op_on(space, 0, annihilation(space.sites[0]))
        adag1 = photon_op_on(space, 1, annihilation(space.sites[1]).getH())
        comm = a0 @ adag1 - adag1 @ a0
        assert comm.nnz == 0

    def test_embed_dimension(self):
        space = LatticeSpace.uniform(3, 2)
        op = embed(sp.identity(space.sites[0].dim), 2, space)
        assert op.shape == (space.total_dim, space.total_dim)

    def test_embed_rejects_wrong_dimension(self):
        space = LatticeSpace.uniform(2, 2)
        with pytest.raises(ValueError, match="does not match site dim"):
            embed(sp.identity(3), 0, space)

    def test_embed_rejects_bad_site_index(self):
        space = LatticeSpace.uniform(2, 2)
        with pytest.raises(ValueError, match="out of range"):
            embed(sp.identity(space.sites[0].dim), 2, space)

    def test_embed_is_homomorphism(self):
        space = LatticeSpace.uniform(2, 2)
        s = space.sites[0]
        a = sp.kron(annihilation(s), qubit_lower())
        b = sp.kron(annihilation(s).getH(), qubit_lower().getH())
        lhs = embed(a @ b, 0, space).toarray()
        rhs = (embed(a, 0, space) @ embed(b, 0, space)).toarray()
        assert np.allclose(lhs, rhs, atol=1e-14)


class TestExpectation:
    def test_identity_expectation_is_one(self):
        space = LatticeSpace.uniform(1, 3)
        rho = random_density(space.total_dim, seed=4)
        assert expectation(sp.identity(space.total_dim), rho) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_photon_number(self):
        space = LatticeSpace.uniform(1, 3)
        rho = DensityMatrix.vacuum(space)
        n = photon_op_on(space, 0, number(space.sites[0]))
        assert expectation(n, rho) == 0

    def test_excited_qubit_population(self):
        space = LatticeSpace.uniform(1, 1)
        vec = np.zeros(space.total_dim)
        vec[space.basis_index([(0, 1)])] = 1.0
        rho = DensityMatrix.pure(vec)
        assert expectation(qubit_op_on(space, 0, qubit_number()), rho) == pytest.approx(1.0)

    def test_dimension_mismatch_raises(self):
        space = LatticeSpace.uniform(1, 2)
        with pytest.raises(ValueError, match="mismatch"):
            expectation(sp.identity(3), DensityMatrix.vacuum(space))

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
        assert check.passed

    def test_unconverged_observable(self):
        check = cutoff_convergence(lambda n: float(n), 4, 4.0)
        assert not check.passed
        assert check.n_max_ref == 6
