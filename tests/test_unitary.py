"""Matrix-algebra layer: generator bases, exponential map, U(1) x SU(N) split."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugewalk import unitary as un


def coords_strategy(count, bound=3.0):
    return st.lists(
        st.floats(-bound, bound, allow_nan=False, allow_infinity=False),
        min_size=count, max_size=count,
    ).map(np.array)


class TestPauli:
    def test_products(self):
        s1, s2, s3 = un.PAULI
        assert np.allclose(s1 @ s2, 1j * s3)
        assert np.allclose(s2 @ s3, 1j * s1)
        assert np.allclose(s3 @ s1, 1j * s2)
        for s in un.PAULI:
            assert np.allclose(s @ s, np.eye(2))


class TestGellMann:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_count_traceless_orthogonal(self, n):
        gens = un.gell_mann(n)
        assert gens.shape == (n * n - 1, n, n)
        for g in gens:
            assert abs(np.trace(g)) < 1e-14
            assert np.allclose(g, g.conj().T)
        gram = np.einsum("aij,bji->ab", gens, gens)
        assert np.allclose(gram, 2 * np.eye(n * n - 1), atol=1e-13)

    def test_n2_is_pauli(self):
        gens = un.gell_mann(2)
        for got, want in zip(gens, un.PAULI):
            assert np.allclose(got, want)

    def test_bad_dim_raises(self):
        with pytest.raises(un.DimensionError):
            un.gell_mann(0)


class TestGeneratorSets:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_u_basis(self, n):
        gens = un.generators_u(n)
        assert len(gens) == n * n
        assert np.allclose(gens.gens[0], np.eye(n))

    def test_su_basis(self):
        gens = un.generators_su(3)
        assert len(gens) == 8
        for g in gens.gens:
            assert abs(np.trace(g)) < 1e-14
        with pytest.raises(un.DimensionError):
            un.generators_su(1)

    def test_rejects_non_hermitian(self):
        bad = np.array([[[0, 1], [0, 0]]], dtype=complex)
        with pytest.raises(ValueError):
            un.GeneratorSet(2, bad)

    def test_rejects_dependent(self):
        s1 = un.PAULI[0]
        with pytest.raises(ValueError):
            un.GeneratorSet(2, np.array([s1, 2 * s1]))

    def test_assemble_shape_check(self):
        gens = un.generators_u(2)
        with pytest.raises(un.DimensionError):
            gens.assemble(np.zeros(3))


class TestExpMap:
    def test_zero_is_identity(self):
        gens = un.generators_u(3)
        assert np.allclose(un.exp_map(np.zeros(9), gens), np.eye(3))

    def test_scalar_phase(self):
        gens = un.generators_u(1)
        m = un.exp_map(np.array([np.pi / 2]), gens)
        assert np.allclose(m, [[1j]])

    def test_pi_sigma1(self):
        # exp(i * pi * sigma_1 / 2) * ... coordinate 2*pi on sigma_1/2 gives -1
        gens = un.generators_u(2)
        m = un.exp_map(np.array([0.0, 2 * np.pi, 0.0, 0.0]), gens)
        assert np.allclose(m, -np.eye(2), atol=1e-12)

    def test_batched(self):
        gens = un.generators_u(2)
        rng = np.random.default_rng(1)
        coords = rng.standard_normal((5, 4))
        batch = un.exp_map(coords, gens)
        for i in range(5):
            assert np.allclose(batch[i], un.exp_map(coords[i], gens))

    def test_nonfinite_raises(self):
        gens = un.generators_u(2)
        with pytest.raises(ValueError):
            un.exp_map(np.array([np.nan, 0, 0, 0]), gens)

    @settings(max_examples=60, deadline=None)
    @given(coords_strategy(4))
    def test_unitary_and_inverse(self, coords):
        gens = un.generators_u(2)
        m = un.exp_map(coords, gens)
        assert un.unitarity_defect(m) <= 1e-12
        assert np.max(np.abs(m @ un.exp_map(-coords, gens) - np.eye(2))) <= 1e-11

    @settings(max_examples=80, deadline=None)
    @given(coords_strategy(3, bound=10.0))
    def test_matches_su2_closed_form(self, v):
        gens = un.generators_su(2)
        assert np.max(np.abs(un.exp_map(v, gens) - un.su2_closed_form(v))) <= 1e-12

    def test_su2_closed_form_zero(self):
        assert np.allclose(un.su2_closed_form(np.zeros(3)), np.eye(2))


class TestFactorize:
    def test_identity(self):
        res = un.factorize(np.eye(3))
        assert res.delta == pytest.approx(1.0)
        assert np.allclose(res.special, np.eye(3))
        assert not res.branch_discontinuous

    def test_pure_phase(self):
        m = np.exp(0.4j) * np.eye(2)
        res = un.factorize(m)
        # det = e^{0.8i}; delta = e^{0.4i}
        assert res.delta == pytest.approx(np.exp(0.4j))
        assert np.allclose(res.special, np.eye(2))

    def test_special_input_passthrough(self):
        m = un.su2_closed_form(np.array([0.3, -1.1, 0.6]))
        res = un.factorize(m)
        assert res.delta == pytest.approx(1.0)
        assert np.allclose(res.special, m)

    def test_branch_flag(self):
        res = un.factorize(np.diag([1.0, -1.0]).astype(complex))
        assert res.branch_discontinuous

    def test_rejects_non_unitary(self):
        with pytest.raises(un.UnitarityError):
            un.factorize(2 * np.eye(2))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_recombination_and_det(self, seed):
        rng = np.random.default_rng(seed)
        for n in (1, 2, 3):
            m = un.random_unitary(n, rng)
            res = un.factorize(m)
            assert np.max(np.abs(res.delta * res.special - m)) <= 1e-10
            assert abs(np.linalg.det(res.special) - 1) <= 1e-10
            assert abs(abs(res.delta) - 1) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 10_000))
    def test_stack_matches_single_matrices(self, n, seed):
        rng = np.random.default_rng(seed)
        stack = np.array([[un.random_unitary(n, rng) for _ in range(3)] for _ in range(2)])
        # det = -1 exactly, and det approaching -1 from below the cut
        stack[1, 2] = np.diag([-1.0] + [1.0] * (n - 1))
        stack[0, 1] = np.diag([np.exp(-1j * (np.pi - 1e-12))] + [1.0] * (n - 1))
        res = un.factorize(stack)
        assert res.delta.shape == res.branch_discontinuous.shape == (2, 3)
        assert res.special.shape == stack.shape
        for idx in np.ndindex(2, 3):
            one = un.factorize(stack[idx])
            assert isinstance(one.delta, complex) and isinstance(one.branch_discontinuous, bool)
            assert abs(res.delta[idx] - one.delta) <= 1e-15
            assert np.max(np.abs(res.special[idx] - one.special)) <= 1e-15
            assert res.branch_discontinuous[idx] == one.branch_discontinuous
        assert res.branch_discontinuous[1, 2] and res.branch_discontinuous[0, 1]

    def test_stack_rejects_any_non_unitary_matrix(self):
        stack = np.array([np.eye(2), 2 * np.eye(2)], dtype=complex)
        with pytest.raises(un.UnitarityError):
            un.factorize(stack)


class TestUnitarityHelpers:
    def test_defect_values(self):
        assert un.unitarity_defect(np.eye(4)) == 0.0
        assert un.unitarity_defect(2 * np.eye(2)) == pytest.approx(3.0)

    def test_is_unitary_tol_check(self):
        with pytest.raises(ValueError):
            un.is_unitary(np.eye(2), tol=0.0)

    def test_random_unitary(self):
        rng = np.random.default_rng(7)
        assert un.unitarity_defect(un.random_unitary(3, rng)) <= 1e-12
