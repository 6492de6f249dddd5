from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisycav.qops import (
    SpaceLayout,
    annihilation,
    assert_density_matrix,
    basis_state,
    dagger,
    density_matrix_defects,
    embed,
    excited_projector,
    number_operator,
    partial_trace,
    sigma_minus,
    sigma_plus,
)

from conftest import pauli_z, random_density_matrix, random_hermitian


class TestAnnihilation:
    def test_cutoff_two_entries(self):
        a = annihilation(2)
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 1] = 1.0
        expected[1, 2] = np.sqrt(2.0)
        assert np.array_equal(a, expected)

    def test_cutoff_one_matrix(self):
        assert np.array_equal(annihilation(1), np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_zero_cutoff(self):
        with pytest.raises(ValueError):
            annihilation(0)
        with pytest.raises(ValueError, match="cutoff must be at least 1, got 0"):
            number_operator(0)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_truncated_commutator(self, n):
        # [a, a†] = 1 except the corner entry -n left by the hard cutoff
        a = annihilation(n)
        comm = a @ dagger(a) - dagger(a) @ a
        expected = np.eye(n + 1, dtype=complex)
        expected[n, n] = -float(n)
        assert np.abs(comm - expected).max() < 1e-12

    def test_number_operator_exact(self):
        n = 6
        assert np.array_equal(number_operator(n), np.diag(np.arange(n + 1)).astype(complex))

    def test_adag_a_is_number_operator(self):
        # off-diagonals vanish exactly (disjoint sparsity); diagonal sqrt(n)^2
        # reproduces n only to one ulp, which is as exact as floats allow
        n = 6
        prod = dagger(annihilation(n)) @ annihilation(n)
        off = prod - np.diag(np.diag(prod))
        assert np.count_nonzero(off) == 0
        assert np.abs(np.diag(prod) - np.arange(n + 1)).max() < 1e-14

    def test_sparsity_pattern(self):
        a = annihilation(4)
        mask = np.zeros((5, 5), dtype=bool)
        mask[np.arange(4), np.arange(1, 5)] = True
        assert np.all((a != 0) == mask)


class TestQubitOperators:
    def test_sigma_plus_raises_ground(self):
        g, e = basis_state(2, 0), basis_state(2, 1)
        assert np.array_equal(sigma_plus() @ g, e)

    def test_sigma_plus_squared_zero(self):
        assert np.array_equal(sigma_plus() @ sigma_plus(), np.zeros((2, 2)))

    def test_anticommutator_identity(self):
        acomm = sigma_minus() @ sigma_plus() + sigma_plus() @ sigma_minus()
        assert np.array_equal(acomm, np.eye(2))

    @pytest.mark.parametrize("index", [-1, 2])
    def test_basis_index_out_of_range(self, index):
        with pytest.raises(ValueError, match=f"basis index {index} out of range for dim 2"):
            basis_state(2, index)

    def test_pauli_z_convention(self):
        # sigma_z|e> = +|e> in the |g>=0, |e>=1 ordering
        assert np.array_equal(pauli_z(), np.diag([-1.0, 1.0]))

    def test_projectors(self):
        assert np.array_equal(excited_projector(), np.diag([0.0, 1.0]))  # |e><e|
        assert np.array_equal(excited_projector(), sigma_plus() @ sigma_minus())

    def test_sparsity(self):
        assert np.count_nonzero(sigma_plus()) == 1
        assert np.count_nonzero(sigma_minus()) == 1
        assert np.count_nonzero(pauli_z()) == 2


class TestTensor:
    def test_identity_product(self):
        eye2, eye3 = np.eye(2, dtype=complex), np.eye(3, dtype=complex)
        assert np.array_equal(np.kron(eye2, eye3), np.eye(6, dtype=complex))

    def test_left_factor_slowest(self):
        gg = np.kron(basis_state(2, 0), basis_state(2, 0))
        eg = np.kron(sigma_plus(), np.eye(2, dtype=complex)) @ gg
        expected = np.kron(basis_state(2, 1), basis_state(2, 0))
        assert np.array_equal(eg, expected)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_mixed_product_identity(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
        lhs = np.kron(a, b) @ np.kron(c, d)
        rhs = np.kron(a @ c, b @ d)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_associative_exactly_on_elementary_operators(self):
        ops = [annihilation(2), sigma_plus(), pauli_z(), number_operator(2)]
        for a in ops[:2]:
            for b in ops[1:3]:
                for c in ops[2:]:
                    assert np.array_equal(np.kron(np.kron(a, b), c), np.kron(a, np.kron(b, c)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_associative_random(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        lhs = np.kron(np.kron(a, b), c)
        rhs = np.kron(a, np.kron(b, c))
        assert np.abs(lhs - rhs).max() < 1e-14


class TestEmbed:
    layout = SpaceLayout((2, 2, 3))

    def test_disjoint_slots_commute(self):
        z = embed(pauli_z(), 0, self.layout)
        a = embed(annihilation(2), 2, self.layout)
        assert np.abs(z @ a - a @ z).max() == 0.0

    def test_identity_everywhere(self):
        assert np.array_equal(embed(np.eye(2, dtype=complex), 1, self.layout), np.eye(12, dtype=complex))

    def test_trace_scales_by_other_dims(self):
        x = random_hermitian(np.random.default_rng(3), 2)
        emb = embed(x, 1, self.layout)
        assert abs(np.trace(emb) - np.trace(x) * 2 * 3) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            embed(np.eye(3, dtype=complex), 0, self.layout)
        with pytest.raises(ValueError):
            embed(np.eye(2, dtype=complex), 5, self.layout)


class TestPartialTrace:
    def test_bell_state_reductions(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        rho = np.outer(phi, phi.conj())
        layout = SpaceLayout((2, 2))
        for keep in ((0,), (1,)):
            red = partial_trace(rho, layout, keep)
            assert np.abs(red - np.eye(2) / 2).max() < 1e-15

    def test_product_state(self, rng):
        rho_a = random_density_matrix(rng, 2)
        rho_b = random_density_matrix(rng, 3)
        layout = SpaceLayout((2, 3))
        red = partial_trace(np.kron(rho_a, rho_b), layout, (0,))
        assert np.abs(red - rho_a).max() < 1e-14

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_trace_preserved(self, seed):
        rng = np.random.default_rng(seed)
        layout = SpaceLayout((2, 2, 3))
        rho = random_density_matrix(rng, layout.dim)
        for keep in ((0,), (1, 2), (0, 2), (0, 1, 2)):
            red = partial_trace(rho, layout, keep)
            assert abs(np.trace(red) - 1.0) < 1e-12

    def test_local_operator_commutes_through(self, rng):
        # X on slot s with a product state: reduce(embed(X) rho) = X reduce(rho)
        layout = SpaceLayout((2, 3))
        rho_a = random_density_matrix(rng, 2)
        rho_b = random_density_matrix(rng, 3)
        rho = np.kron(rho_a, rho_b)
        x = random_hermitian(rng, 2)
        lhs = partial_trace(embed(x, 0, layout) @ rho, layout, (0,))
        rhs = x @ partial_trace(rho, layout, (0,))
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_invalid_slot(self):
        rho = np.eye(4, dtype=complex) / 4
        with pytest.raises(ValueError):
            partial_trace(rho, SpaceLayout((2, 2)), (2,))
        with pytest.raises(ValueError):
            partial_trace(rho, SpaceLayout((2, 2)), ())
        with pytest.raises(ValueError, match=r"state of shape \(4, 4\) does not match layout dimension 6"):
            partial_trace(rho, SpaceLayout((2, 3)), (0,))

    @pytest.mark.parametrize("dims", [(2, 2, 4), (2, 2, 11), (3, 4)])
    def test_a_stack_is_each_matrix_alone(self, rng, dims):
        layout = SpaceLayout(dims)
        stack = rng.normal(size=(2, 3, layout.dim, layout.dim)) + 1j * rng.normal(size=(2, 3, layout.dim, layout.dim))
        stack[0, 0] = -0.0  # so the sign of a zero sum counts
        for r in range(1, len(dims) + 1):
            for keep in combinations(range(len(dims)), r):
                reduced = partial_trace(stack, layout, keep)
                assert not np.shares_memory(reduced, stack)
                for index in np.ndindex(stack.shape[:2]):
                    alone = partial_trace(stack[index], layout, keep)
                    assert not np.shares_memory(alone, stack)
                    assert reduced[index].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("keep", [(0.7,), "01", (1.0,), (True,), (np.float64(0),)])
    def test_slots_are_integers(self, keep):
        with pytest.raises(ValueError, match=r"^slot .* is not an integer$"):
            partial_trace(np.eye(4, dtype=complex) / 4, SpaceLayout((2, 2)), keep)

    def test_numpy_integer_slots(self):
        rho = np.diag([0.0625, 0.125, 0.25, 0.5625]).astype(complex)
        assert np.array_equal(partial_trace(rho, SpaceLayout((2, 2)), np.array([1])), np.diag([0.3125, 0.6875]))

    def test_keep_order_preserved(self, rng):
        layout = SpaceLayout((2, 3, 2))
        parts = [random_density_matrix(rng, d) for d in layout.factor_dims]
        rho = np.kron(np.kron(parts[0], parts[1]), parts[2])
        red = partial_trace(rho, layout, (0, 2))
        assert np.abs(red - np.kron(parts[0], parts[2])).max() < 1e-13


class TestDensityMatrixGates:
    def test_valid_state_passes(self, rng):
        assert_density_matrix(random_density_matrix(rng, 5))

    def test_rejects_trace(self):
        with pytest.raises(ValueError, match="trace"):
            assert_density_matrix(np.eye(4, dtype=complex))

    def test_rejects_non_hermitian(self):
        rho = np.diag([1.0, 0, 0, 0]).astype(complex)
        rho[0, 1] = 1e-3
        with pytest.raises(ValueError, match="Hermitian"):
            assert_density_matrix(rho)

    def test_rejects_negative(self):
        rho = np.diag([1.1, -0.1]).astype(complex)
        with pytest.raises(ValueError, match="positive"):
            assert_density_matrix(rho)

    @pytest.mark.parametrize("shape,shown", [((2, 3), r"\(2, 3\)"), ((4,), r"\(4,\)")])
    def test_rejects_non_square(self, shape, shown):
        with pytest.raises(ValueError, match=f"density matrix must be square, got shape {shown}"):
            assert_density_matrix(np.zeros(shape, dtype=complex))

    @pytest.mark.parametrize("rho", [np.full((2, 2), np.nan), np.diag([np.nan, 1.0]), np.diag([np.inf, 0.0])],
                             ids=["all-nan", "nan-diagonal", "inf-diagonal"])
    def test_rejects_non_finite(self, rho):
        with pytest.raises(ValueError, match=r"^density matrix has non-finite entries$"):
            assert_density_matrix(rho)

    def test_defects_values(self):
        herm, trace, min_eig = density_matrix_defects(np.diag([0.5, 0.5]).astype(complex))
        assert herm == 0.0 and trace < 1e-15 and abs(min_eig - 0.5) < 1e-15


class TestSpaceLayout:
    def test_dim(self):
        assert SpaceLayout((2, 2, 6)).dim == 24

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            SpaceLayout((2, 0))
        with pytest.raises(ValueError):
            SpaceLayout(())
