import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from noisycav.dynamics import IntegratorSettings, evolve
from noisycav.entanglement import _wootters, concurrence, spin_flip
from noisycav.model import ATOM_A, ATOM_B, SystemConfig, build_model, ground_state

from conftest import random_density_matrix, random_unitary


def bell_state():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    return np.outer(phi, phi.conj())


def werner(p):
    return p * bell_state() + (1.0 - p) * np.eye(4, dtype=complex) / 4.0


def charpoly_lambdas(rho):
    """Independent oracle: spectrum of the non-Hermitian product rho*rho_tilde
    through its characteristic polynomial (Newton identities + root finding),
    never touching a Hermitian eigensolve of the product."""
    m = rho @ spin_flip(rho)
    t1 = np.trace(m)
    t2 = np.trace(m @ m)
    t3 = np.trace(m @ m @ m)
    t4 = np.trace(m @ m @ m @ m)
    e1 = t1
    e2 = (e1 * t1 - t2) / 2.0
    e3 = (e2 * t1 - e1 * t2 + t3) / 3.0
    e4 = (e3 * t1 - e2 * t2 + e1 * t3 - t4) / 4.0
    roots = np.roots([1.0, -e1, e2, -e3, e4])
    mus = np.clip(roots.real, 0.0, None)
    return np.sort(np.sqrt(mus))[::-1]


class TestSpinFlip:
    def test_bell_state_invariant(self):
        rho = bell_state()
        assert np.abs(spin_flip(rho) - rho).max() < 1e-14

    def test_ground_maps_to_doubly_excited(self):
        gg = np.diag([1.0, 0, 0, 0]).astype(complex)
        ee = np.diag([0, 0, 0, 1.0]).astype(complex)
        assert np.abs(spin_flip(gg) - ee).max() == 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_involution(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(rng, 4)
        assert np.abs(spin_flip(spin_flip(rho)) - rho).max() < 1e-14

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            spin_flip(np.eye(3, dtype=complex) / 3)


class TestConcurrence:
    def test_bell_state_is_maximal(self):
        assert concurrence(bell_state()).value == pytest.approx(1.0, abs=1e-12)

    def test_product_state_is_zero(self):
        assert concurrence(np.diag([1.0, 0, 0, 0]).astype(complex)).value == 0.0

    @pytest.mark.parametrize("p", [0.0, 1.0 / 3.0, 0.6, 1.0])
    def test_werner_family(self, p):
        # hand-derived: rho_tilde = rho for Werner states, so the lambdas are
        # |eigenvalues| of rho: (1+3p)/4 once and (1-p)/4 three times, giving
        # c = max(0, (3p-1)/2)
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert abs(concurrence(werner(p)).value - expected) < 1e-10

    @pytest.mark.parametrize("p", [0.0, 1.0 / 3.0, 0.6, 1.0])
    def test_werner_margin_is_unclamped(self, p):
        # the same lambdas give l1 - l2 - l3 - l4 = (3p-1)/2, negative below p = 1/3
        result = concurrence(werner(p))
        assert abs(result.margin - (3.0 * p - 1.0) / 2.0) < 1e-10
        assert result.value == min(max(result.margin, 0.0), 1.0)

    def test_symmetric_mixture(self):
        s = np.zeros(4, dtype=complex)
        s[1] = s[2] = 1 / np.sqrt(2)
        rho = 0.75 * np.diag([1.0, 0, 0, 0]).astype(complex) + 0.25 * np.outer(s, s.conj())
        assert concurrence(rho).value == pytest.approx(0.25, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_value_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(rng, 4, rank=int(rng.integers(1, 5)))
        result = concurrence(rho)
        assert 0.0 <= result.value <= 1.0
        l1, l2, l3, l4 = result.lambdas
        assert result.value == min(1.0, max(0.0, l1 - l2 - l3 - l4))
        assert all(l >= 0.0 for l in result.lambdas)
        assert list(result.lambdas) == sorted(result.lambdas, reverse=True)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_local_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(rng, 4)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = u @ rho @ u.conj().T
        assert abs(concurrence(rotated).value - concurrence(rho).value) <= 1e-8

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_convexity(self, seed):
        rng = np.random.default_rng(seed)
        r1 = random_density_matrix(rng, 4)
        r2 = random_density_matrix(rng, 4)
        p = float(rng.uniform())
        mixed = concurrence(p * r1 + (1 - p) * r2).value
        bound = p * concurrence(r1).value + (1 - p) * concurrence(r2).value
        assert mixed <= bound + 1e-8

    def test_charpoly_oracle_agreement(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            rho = random_density_matrix(rng, 4)
            lam_h = np.array(concurrence(rho).lambdas)
            lam_p = charpoly_lambdas(rho)
            worst = max(worst, np.abs(lam_h - lam_p).max())
        assert worst <= 1e-8

    def test_rejects_invalid_input(self):
        with pytest.raises(ValueError):
            concurrence(np.eye(4, dtype=complex))  # trace 4
        with pytest.raises(ValueError):
            concurrence(np.eye(2, dtype=complex) / 2)  # wrong dimension
        with pytest.raises(ValueError, match=r"^density matrix has non-finite entries$"):
            concurrence(np.full((4, 4), np.nan))  # stopped before the eigensolve

    def test_diagnostics_populated(self, rng):
        result = concurrence(random_density_matrix(rng, 4))
        assert result.max_imag_residue < 1e-12
        assert result.min_eig_clipped <= 0.0


def x_state(populations, outer, inner, phases):
    """The X-state with diagonal `populations` (normalized) and coherences
    rho_03 = outer sqrt(p_0 p_3) e^(i phase_0), rho_12 = inner sqrt(p_1 p_2) e^(i phase_1),
    with the lambdas hand-derived from these: sqrt(p_0 p_3) (1 +- outer) and
    sqrt(p_1 p_2) (1 +- inner), in decreasing order. Each block is PSD for a
    fraction `outer`, `inner` <= 1 and singular at 1, the boundary |rho_03|^2 = p_0 p_3.
    """
    p = np.asarray(populations, dtype=float) / math.fsum(populations)
    rho = np.diag(p).astype(complex)
    roots = (math.sqrt(p[0] * p[3]), math.sqrt(p[1] * p[2]))
    for (i, j), root, fraction, phase in zip(((0, 3), (1, 2)), roots, (outer, inner), phases):
        rho[i, j] = fraction * root * np.exp(1j * phase)
        rho[j, i] = np.conj(rho[i, j])
    lambdas = sorted([roots[0] * (1 + outer), roots[0] * (1 - outer), roots[1] * (1 + inner), roots[1] * (1 - inner)])
    return rho, np.array(lambdas[::-1])


POPULATIONS = st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4)
PHASES = st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi))
INTERIOR = st.floats(0.05, 0.95)  # a nonzero coherence inside the PSD boundary


def assert_closed_form_matches(rho, lambdas, tolerance):
    """The closed form's lambdas and margin against `lambdas` within `tolerance`; its diagnostics."""
    result = concurrence(rho)
    assert np.abs(np.array(result.lambdas) - lambdas).max() <= tolerance
    assert abs(result.margin - (lambdas[0] - lambdas[1] - lambdas[2] - lambdas[3])) <= 2 * tolerance
    assert result.max_imag_residue == 0.0  # the closed form ran
    assert -1e-15 <= result.min_eig_clipped <= 0.0


class TestXStateClosedForm:
    """The X-state closed form against Wootters' path, the characteristic-polynomial oracle and hand-derived lambdas.

    Near the PSD boundary the smallest lambda is small, and both references
    lose digits there: Wootters' path takes the square root of a round-off
    eigenvalue, and the oracle's Newton sums carry an absolute error of about
    1e-16 that its smallest roots divide by the product of the others. So the
    oracle is compared on lambdas at least 1e-2 from 0, Wootters' path up to
    1e-4 from the boundary, and the states on it with their hand-derived
    lambdas. The oracle's roots are also good to only about sqrt(1e-16) where
    two coincide, as they do for equal populations and coherences, so its
    lambdas are also at least 1e-2 apart.
    """

    @given(POPULATIONS, INTERIOR, INTERIOR, PHASES)
    @settings(max_examples=200, deadline=None)
    def test_full_rank_matches_wootters(self, populations, outer, inner, phases):
        rho, lambdas = x_state(populations, outer, inner, phases)
        assert_closed_form_matches(rho, lambdas, 1e-12)
        assert_closed_form_matches(rho, _wootters(rho)[0], 1e-10)

    @given(POPULATIONS, INTERIOR, INTERIOR, PHASES)
    @settings(max_examples=200, deadline=None)
    def test_full_rank_matches_the_oracle(self, populations, outer, inner, phases):
        rho, lambdas = x_state(populations, outer, inner, phases)
        assume(np.diff(lambdas).max() <= -1e-2 and lambdas[-1] >= 1e-2)
        assert_closed_form_matches(rho, charpoly_lambdas(rho), 1e-8)

    @given(POPULATIONS, st.integers(2, 4), INTERIOR, st.booleans(), PHASES)
    @settings(max_examples=200, deadline=None)
    def test_near_the_boundary_matches_wootters(self, populations, digits, fraction, outer_near, phases):
        near = 1.0 - 10.0**-digits
        rho, lambdas = x_state(populations, *((near, fraction) if outer_near else (fraction, near)), phases)
        assert_closed_form_matches(rho, lambdas, 1e-12)
        assert_closed_form_matches(rho, _wootters(rho)[0], 1e-10)

    @given(POPULATIONS, st.one_of(st.just(1.0), INTERIOR), st.booleans(), PHASES)
    @settings(max_examples=200, deadline=None)
    def test_on_the_boundary_matches_the_hand_derived_lambdas(self, populations, fraction, outer_on, phases):
        rho, lambdas = x_state(populations, *((1.0, fraction) if outer_on else (fraction, 1.0)), phases)
        assert lambdas[-1] == 0.0  # rank deficient
        assert_closed_form_matches(rho, lambdas, 1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_one_entry_off_the_x_takes_wootters_path(self, seed):
        # a full-rank X-state mixed with a pure state on |gg>, |ge>: rho_01 and rho_10 are the only
        # entries off the X, and the result still matches the oracle
        rng = np.random.default_rng(seed)
        rho, _ = x_state(rng.uniform(0.05, 1.0, 4), *rng.uniform(0.05, 0.95, 2), rng.uniform(0, 2 * math.pi, 2))
        ket = np.array([1.0, np.exp(1j * rng.uniform(0, 2 * math.pi)), 0.0, 0.0]) / math.sqrt(2.0)
        mixed = 0.7 * rho + 0.3 * np.outer(ket, ket.conj())
        off_x = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])
        assert sorted(zip(*np.nonzero(mixed * off_x))) == [(0, 1), (1, 0)]
        assert np.abs(np.array(concurrence(mixed).lambdas) - charpoly_lambdas(mixed)).max() <= 1e-8
        assert np.array_equal(concurrence(mixed).lambdas, tuple(_wootters(mixed)[0]))


class TestTrajectoryConcurrence:
    def test_perfect_cavity_stays_separable(self):
        # kappa = 0 from |g,g,0>: the atoms remain separable at every
        # recorded time
        cfg = SystemConfig(kappa=0.0, gamma=0.2, n_thermal=1.0)
        traj = evolve(
            build_model(cfg),
            ground_state(cfg),
            IntegratorSettings(dt=0.002, t_max=2.0, record_stride=50),
            reduce_to=(ATOM_A, ATOM_B),
        )
        for state in traj.states:
            assert concurrence(state).value <= 1e-10
