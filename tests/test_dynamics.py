import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisycav.dynamics import (
    HermiticityDriftError,
    IntegratorError,
    IntegratorSettings,
    RankDeficientError,
    SectorBlocks,
    Trajectory,
    _coherence_sectors,
    _evolved_entries,
    _superoperator_block,
    evolve,
    lindblad_rhs,
    make_rhs,
    steady_state,
    steady_state_residual,
    unvec,
    vec,
    vectorize_superoperator,
)
from noisycav.model import (
    ATOM_A,
    ATOM_B,
    CAVITY,
    LindbladModel,
    SystemConfig,
    build_cavity_model,
    build_model,
    ground_state,
    standard_observables,
)
from noisycav.qops import SpaceLayout, basis_state, embed, excitation_numbers, partial_trace

from conftest import random_density_matrix, random_trace_one_hermitian


def cavity_thermal_state(n_thermal, cutoff):
    """Geometric distribution restricted to the truncated space, normalized."""
    q = n_thermal / (1.0 + n_thermal)
    p = q ** np.arange(cutoff + 1)
    return np.diag(p / p.sum()).astype(complex)


def dense_liouvillian(model):
    """Superoperator built column by column from the master equation on the basis matrices E_ij."""
    d = model.dim
    liouv = np.empty((d * d, d * d), dtype=complex)
    for k in range(d * d):
        basis = np.zeros(d * d, dtype=complex)
        basis[k] = 1.0
        liouv[:, k] = vec(lindblad_rhs(model, unvec(basis, d)))
    return liouv


def dense_null_space(liouv):
    """Right null vectors (columns) by the full SVD, with the solver's 1e-10 relative cut."""
    _, s, vh = np.linalg.svd(liouv)
    return vh[s < s[0] * 1e-10].conj().T


def dense_steady_state(model, liouv):
    """Trace-row solve of the full d^2 x d^2 system."""
    d = model.dim
    a = liouv.copy()
    a[0, :] = 0.0
    a[0, :: d + 1] = 1.0
    b = np.zeros(d * d, dtype=complex)
    b[0] = 1.0
    rho = unvec(np.linalg.solve(a, b), d)
    return 0.5 * (rho + rho.conj().T)


def coherence_orders(model):
    """Order N_i - N_j of every entry rho[i, j], as a d x d array."""
    n = excitation_numbers(model.layout)
    return n[:, None] - n[None, :]


def excited_ket(cfg):
    idx = 3 * (cfg.cutoff + 1)  # |e,e,0>
    return basis_state(cfg.layout.dim, idx)


def with_zero_rate_term(model):
    """The model plus a zero-rate collapse term, which every form must ignore."""
    extra = (0.0, model.collapse_terms[0][1].conj().T)
    return LindbladModel(model.hamiltonian, model.collapse_terms + (extra,), model.layout)


def without_collapse_terms(model):
    return LindbladModel(model.hamiltonian, (), model.layout)


GENERATOR_CASES = {
    "thermal_atoms": lambda: build_model(SystemConfig(n_thermal=0.5)),
    "lab_off_resonance": lambda: build_model(
        SystemConfig(omega=1.3, omega_f=0.9, n_thermal=0.5, cutoff=3), frame="lab"
    ),
    "cavity": lambda: build_cavity_model(SystemConfig(n_thermal=0.7, cutoff=6)),
    "zero_rate_term": lambda: with_zero_rate_term(build_model(SystemConfig(n_thermal=0.5, cutoff=3))),
    "no_collapse_terms": lambda: without_collapse_terms(build_model(SystemConfig(cutoff=3))),
    # breaks the excitation-number symmetry: one sector, evaluated in matrix form
    "sigma_x_jump": lambda: with_atom_a_sigma_x(build_model(SystemConfig(n_thermal=0.5, cutoff=3))),
}


class TestIntegratorSettings:
    def test_defaults(self):
        s = IntegratorSettings()
        assert (s.dt, s.t_max, s.tolerance, s.record_stride) == (0.002, 5.0, 1e-8, 10)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(dt=0.0), "dt"),
            (dict(t_max=-1.0), "t_max"),
            (dict(dt=0.5, t_max=0.1), "dt"),
            (dict(tolerance=0.0), "tolerance"),
            (dict(tolerance=1e-3), "tolerance"),
            (dict(record_stride=0), "record_stride"),
            (dict(dt=math.nan), "dt must be finite"),
            (dict(t_max=math.inf), "t_max must be finite"),
            (dict(tolerance=math.nan), "tolerance must be finite"),
            (dict(record_stride=math.inf), "record_stride must be finite"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            IntegratorSettings(**kwargs)

    def test_zero_t_max_allowed(self):
        assert IntegratorSettings(t_max=0.0).t_max == 0.0


class TestLindbladRHS:
    def test_vacuum_under_thermal_cavity(self):
        # hand-evaluated: both cavity channels acting on |0><0| leave
        # 2*kappa*n_T (|1><1| - |0><0|)
        kappa, n_t = 0.8, 0.6
        cfg = SystemConfig(g_a=0.0, g_b=0.0, gamma=0.0, kappa=kappa, n_thermal=n_t, cutoff=4)
        model = build_cavity_model(cfg)
        rho = np.zeros((5, 5), dtype=complex)
        rho[0, 0] = 1.0
        out = lindblad_rhs(model, rho)
        expected = np.zeros((5, 5), dtype=complex)
        expected[0, 0] = -2.0 * kappa * n_t
        expected[1, 1] = 2.0 * kappa * n_t
        assert np.abs(out - expected).max() < 1e-14

    def test_thermal_state_is_stationary(self):
        cfg = SystemConfig(g_a=0.0, g_b=0.0, gamma=0.0, kappa=1.0, n_thermal=0.7, cutoff=12)
        model = build_cavity_model(cfg)
        rho = cavity_thermal_state(0.7, 12)
        assert np.abs(lindblad_rhs(model, rho)).max() < 1e-12

    def test_trivial_model(self, rng):
        model = LindbladModel(np.zeros((3, 3), dtype=complex), (), SpaceLayout((3,)))
        rho = random_density_matrix(rng, 3)
        assert np.abs(lindblad_rhs(model, rho)).max() == 0.0

    def test_hermitian_traceless_output(self, rng):
        model = build_model(SystemConfig(n_thermal=0.5))
        rho = random_density_matrix(rng, model.dim)
        out = lindblad_rhs(model, rho)
        assert np.abs(out - out.conj().T).max() < 1e-12
        assert abs(np.trace(out)) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        model = build_model(SystemConfig(n_thermal=0.3, cutoff=2))
        d = model.dim
        r1 = random_trace_one_hermitian(rng, d)
        r2 = random_trace_one_hermitian(rng, d)
        alpha, beta = rng.normal(size=2)
        lhs = lindblad_rhs(model, alpha * r1 + beta * r2)
        rhs = alpha * lindblad_rhs(model, r1) + beta * lindblad_rhs(model, r2)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_dimension_mismatch(self):
        model = build_model(SystemConfig())
        with pytest.raises(ValueError):
            lindblad_rhs(model, np.eye(4, dtype=complex))

    @pytest.mark.parametrize("case", sorted(GENERATOR_CASES))
    def test_compiled_evaluator_matches(self, case, rng):
        # each sector alone as `SectorBlocks` (one block) and the model on all
        # d^2 entries (matrix form), against the equation as written; a
        # sector's entries of the result depend on its own entries only
        model = GENERATOR_CASES[case]()
        d = model.dim
        everything = (np.arange(d * d) % d, np.arange(d * d) // d)
        cases = [(SectorBlocks(model.layout, rows, cols, _superoperator_block(model, rows, cols)), (rows, cols))
                 for rows, cols in _coherence_sectors(model)]
        for generator, (rows, cols) in cases + [(model, everything)]:
            fast = make_rhs(generator)
            for _ in range(3):
                rho = random_trace_one_hermitian(rng, d)
                expected = lindblad_rhs(model, rho)[rows, cols]
                assert np.abs(fast(rho[rows, cols]) - expected).max() < 1e-13


class TestSuperoperator:
    @pytest.mark.parametrize("case", sorted(GENERATOR_CASES))
    def test_agrees_with_rhs_on_random_states(self, case, rng):
        # `lindblad_rhs` works matrix-by-matrix on the equation as written;
        # the superoperator goes through the generator and kron identities
        model = GENERATOR_CASES[case]()
        liouv = vectorize_superoperator(model)
        worst = 0.0
        for _ in range(20):
            rho = random_trace_one_hermitian(rng, model.dim)
            dev = np.abs(liouv @ vec(rho) - vec(lindblad_rhs(model, rho))).max()
            worst = max(worst, dev)
        assert worst < 1e-12

    def test_annihilates_steady_state(self):
        model = build_model(SystemConfig(n_thermal=0.5))
        rho = steady_state(model)
        assert np.abs(vectorize_superoperator(model) @ vec(rho)).max() <= 1e-8

    def test_spectrum_is_dissipative(self):
        model = build_model(SystemConfig(n_thermal=0.5))
        eigs = np.linalg.eigvals(vectorize_superoperator(model))
        assert eigs.real.max() <= 1e-10

    def test_vec_unvec_roundtrip(self, rng):
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        assert np.array_equal(unvec(vec(m), 5), m)


class TestEvolve:
    def test_ground_state_frozen_without_noise(self):
        # kappa = 0: nothing couples to |g,g,0>, the trajectory is constant
        cfg = SystemConfig(kappa=0.0, gamma=0.2, n_thermal=1.0)
        rho0 = ground_state(cfg)
        traj = evolve(build_model(cfg), rho0, IntegratorSettings(dt=0.002, t_max=2.0))
        for state in traj.states:
            assert np.abs(state - rho0).max() < 1e-12

    def test_idle_bus_never_populates(self):
        cfg = SystemConfig(kappa=2.0, n_thermal=0.0)
        traj = evolve(
            build_model(cfg),
            ground_state(cfg),
            IntegratorSettings(dt=0.002, t_max=2.0),
            observables=standard_observables(cfg),
        )
        assert traj.observables["mean_photon"].max() <= 1e-10

    def test_decay_convention(self):
        # isolated excited atoms decay as exp(-2*gamma*t): this pins the
        # factor-2 normalization of the dissipator
        cfg = SystemConfig(g_a=0.0, g_b=0.0, kappa=0.0, gamma=0.2)
        ket = excited_ket(cfg)
        rho0 = np.outer(ket, ket.conj())
        traj = evolve(
            build_model(cfg),
            rho0,
            IntegratorSettings(dt=0.002, t_max=5.0, record_stride=100),
            observables=standard_observables(cfg),
        )
        for key in ("p_ee_a", "p_ee_b"):
            expected = np.exp(-2.0 * cfg.gamma * traj.times)
            rel = np.abs(traj.observables[key] - expected) / expected
            assert rel.max() < 1e-6

    def test_trace_and_positivity_health(self):
        cfg = SystemConfig(n_thermal=1.0)
        traj = evolve(build_model(cfg), ground_state(cfg), IntegratorSettings(dt=0.002, t_max=2.0))
        assert traj.trace_residuals.max() <= 1e-8
        assert traj.min_eigenvalues.min() >= -1e-8
        for state in traj.states:
            assert np.abs(state - state.conj().T).max() == 0.0

    def test_default_record_grid(self):
        traj = evolve(
            build_model(SystemConfig()),
            ground_state(SystemConfig()),
            IntegratorSettings(dt=0.01, t_max=0.25, record_stride=5),
        )
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.25)
        assert np.allclose(np.diff(traj.times), 0.05)

    def test_explicit_record_times(self):
        cfg = SystemConfig(n_thermal=0.2)
        times = [0.0, 0.13, 0.4]
        traj = evolve(build_model(cfg), ground_state(cfg), IntegratorSettings(), record_times=times)
        assert np.allclose(traj.times, times)
        assert len(traj.states) == 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_record_times_must_be_finite(self, bad):
        cfg = SystemConfig(cutoff=1)
        with pytest.raises(ValueError, match="record times must be finite"):
            evolve(build_model(cfg), ground_state(cfg), IntegratorSettings(), record_times=[0.0, bad])

    def test_zero_t_max_records_initial_state_only(self):
        cfg = SystemConfig()
        traj = evolve(build_model(cfg), ground_state(cfg), IntegratorSettings(t_max=0.0))
        assert list(traj.times) == [0.0]
        assert np.array_equal(traj.states[0], ground_state(cfg))

    def test_reduce_to_atoms(self):
        cfg = SystemConfig(n_thermal=0.3)
        traj = evolve(
            build_model(cfg),
            ground_state(cfg),
            IntegratorSettings(dt=0.002, t_max=0.1),
            reduce_to=(ATOM_A, ATOM_B),
        )
        assert traj.reduced
        assert traj.states[0].shape == (4, 4)

    def test_matches_spectral_propagation_of_unitary_model(self, rng):
        # independent oracle: with no dissipation the exact solution is
        # U rho0 U^dag with U = V exp(-i w t) V^dag from the eigensystem of H
        cfg = SystemConfig(kappa=0.0, gamma=0.0, g_a=0.8, g_b=1.2, cutoff=3)
        model = build_model(cfg)
        w, v = np.linalg.eigh(model.hamiltonian)
        rho0 = random_density_matrix(rng, model.dim)
        t = 0.9
        u = (v * np.exp(-1j * w * t)) @ v.conj().T
        exact = u @ rho0 @ u.conj().T
        traj = evolve(model, rho0, IntegratorSettings(dt=0.002, t_max=t), record_times=[t])
        assert np.abs(traj.states[-1] - exact).max() < 1e-9

    def test_step_halving_convergence(self):
        cfg = SystemConfig(kappa=2.0, gamma=0.2, n_thermal=1.0)
        model = build_model(cfg)
        rho0 = ground_state(cfg)
        states = {}
        for dt in (0.002, 0.001):
            traj = evolve(model, rho0, IntegratorSettings(dt=dt, t_max=1.0), record_times=[1.0])
            states[dt] = traj.states[-1]
        assert np.abs(states[0.002] - states[0.001]).max() < 1e-8

    def test_unstable_step_aborts(self):
        cfg = SystemConfig(n_thermal=1.0)
        with pytest.raises(IntegratorError):
            evolve(build_model(cfg), ground_state(cfg), IntegratorSettings(dt=0.5, t_max=5.0))

    def test_rejects_invalid_initial_state(self):
        cfg = SystemConfig()
        bad = np.eye(cfg.layout.dim, dtype=complex)  # trace 24
        with pytest.raises(ValueError):
            evolve(build_model(cfg), bad, IntegratorSettings())

    def test_trajectory_length_validation(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 1.0]), states=[np.eye(2, dtype=complex)])


class TestSteadyState:
    def test_thermal_oracle_large_cutoff(self):
        # the in-text geometric law, max error dominated by the truncated tail
        for n_t in (0.2, 0.5, 1.0):
            cfg = SystemConfig(g_a=0.0, g_b=0.0, gamma=0.0, kappa=1.0, n_thermal=n_t, cutoff=20)
            rho = steady_state(build_cavity_model(cfg))
            q = n_t / (1.0 + n_t)
            target = (q ** np.arange(21)) / (1.0 + n_t)
            assert np.abs(np.real(np.diag(rho)) - target).max() <= 1e-6

    def test_dark_state_without_thermal_drive(self):
        cfg = SystemConfig(n_thermal=0.0, gamma=0.2)
        rho = steady_state(build_model(cfg))
        assert np.abs(rho - ground_state(cfg)).max() <= 1e-8

    def test_matches_long_time_evolution(self):
        cfg = SystemConfig(kappa=2.0, gamma=0.2, n_thermal=0.5)
        model = build_model(cfg)
        rho_ss = steady_state(model)
        traj = evolve(model, ground_state(cfg), IntegratorSettings(dt=0.002, t_max=50.0), record_times=[50.0])
        assert np.abs(rho_ss - traj.states[-1]).max() <= 1e-6

    def test_residual_is_small(self):
        model = build_model(SystemConfig(n_thermal=0.5))
        rho = steady_state(model)
        assert steady_state_residual(model, rho) <= 1e-8

    def test_no_dissipation_is_rank_deficient(self):
        with pytest.raises(RankDeficientError):
            steady_state(build_model(SystemConfig(kappa=0.0, gamma=0.0)))

    def test_undamped_atoms_are_rank_deficient(self):
        # g = 0, gamma = 0 leaves every atomic operator stationary: 16 null
        # directions, as the dense SVD counts them
        cfg = SystemConfig(g_a=0.0, g_b=0.0, gamma=0.0, kappa=1.0, n_thermal=0.5)
        model = build_model(cfg)
        assert dense_null_space(dense_liouvillian(model)).shape[1] == 16
        with pytest.raises(RankDeficientError, match="dimension 16;"):
            steady_state(model)


def with_atom_a_sigma_x(model, rate=0.3):
    """The model plus a sigma_x collapse term on atom a, which breaks excitation-number conservation."""
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    extra = (rate, embed(sigma_x, ATOM_A, model.layout))
    return LindbladModel(model.hamiltonian, model.collapse_terms + (extra,), model.layout)


SECTOR_CASES = {
    "interaction": lambda c: build_model(SystemConfig(n_thermal=0.5, cutoff=c)),
    "lab": lambda c: build_model(SystemConfig(omega=1.3, omega_f=0.9, n_thermal=0.5, cutoff=c), frame="lab"),
    "cavity": lambda c: build_cavity_model(SystemConfig(n_thermal=0.7, cutoff=c)),
    "unequal_g": lambda c: build_model(SystemConfig(g_a=0.6, g_b=1.4, n_thermal=0.8, cutoff=c)),
    "gamma0_unequal_g": lambda c: build_model(
        SystemConfig(g_a=0.6, g_b=1.4, gamma=0.0, n_thermal=0.5, cutoff=c)
    ),
    # equal couplings and gamma = 0 leave the dark atomic state undamped: both
    # solvers must report the same two-dimensional stationary manifold
    "gamma0_dark_mode": lambda c: build_model(SystemConfig(gamma=0.0, n_thermal=0.5, cutoff=c)),
}


def reference_rk4(model, rho0, record_times, dt):
    """Classical RK4 on full d x d matrices through `lindblad_rhs`, with `evolve`'s step schedule.

    Steps are shortened to hit each record time and the state is re-Hermitized
    after every step, as the integrator does.
    """
    rho = np.array(rho0, dtype=complex)
    out = []
    t_prev = 0.0
    for t in record_times:
        span = t - t_prev
        if span > 1e-12 * max(1.0, t):
            n_steps = max(1, math.ceil(span / dt - 1e-9))
            h = span / n_steps
            for _ in range(n_steps):
                k1 = lindblad_rhs(model, rho)
                k2 = lindblad_rhs(model, rho + 0.5 * h * k1)
                k3 = lindblad_rhs(model, rho + 0.5 * h * k2)
                k4 = lindblad_rhs(model, rho + h * k3)
                rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                rho = 0.5 * (rho + rho.conj().T)
            t_prev = t
        out.append(rho.copy())
    return out


def superposition_start(cfg):
    """(|g,g,0> + |e,g,0>)/sqrt(2): populations in q = 0, coherences in q = +1 and -1."""
    ket = (basis_state(cfg.layout.dim, 0) + basis_state(cfg.layout.dim, 2 * (cfg.cutoff + 1))) / np.sqrt(2.0)
    return np.outer(ket, ket.conj())


# (config, frame, start, sigma_x jump on atom a) per case
EVOLVE_CASES = {
    "thermal_atoms": (dict(n_thermal=0.5, gamma=0.3), "interaction", ground_state, False),
    "lab_off_resonance": (dict(omega=1.3, omega_f=0.9, n_thermal=0.5), "lab", superposition_start, False),
    "unequal_g": (dict(g_a=0.6, g_b=1.4, n_thermal=0.8), "interaction", ground_state, False),
    "superposition": (dict(n_thermal=0.3), "interaction", superposition_start, False),
    "sigma_x_jump": (dict(n_thermal=0.5), "interaction", ground_state, True),
}

RECORD_TIMES = [0.0, 0.05, 0.13, 0.3]


def evolve_case(case, cutoff):
    params, frame, start, sigma_x = EVOLVE_CASES[case]
    cfg = SystemConfig(cutoff=cutoff, **params)
    model = build_model(cfg, frame=frame)
    if sigma_x:
        model = with_atom_a_sigma_x(model)
    return model, start(cfg)


class TestSectorEvolve:
    """RK4 on the evolved entries (q = 0 or all) against a full-matrix RK4 written here on `lindblad_rhs` alone."""

    @pytest.mark.parametrize("cutoff", [2, 3, 4])
    @pytest.mark.parametrize("case", sorted(EVOLVE_CASES))
    def test_matches_full_matrix_rk4(self, case, cutoff):
        model, rho0 = evolve_case(case, cutoff)
        settings = IntegratorSettings(dt=0.01, t_max=1.0)
        traj = evolve(model, rho0, settings, record_times=RECORD_TIMES)
        reference = reference_rk4(model, rho0, RECORD_TIMES, settings.dt)
        for state, expected in zip(traj.states, reference):
            assert np.abs(state - expected).max() <= 1e-12
        assert np.abs(traj.states[-1] - rho0).max() > 1e-3  # the state moved

    @pytest.mark.parametrize("case", ["thermal_atoms", "lab_off_resonance", "superposition"])
    def test_untouched_sectors_stay_exactly_zero(self, case):
        model, rho0 = evolve_case(case, 3)
        orders = coherence_orders(model)
        touched = np.unique(orders[rho0 != 0])
        traj = evolve(model, rho0, IntegratorSettings(dt=0.01, t_max=0.3))
        for state in traj.states:
            assert np.all(state[~np.isin(orders, touched)] == 0.0)
            assert np.abs(state[np.isin(orders, touched)]).max() > 0.0

    def test_one_sided_roundoff_coherence_keeps_its_mirror(self):
        # passes the density-matrix gate, but only rho[e,g,0; g,g,0] is set:
        # the q = -1 sector holding its transpose must be propagated too
        cfg = SystemConfig(n_thermal=0.5, cutoff=3)
        model = build_model(cfg)
        rho0 = ground_state(cfg)
        excited = 2 * (cfg.cutoff + 1)
        rho0[excited, 0] = 1e-14
        traj = evolve(model, rho0, IntegratorSettings(dt=0.01, t_max=0.3), record_times=RECORD_TIMES)
        reference = reference_rk4(model, rho0, RECORD_TIMES, 0.01)
        for state, expected in zip(traj.states[1:], reference[1:]):
            assert np.abs(state - expected).max() <= 1e-12
            assert np.array_equal(state, state.conj().T)
            assert state[0, excited] != 0.0

    def test_reduce_to_matches_full_matrix_rk4(self):
        model, rho0 = evolve_case("superposition", 3)
        traj = evolve(model, rho0, IntegratorSettings(dt=0.01, t_max=1.0), record_times=RECORD_TIMES,
                      reduce_to=(ATOM_A, ATOM_B))
        reference = reference_rk4(model, rho0, RECORD_TIMES, 0.01)
        for state, expected in zip(traj.states, reference):
            assert np.abs(state - partial_trace(expected, model.layout, (ATOM_A, ATOM_B))).max() <= 1e-12

    def test_prebuilt_blocks_evolve_as_the_model(self):
        model, rho0 = evolve_case("thermal_atoms", 3)
        rows, cols = _coherence_sectors(model)[0]
        blocks = SectorBlocks(model.layout, rows, cols, _superoperator_block(model, rows, cols))
        settings = IntegratorSettings(dt=0.01, t_max=1.0)
        expected = evolve(model, rho0, settings, record_times=RECORD_TIMES)
        traj = evolve(blocks, rho0, settings, record_times=RECORD_TIMES)
        for state, want in zip(traj.states, expected.states):
            assert np.array_equal(state, want)

    def test_prebuilt_blocks_hold_only_their_sectors(self):
        cfg = SystemConfig(n_thermal=0.5, cutoff=3)
        model = build_model(cfg)
        rows, cols = _coherence_sectors(model)[0]
        blocks = SectorBlocks(model.layout, rows, cols, _superoperator_block(model, rows, cols))
        with pytest.raises(ValueError, match="outside the sectors"):
            evolve(blocks, superposition_start(cfg), IntegratorSettings(dt=0.01, t_max=0.1))
        with pytest.raises(ValueError, match="block shape"):
            SectorBlocks(model.layout, rows, cols, np.zeros((1, 1)))

    def test_population_start_evolves_q0_and_coherent_start_everything(self):
        # the one rule: the q = 0 block for a start without coherence between
        # different N, none (the model on all d^2 entries) for one with a
        # q = +-1 coherence or a model without the symmetry
        cfg = SystemConfig(n_thermal=0.5, cutoff=3)
        model = build_model(cfg)
        d = cfg.layout.dim
        ket = excited_ket(cfg)
        blocks = _evolved_entries(model, np.outer(ket, ket.conj()))
        rows, cols = blocks.rows, blocks.cols
        assert np.array_equal(np.sort(rows * d + cols), np.flatnonzero(coherence_orders(model) == 0))
        assert np.array_equal(blocks.block, _superoperator_block(model, rows, cols))
        assert _evolved_entries(model, superposition_start(cfg)) is None
        assert _evolved_entries(with_atom_a_sigma_x(model), np.outer(ket, ket.conj())) is None


class TestSectorSteadyState:
    """The sector solver against a dense reference built here from `lindblad_rhs` alone."""

    @pytest.mark.parametrize("cutoff", [3, 4, 5, 6])
    @pytest.mark.parametrize("case", sorted(SECTOR_CASES))
    def test_matches_dense_reference(self, case, cutoff):
        model = SECTOR_CASES[case](cutoff)
        liouv = dense_liouvillian(model)
        nullity = dense_null_space(liouv).shape[1]
        if nullity != 1:
            with pytest.raises(RankDeficientError, match=f"dimension {nullity};"):
                steady_state(model)
            return
        rho = steady_state(model)
        assert np.abs(rho - dense_steady_state(model, liouv)).max() <= 1e-12
        assert np.all(rho[coherence_orders(model) != 0] == 0.0)

    @pytest.mark.parametrize("cutoff", [3, 5])
    def test_broken_conservation_uses_one_sector(self, cutoff):
        model = with_atom_a_sigma_x(build_model(SystemConfig(n_thermal=0.5, cutoff=cutoff)))
        liouv = dense_liouvillian(model)
        assert dense_null_space(liouv).shape[1] == 1
        rho = steady_state(model)
        assert np.abs(rho - dense_steady_state(model, liouv)).max() <= 1e-12
        assert np.abs(rho[coherence_orders(model) != 0]).max() > 1e-6
        assert steady_state_residual(model, rho) <= 1e-8

    def test_stationary_coherences_count_toward_nullity(self):
        # gamma = 0, n_T = 0: two stationary populations plus a q = +1 and a
        # q = -1 coherence between the dark state and the ground state
        model = build_model(SystemConfig(gamma=0.0, n_thermal=0.0))
        null = dense_null_space(dense_liouvillian(model))
        assert null.shape[1] == 4
        orders = vec(coherence_orders(model))
        per_order = {q: np.linalg.matrix_rank(null[orders == q], tol=1e-8) for q in (-1, 0, 1)}
        assert per_order == {-1: 1, 0: 2, 1: 1}
        with pytest.raises(RankDeficientError, match="dimension 4;"):
            steady_state(model)

    def test_full_model_thermal_law_at_cutoff_20(self):
        n_t = 0.5
        cfg = SystemConfig(g_a=0.0, g_b=0.0, gamma=0.2, kappa=1.0, n_thermal=n_t, cutoff=20)
        model = build_model(cfg)
        rho = steady_state(model)
        photons = np.real(np.diag(partial_trace(rho, model.layout, (CAVITY,))))
        target = (n_t / (1.0 + n_t)) ** np.arange(21) / (1.0 + n_t)
        assert np.abs(photons - target).max() <= 1e-6
        assert steady_state_residual(model, rho) <= 1e-8


def test_hermiticity_drift_error_is_exported():
    from noisycav import HermiticityDriftError as exported

    assert exported is HermiticityDriftError
