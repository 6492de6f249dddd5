import math
import re
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noisycav.dynamics
from noisycav.dynamics import (
    MAX_STEPS,
    HermiticityDriftError,
    IntegratorError,
    IntegratorSettings,
    PositivityLossError,
    RankDeficientError,
    SectorBlocks,
    TraceDriftError,
    Trajectory,
    _coherence_sectors,
    _evolved_entries,
    _superoperator_block,
    evolve,
    lindblad_rhs,
    make_rhs,
    steady_state,
    steady_state_residual,
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

from conftest import lab_model, random_density_matrix, random_trace_one_hermitian, stepwise_evolve, unvec, vec


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
    "lab_off_resonance": lambda: lab_model(SystemConfig(n_thermal=0.5, cutoff=3), 1.3, 0.9),
    "cavity": lambda: build_cavity_model(SystemConfig(n_thermal=0.7, cutoff=6)),
    "zero_rate_term": lambda: with_zero_rate_term(build_model(SystemConfig(n_thermal=0.5, cutoff=3))),
    "no_collapse_terms": lambda: without_collapse_terms(build_model(SystemConfig(cutoff=3))),
    # breaks the excitation-number symmetry: one sector of all d^2 entries
    "sigma_x_jump": lambda: with_atom_a_sigma_x(build_model(SystemConfig(n_thermal=0.5, cutoff=3))),
}


class TestIntegratorSettings:
    def test_defaults(self):
        s = IntegratorSettings()
        assert (s.dt, s.t_max, s.record_stride) == (0.002, 5.0, 10)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(dt=0.0), "dt"),
            (dict(t_max=-1.0), "t_max"),
            (dict(dt=0.5, t_max=0.1), "dt"),
            (dict(t_max=1e308), "dt overflows"),
            (dict(dt=1e-310, t_max=1.0), "dt overflows"),
            (dict(record_stride=0), "record_stride"),
            (dict(dt=math.nan), "dt must be finite"),
            (dict(t_max=math.inf), "t_max must be finite"),
            (dict(dt=1e300, t_max=1e300, record_stride=10**9), "dt overflows"),
            (dict(record_stride=math.inf), "record_stride must be finite"),
            (dict(dt=0.5, t_max=0.5 * (MAX_STEPS + 1)), "is more than MAX_STEPS"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            IntegratorSettings(**kwargs)

    def test_zero_t_max_allowed(self):
        assert IntegratorSettings(t_max=0.0).t_max == 0.0

    def test_step_cap_is_inclusive(self):
        # one step beyond the cap is a `test_validation` row
        assert IntegratorSettings(dt=0.5, t_max=0.5 * MAX_STEPS).t_max == 0.5 * MAX_STEPS

    @pytest.mark.parametrize("kwargs,expected", [
        (dict(t_max=0.0), [0.0]),
        # t_max off the stride grid: every stride, then t_max itself
        (dict(dt=0.01, t_max=0.25, record_stride=10), [0.0, 0.1, 0.2, 0.25]),
        # one stride overshoots t_max: the start and t_max
        (dict(dt=0.01, t_max=0.05, record_stride=10), [0.0, 0.05]),
        # t_max on the grid up to round-off: no extra point just below it
        (dict(dt=0.01, t_max=0.3, record_stride=10), [0.0, 0.1, 0.2, 0.3]),
    ])
    def test_record_grid(self, kwargs, expected):
        times = IntegratorSettings(**kwargs).times
        assert times == pytest.approx(expected, rel=0, abs=1e-15)


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
        # each sector alone as `SectorBlocks`, and all d^2 entries as the
        # `SectorBlocks` of `vectorize_superoperator`, against the equation as
        # written; a sector's entries of the result depend on its own entries only
        model = GENERATOR_CASES[case]()
        d = model.dim
        entries = np.arange(d * d)
        cases = [SectorBlocks(model.layout, rows, cols, _superoperator_block(model, rows, cols))
                 for rows, cols in _coherence_sectors(model)]
        cases.append(SectorBlocks(model.layout, entries % d, entries // d, vectorize_superoperator(model)))
        for generator in cases:
            rows, cols = generator.rows, generator.cols
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
        settings = IntegratorSettings(dt=0.01, t_max=0.25, record_stride=5)
        traj = evolve(build_model(SystemConfig()), ground_state(SystemConfig()), settings)
        assert list(traj.times) == settings.times
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.25)
        assert np.allclose(np.diff(traj.times), 0.05)

    def test_explicit_record_times(self):
        cfg = SystemConfig(n_thermal=0.2)
        times = [0.0, 0.13, 0.4]
        traj = evolve(build_model(cfg), ground_state(cfg), IntegratorSettings(), record_times=times)
        assert np.allclose(traj.times, times)
        assert len(traj.states) == 3

    @pytest.mark.parametrize("times,message", [
        ([0.0, math.nan], "record times must be finite"),
        ([0.0, math.inf], "record times must be finite"),
        ([-0.1, 0.2], "record times must be nonnegative"),
        ([0.0, 0.3, 0.2], "record times must be ascending"),
    ], ids=["nan", "inf", "negative", "descending"])
    def test_record_times_must_be_finite(self, times, message):
        cfg = SystemConfig(cutoff=1)
        with pytest.raises(ValueError, match=message):
            evolve(build_model(cfg), ground_state(cfg), IntegratorSettings(), record_times=times)

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
        assert all(state.shape == (4, 4) for state in traj.states)

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

    def test_drift_error_names_the_failing_step(self):
        # one record span of 500 steps just above the stable step size: the
        # step ending at t = 0.144 passes both drift gates (only its record
        # fails, on positivity) and a later one fails, so the error names
        # t = 0.15, not the span's start t = 0
        cfg = SystemConfig(n_thermal=3.0, kappa=5.0, cutoff=5)
        model, settings = build_model(cfg), IntegratorSettings(dt=0.006, t_max=3.0)
        with pytest.raises(PositivityLossError, match="at t=0.144 "):
            evolve(model, ground_state(cfg), settings, record_times=[0.0, 0.144])
        with pytest.raises(TraceDriftError, match=r"near t=0\.15; reduce dt$"):
            evolve(model, ground_state(cfg), settings, record_times=[0.0, 3.0])

    def test_nan_drift_fails_the_gates(self):
        # the thermal rate overflows to inf, so the first step is NaN, which
        # compares False against any tolerance
        cfg = SystemConfig(n_thermal=1e308, cutoff=1)
        with pytest.warns(RuntimeWarning, match="invalid value"):
            with pytest.raises(HermiticityDriftError, match=r"drift nan .* near t=0\.002$"):
                evolve(build_model(cfg), ground_state(cfg), IntegratorSettings(t_max=0.004))

    def test_step_cap_is_checked_before_stepping(self, monkeypatch):
        # a stepping run raises `Stepped` at once, so a missing cap fails the test instead of hanging
        class Stepped(Exception):
            pass

        def stepped(*args):
            raise Stepped

        monkeypatch.setattr(noisycav.dynamics, "_step_map", stepped)
        cfg = SystemConfig(cutoff=1)
        settings = IntegratorSettings(dt=0.5, t_max=1.0)
        for t, error in ((0.5 * MAX_STEPS, Stepped), (0.5 * (MAX_STEPS + 1), IntegratorError),
                         (1e300, IntegratorError)):
            with pytest.raises(error, match=None if error is Stepped else r"^record time .* too many steps"):
                evolve(build_model(cfg), ground_state(cfg), settings, record_times=[t])

    def test_rejects_invalid_initial_state(self):
        cfg = SystemConfig()
        bad = np.eye(cfg.layout.dim, dtype=complex)  # trace 24
        with pytest.raises(ValueError):
            evolve(build_model(cfg), bad, IntegratorSettings())
        other = SystemConfig(cutoff=cfg.cutoff - 1)  # a valid state of another dimension
        with pytest.raises(ValueError, match=r"initial state shape \(20, 20\) does not match model dimension 24"):
            evolve(build_model(cfg), ground_state(other), IntegratorSettings())

    def test_trajectory_length_validation(self):
        with pytest.raises(ValueError, match="times and states lengths disagree"):
            Trajectory(times=np.array([0.0, 1.0]), states=[np.eye(2, dtype=complex)])
        states = [np.eye(2, dtype=complex)] * 2
        with pytest.raises(ValueError, match="observable series length disagrees with times"):
            Trajectory(times=np.array([0.0, 1.0]), states=states, observables={"p": np.zeros(3)})


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

    def test_residual_gate_is_relative_to_the_scale(self):
        # scaling every coupling and rate by s rescales time and leaves the steady state as it is;
        # the residual's round-off grows with s (6.9e-08 at s = 1e7), the gate's bound with it
        cfg = SystemConfig(kappa=2.0, gamma=0.2, n_thermal=3.0)
        fast = SystemConfig(g_a=1e7, g_b=1e7, kappa=2e7, gamma=2e6, n_thermal=3.0)
        assert np.abs(steady_state(build_model(fast)) - steady_state(build_model(cfg))).max() <= 1e-9

    def test_residual_gate_names_its_bound(self, monkeypatch):
        solve = np.linalg.solve

        def perturbed(a, b):
            x = solve(a, b)
            x[-1] += 1e-6  # the |e,e,N> population, which decays
            return x

        monkeypatch.setattr(np.linalg, "solve", perturbed)
        message = ("steady-state residual 2.080e-05 exceeds 2.2e-08 (1.0e-08 times the largest coupling or rate); "
                   "system is near-degenerate")
        with pytest.raises(RankDeficientError, match=f"^{re.escape(message)}$"):
            steady_state(build_model(SystemConfig()))

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
    "lab": lambda c: lab_model(SystemConfig(n_thermal=0.5, cutoff=c), 1.3, 0.9),
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


# (config, lab-frame (omega, omega_f) or None, start, sigma_x jump on atom a) per case
EVOLVE_CASES = {
    "thermal_atoms": (dict(n_thermal=0.5, gamma=0.3), None, ground_state, False),
    "lab_off_resonance": (dict(n_thermal=0.5), (1.3, 0.9), superposition_start, False),
    "unequal_g": (dict(g_a=0.6, g_b=1.4, n_thermal=0.8), None, ground_state, False),
    "superposition": (dict(n_thermal=0.3), None, superposition_start, False),
    "sigma_x_jump": (dict(n_thermal=0.5), None, ground_state, True),
}

RECORD_TIMES = [0.0, 0.05, 0.13, 0.3]


def evolve_case(case, cutoff):
    params, lab, start, sigma_x = EVOLVE_CASES[case]
    cfg = SystemConfig(cutoff=cutoff, **params)
    model = build_model(cfg) if lab is None else lab_model(cfg, *lab)
    if sigma_x:
        model = with_atom_a_sigma_x(model)
    return model, start(cfg)


class TestSectorEvolve:
    """RK4 on the sectors the start touches against a full-matrix RK4 written here on `lindblad_rhs` alone."""

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
        # the one rule: the sectors that rho0 or its transpose touches. The
        # q = 0 sector alone, in its order, for a start without coherence
        # between different N; q in {0, +-1} for a q = +-1 coherence, even a
        # one-sided one; all d^2 entries for a model without the symmetry
        cfg = SystemConfig(n_thermal=0.5, cutoff=3)
        model = build_model(cfg)
        d = cfg.layout.dim
        orders = coherence_orders(model)
        ket = excited_ket(cfg)
        excited = np.outer(ket, ket.conj())

        def evolved(model, rho0):  # the entries as sorted row-major indices i * d + j
            rows, cols = _evolved_entries(model, rho0)
            assert len(set(zip(rows, cols))) == len(rows)
            return np.sort(rows * d + cols)

        rows, cols = _evolved_entries(model, excited)
        q0_rows, q0_cols = _coherence_sectors(model)[0]
        assert np.array_equal(rows, q0_rows) and np.array_equal(cols, q0_cols)
        assert np.array_equal(evolved(model, excited), np.flatnonzero(orders == 0))
        one_sided = ground_state(cfg)
        one_sided[2 * (cfg.cutoff + 1), 0] = 1e-14
        for rho0 in (superposition_start(cfg), one_sided):
            assert np.array_equal(evolved(model, rho0), np.flatnonzero(np.isin(orders, (-1, 0, 1))))
        rows, cols = _evolved_entries(with_atom_a_sigma_x(model), excited)
        assert np.array_equal(rows, np.arange(d * d) % d) and np.array_equal(cols, np.arange(d * d) // d)


def stage_rk4(block, rows, cols, x, record_times, dt):
    """Classical RK4 in stage form, four `block @ x` stages a step, with `evolve`'s schedule.

    The state is re-Hermitized at each record, as `evolve` does.

    Returns the state vector on the entries rho[rows, cols] at each record time.
    """
    index = {(i, j): k for k, (i, j) in enumerate(zip(rows, cols))}
    mirror = np.array([index[j, i] for i, j in zip(rows, cols)])
    out = []
    t_prev = 0.0
    for t in record_times:
        span = t - t_prev
        if span > 1e-12 * max(1.0, t):
            n_steps = max(1, math.ceil(span / dt - 1e-9))
            h = span / n_steps
            for _ in range(n_steps):
                k1 = block @ x
                k2 = block @ (x + 0.5 * h * k1)
                k3 = block @ (x + 0.5 * h * k2)
                k4 = block @ (x + h * k3)
                x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            x = 0.5 * (x + x[mirror].conj())
            t_prev = t
        out.append(x)
    return out


class TestStepMap:
    """Each step as one matrix, built once per step size, against RK4 in stage form."""

    @pytest.mark.parametrize("params,start,times", [
        (dict(n_thermal=1.0, kappa=2.0), ground_state, [0.0, 1.0 / (2.0 * math.sqrt(2.0))]),  # a fig3 cell
        (dict(n_thermal=1.8), ground_state, list(np.linspace(0.0, 5.0, 6))),  # a fig2 trajectory
        (dict(n_thermal=0.3), superposition_start, RECORD_TIMES + [1.0]),  # q = 0 and +-1
    ], ids=["fig3_cell", "fig2_trajectory", "superposition"])
    def test_matches_stage_form(self, params, start, times):
        cfg = SystemConfig(cutoff=5, **params)
        model, rho0 = build_model(cfg), start(cfg)
        rows, cols = _evolved_entries(model, rho0)
        block = _superoperator_block(model, rows, cols)
        settings = IntegratorSettings()
        traj = evolve(model, rho0, settings, record_times=times)
        reference = stage_rk4(block, rows, cols, rho0[rows, cols].astype(complex), times, settings.dt)
        for state, x in zip(traj.states, reference):
            expected = np.zeros_like(state)
            expected[rows, cols] = x
            assert np.abs(state - expected).max() <= 1e-13
        assert np.abs(traj.states[-1] - rho0).max() > 1e-3  # the state moved

    @pytest.mark.parametrize("times,calls", [
        (None, 30),  # the default grid: 250 spans of ten steps, in 10 distinct step sizes
        ([1.0 / (2.0 * math.sqrt(2.0))], 3),  # a fig3 cell: one span
        # spans 0.125, 0.125, 0, 0.0625 (exact in binary): two step sizes, and a repeated time takes no step
        ([0.0, 0.125, 0.25, 0.25, 0.3125], 6),
    ])
    def test_three_rhs_calls_per_step_size(self, times, calls, monkeypatch):
        count = 0

        def counting_make_rhs(generator):
            rhs = make_rhs(generator)

            def counted(x):
                nonlocal count
                count += 1
                return rhs(x)

            return counted

        monkeypatch.setattr(noisycav.dynamics, "make_rhs", counting_make_rhs)
        cfg = SystemConfig(n_thermal=0.5, cutoff=2)
        evolve(build_model(cfg), ground_state(cfg), IntegratorSettings(), record_times=times)
        assert count == calls


def gate_outcome(run):
    """(error class, the time its message names) of an integrator failure in `run()`, or (None, None)."""
    try:
        run()
    except IntegratorError as err:
        return type(err), re.search(r"(near|at) t=[^ ;]+", str(err)).group()
    return None, None


class TestChunkedGates:
    """`evolve` runs its drift gates once per chunk of steps: against `stepwise_evolve`, which runs them every step."""

    @staticmethod
    def both(n_thermal, kappa, dt, t_max, record_times=None):
        """The outcomes of `evolve`, with every warning an error, and of `stepwise_evolve` on one trajectory."""
        cfg = SystemConfig(n_thermal=n_thermal, kappa=kappa, cutoff=5)
        model, rho0, settings = build_model(cfg), ground_state(cfg), IntegratorSettings(dt=dt, t_max=t_max)
        times = settings.times if record_times is None else record_times
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # so an overflow in a step past the failing one fails the test
            chunked = gate_outcome(lambda: evolve(model, rho0, settings, record_times=times))
        return chunked, gate_outcome(lambda: stepwise_evolve(model, rho0, dt, times))

    @pytest.mark.parametrize("n_thermal,kappa,dt", [
        *product((0.5, 1.0, 2.0, 3.0), (1.0, 2.0, 4.0), (0.3, 0.4, 0.5, 0.7, 1.0)),  # steps just too large
        *product((3.0, 1e3, 1e6), (5.0, 1e3, 1e6), (0.01, 0.5, 5.0)),  # hostile growth: rates up to 1e12
    ])
    def test_unstable_run_fails_as_stepwise_without_overflow(self, n_thermal, kappa, dt):
        chunked, stepwise = self.both(n_thermal, kappa, dt, 5.0)
        assert chunked == stepwise
        assert chunked[0] is TraceDriftError

    @pytest.mark.parametrize("kappa,dt,record_times,near", [
        (4.0, 1.0, [0.0, 3.0], "near t=1"),  # the first step, a chunk of one step
        (5.0, 0.006, [0.0, 3.0], "near t=0.15"),  # step 25, inside the chunk of steps 16-31
        (5.0, 0.0057, [0.0, 3.0], "near t=0.614801"),  # step 108, in the third chunk at the cap (steps 96-127)
        (5.0, 0.006, [0.0, 0.15], "near t=0.15"),  # step 25, the last of the span's 25 steps
    ], ids=["first_step", "later_chunk", "capped_chunk", "last_step_of_span"])
    def test_failure_names_the_stepwise_step(self, kappa, dt, record_times, near):
        chunked, stepwise = self.both(3.0, kappa, dt, record_times[-1], record_times)
        assert chunked == stepwise == (TraceDriftError, near)

    def test_stable_run_records_the_stepwise_states(self):
        cfg = SystemConfig(n_thermal=1.8, cutoff=5)
        model, rho0, times = build_model(cfg), ground_state(cfg), list(np.linspace(0.0, 5.0, 6))
        traj = evolve(model, rho0, IntegratorSettings(), record_times=times)
        for state, expected in zip(traj.states, stepwise_evolve(model, rho0, 0.002, times)):
            assert np.abs(state - expected).max() <= 1e-13

    @pytest.mark.parametrize("start", [ground_state, superposition_start], ids=["q0", "q0_and_pm1"])
    def test_recorded_states_are_exactly_hermitian(self, start):
        cfg = SystemConfig(n_thermal=1.8, cutoff=4)
        traj = evolve(build_model(cfg), start(cfg), IntegratorSettings(), record_times=[0.0, 0.3, 0.3, 1.7])
        for state in traj.states:
            assert np.array_equal(state, state.conj().T)


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
