import math
import re
import warnings
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import noisycav.dynamics
from noisycav.dynamics import (
    MAX_STEPS,
    IntegratorError,
    IntegratorSettings,
    PositivityLossError,
    RankDeficientError,
    SectorBlocks,
    TraceDriftError,
    Trajectory,
    _components,
    _evolved_entries,
    _Liouvillian,
    _require_real_frame,
    _step_map,
    _triplets,
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
    _channels,
    build_cavity_model,
    build_model,
    ground_state,
    standard_observables,
)
from noisycav.qops import (
    SpaceLayout,
    annihilation,
    basis_state,
    density_matrix_defects,
    embed,
    excited_projector,
    expectation,
    number_operator,
    partial_trace,
    sigma_minus,
)
import noisycav.sweep
from noisycav.sweep import SweepAxis, SweepSpec, _RateComponents, run_sweep

from conftest import (
    lab_model,
    lindblad_block,
    random_density_matrix,
    random_trace_one_hermitian,
    stepwise_evolve,
    unvec,
    vec,
)


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


def dense_coordinate_map(rows, cols, antisymmetric=True):
    """U with x = U c for the real coordinates c of the entries x = rho[rows, cols], written as a dense matrix.

    c is s, one coordinate per pair i <= j, then (if `antisymmetric`) a, one per
    pair i < j, each pair in the order of its entry rho[i, j] with i <= j. The
    entry rho[i, j] reads s + i a for i < j, s - i a for i > j and s on the diagonal.
    """
    index = {(i, j): k for k, (i, j) in enumerate(zip(rows, cols))}
    upper = [(i, j) for i, j in zip(rows, cols) if i <= j]
    pairs = [(i, j, 1.0) for i, j in upper] + [(i, j, 1.0j) for i, j in upper if i < j and antisymmetric]
    u = np.zeros((len(rows), len(pairs)), dtype=complex)
    for p, (i, j, weight) in enumerate(pairs):
        u[index[i, j], p], u[index[j, i], p] = weight, np.conj(weight)
    return u


def dense_real_generator(block, u):
    """U^+ B U for the generator B on the entries x = U c, the real generator of the coordinates c.

    U^H U is diagonal, 1 for the s of a diagonal entry and 2 otherwise; U^+ B U
    is real for a Liouvillian. Its imaginary part is checked to vanish and its
    real part returned.
    """
    gram = u.conj().T @ u
    assert np.array_equal(gram, np.diag(np.diag(gram).real))
    generator = (u.conj().T @ block @ u) / np.diag(gram)[:, None]
    assert np.abs(generator.imag).max() <= 1e-15 * np.abs(block).max()
    return generator.real


def dense_coordinates(u, x):
    """The coordinates c of the Hermitian entries x = U c."""
    c = (u.conj().T @ x) / np.diag(u.conj().T @ u)
    assert np.abs(c.imag).max() <= 1e-15 * max(1.0, np.abs(x).max())
    return c.real


def excitation_numbers(layout):
    """Total excitation of every composite basis index: the sum of its factor indices (|e> counts 1, |n> counts n)."""
    return np.indices(layout.factor_dims).reshape(layout.nfactors, -1).sum(axis=0)


def coherence_orders(model):
    """Order N_i - N_j of every entry rho[i, j], as a d x d array."""
    n = excitation_numbers(model.layout)
    return n[:, None] - n[None, :]


def q_sectors(model):
    """The entries (rows, cols) of each coherence order q = N_i - N_j, in vec order.

    These are the sectors of a model whose Hamiltonian conserves N and whose
    every jump shifts it by one fixed amount, written here from the excitation
    numbers alone.
    """
    d = model.dim
    entries = np.arange(d * d)
    rows, cols = entries % d, entries // d
    orders = coherence_orders(model)[rows, cols]
    return {q: (rows[orders == q], cols[orders == q]) for q in np.unique(orders).tolist()}


def sector_labels(model):
    """Each vec entry's sector as `steady_state` and `evolve` find it: the components of the triplets' graph."""
    return _components(model.dim ** 2, *_triplets(model)[:2])


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
    # breaks the excitation-number symmetry: its sectors are the even and the odd coherence orders
    "sigma_x_jump": lambda: with_atom_a_sigma_x(build_model(SystemConfig(n_thermal=0.5, cutoff=3))),
    "extra_jumps": lambda: with_extra_jumps(build_model(SystemConfig(n_thermal=0.5, cutoff=3))),
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

    # the lab model's Liouvillian is not real, so no `SectorBlocks`: `TestRealFrame` checks that it is refused
    @pytest.mark.parametrize("case", sorted(set(GENERATOR_CASES) - {"lab_off_resonance"}))
    def test_compiled_evaluator_matches(self, case, rng):
        # each sector alone as `SectorBlocks`, and all d^2 entries as the
        # `SectorBlocks` of `vectorize_superoperator` put in the coordinates by
        # the dense map U, against the equation as written in those
        # coordinates; a sector's entries of the result depend on its own entries only
        model = GENERATOR_CASES[case]()
        d = model.dim
        entries = np.arange(d * d)
        labels = sector_labels(model)
        # each sector with its transpose, so that the entries are closed under transpose
        cases = []
        for root in np.unique(labels):
            mirror = labels[root // d + d * (root % d)]
            if mirror >= root:
                both = np.flatnonzero(np.isin(labels, (root, mirror)))
                cases.append(SectorBlocks.of(model, both % d, both // d))
        assert len(cases) > 1
        rows, cols = entries % d, entries // d
        u = dense_coordinate_map(rows, cols)
        cases.append(SectorBlocks(model.layout, rows, cols, dense_real_generator(vectorize_superoperator(model), u)))
        for generator in cases:
            rows, cols = generator.rows, generator.cols
            u = dense_coordinate_map(rows, cols)
            fast = make_rhs(generator)
            for _ in range(3):
                rho = random_trace_one_hermitian(rng, d)
                x, expected = rho[rows, cols], lindblad_rhs(model, rho)[rows, cols]
                assert np.abs(fast(dense_coordinates(u, x)) - dense_coordinates(u, expected)).max() < 1e-13


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
        # a step just above the stable step size: the record at t = 0.144
        # passes the drift gate and fails on positivity, before the record
        # maps; over one record span of 500 steps the error names the record
        # that ends it, t = 3, not the span's start t = 0
        cfg = SystemConfig(n_thermal=3.0, kappa=5.0, cutoff=5)
        model, settings = build_model(cfg), IntegratorSettings(dt=0.006, t_max=3.0)
        positivity = r"^smallest eigenvalue -5\.379e-01 at t=0\.144 violates the positivity gate$"
        with pytest.raises(PositivityLossError, match=positivity):
            evolve(model, ground_state(cfg), settings, record_times=[0.0, 0.144],
                   observables=standard_observables(cfg), reduce_to=(ATOM_A, ATOM_B))
        with pytest.raises(TraceDriftError, match=r"at t=3; reduce dt$"):
            evolve(model, ground_state(cfg), settings, record_times=[0.0, 3.0])

    def test_nan_drift_fails_the_gates(self):
        # the thermal rate overflows to inf, so the first record after t=0 is NaN,
        # which compares False against any tolerance
        cfg = SystemConfig(n_thermal=1e308, cutoff=1)
        with pytest.warns(RuntimeWarning, match="invalid value"):
            with pytest.raises(TraceDriftError, match=r"^trace drift nan .* at t=0\.004; reduce dt$"):
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

    @pytest.mark.parametrize("op", [np.eye(40), np.ones(16), [[1.0] * 16] * 16], ids=["larger", "1d", "list"])
    def test_observables_must_be_square_arrays_of_the_model(self, op):
        # a larger operator would be read at the wrong entries, recording tr = 1 at every time
        cfg = SystemConfig(cutoff=3)
        shape = re.escape(str(np.shape(op)))
        with pytest.raises(ValueError, match=rf"^observable 'big' of shape {shape} does not match model dimension 16$"):
            evolve(build_model(cfg), ground_state(cfg), IntegratorSettings(t_max=0.1), observables={"big": op})

    @pytest.mark.parametrize("keep", [(0.7,), "01", (True,)], ids=["float", "string", "bool"])
    def test_reduce_to_takes_integer_slots(self, keep):
        cfg = SystemConfig(cutoff=1)
        model = build_model(cfg)
        with pytest.raises(ValueError, match=r"^slot .* is not an integer$"):
            evolve(model, ground_state(cfg), IntegratorSettings(t_max=0.1), reduce_to=keep)
        # a cached map for the slots that truncating or parsing them would name must not let them through
        generator = SectorBlocks.of(model, *_evolved_entries(model, ground_state(cfg)))
        for cached in ((ATOM_A,), (ATOM_B,), (ATOM_A, ATOM_B)):
            generator.reduction(cached)
        with pytest.raises(ValueError, match=r"^slot .* is not an integer$"):
            generator.reduction(keep)

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


def with_extra_jumps(model):
    """The model plus collapse terms the package never builds, each real, so the Liouvillian stays real.

    Dephasing of atom a, pumping of atom b and two-photon loss; each changes N
    by a fixed amount, so the sectors are still the orders q.
    """
    sigma_z = np.diag([1.0, -1.0]).astype(complex)
    a = annihilation(model.layout.factor_dims[CAVITY] - 1)
    extra = (
        (0.3, embed(sigma_z, ATOM_A, model.layout)),
        (0.2, embed(sigma_minus().T, ATOM_B, model.layout)),
        (0.25, embed(a @ a, CAVITY, model.layout)),
    )
    return LindbladModel(model.hamiltonian, model.collapse_terms + extra, model.layout)


SECTOR_CASES = {
    "interaction": lambda c: build_model(SystemConfig(n_thermal=0.5, cutoff=c)),
    "cavity": lambda c: build_cavity_model(SystemConfig(n_thermal=0.7, cutoff=c)),
    "unequal_g": lambda c: build_model(SystemConfig(g_a=0.6, g_b=1.4, n_thermal=0.8, cutoff=c)),
    "gamma0_unequal_g": lambda c: build_model(
        SystemConfig(g_a=0.6, g_b=1.4, gamma=0.0, n_thermal=0.5, cutoff=c)
    ),
    # equal couplings and gamma = 0 leave the dark atomic state undamped: both
    # solvers must report the same two-dimensional stationary manifold
    "gamma0_dark_mode": lambda c: build_model(SystemConfig(gamma=0.0, n_thermal=0.5, cutoff=c)),
    "extra_jumps": lambda c: with_extra_jumps(build_model(SystemConfig(n_thermal=0.5, cutoff=c))),
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


# (config, start, collapse terms added to the model or None) per case
EVOLVE_CASES = {
    "thermal_atoms": (dict(n_thermal=0.5, gamma=0.3), ground_state, None),
    "unequal_g": (dict(g_a=0.6, g_b=1.4, n_thermal=0.8), ground_state, None),
    "superposition": (dict(n_thermal=0.3), superposition_start, None),
    "sigma_x_jump": (dict(n_thermal=0.5), ground_state, with_atom_a_sigma_x),
    "extra_jumps": (dict(n_thermal=0.5), superposition_start, with_extra_jumps),
}

RECORD_TIMES = [0.0, 0.05, 0.13, 0.3]


def evolve_case(case, cutoff):
    params, start, extra = EVOLVE_CASES[case]
    cfg = SystemConfig(cutoff=cutoff, **params)
    model = build_model(cfg)
    if extra is not None:
        model = extra(model)
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

    @pytest.mark.parametrize("case", ["thermal_atoms", "superposition", "extra_jumps"])
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
        rows, cols = q_sectors(model)[0]
        blocks = SectorBlocks.of(model, rows, cols, rho0)
        settings = IntegratorSettings(dt=0.01, t_max=1.0)
        expected = evolve(model, rho0, settings, record_times=RECORD_TIMES)
        traj = evolve(blocks, rho0, settings, record_times=RECORD_TIMES)
        for state, want in zip(traj.states, expected.states):
            assert np.array_equal(state, want)

    def test_prebuilt_blocks_hold_only_their_sectors(self):
        cfg = SystemConfig(n_thermal=0.5, cutoff=3)
        model = build_model(cfg)
        sectors = q_sectors(model)
        rows, cols = sectors[0]
        blocks = SectorBlocks.of(model, rows, cols)
        with pytest.raises(ValueError, match="outside the sectors"):
            evolve(blocks, superposition_start(cfg), IntegratorSettings(dt=0.01, t_max=0.1))
        with pytest.raises(ValueError, match="block shape"):
            SectorBlocks(model.layout, rows, cols, np.zeros((1, 1)))
        with pytest.raises(ValueError, match="block shape"):
            blocks.with_block(np.zeros((1, 1)))
        # the q = 1 sector without its transpose, the q = -1 sector
        with pytest.raises(ValueError, match=r"^the entries are not closed under transpose"):
            SectorBlocks.of(model, *sectors[1])
        rows, cols = map(np.concatenate, zip(sectors[0], sectors[1]))
        with pytest.raises(ValueError, match=r"^the entries are not closed under transpose"):
            SectorBlocks(model.layout, rows, cols, np.zeros((len(rows), len(rows))))

    def test_population_start_evolves_q0_and_coherent_start_everything(self):
        # the one rule: the sectors that rho0 or its transpose touches. The
        # q = 0 sector alone, in its order, for a start without coherence
        # between different N; q in {0, +-1} for a q = +-1 coherence, even a
        # one-sided one; the even orders q for a sigma_x jump, which shifts N by +-1
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
        q0_rows, q0_cols = q_sectors(model)[0]
        assert np.array_equal(rows, q0_rows) and np.array_equal(cols, q0_cols)
        assert np.array_equal(evolved(model, excited), np.flatnonzero(orders == 0))
        one_sided = ground_state(cfg)
        one_sided[2 * (cfg.cutoff + 1), 0] = 1e-14
        for rho0 in (superposition_start(cfg), one_sided):
            assert np.array_equal(evolved(model, rho0), np.flatnonzero(np.isin(orders, (-1, 0, 1))))
        assert np.array_equal(evolved(with_atom_a_sigma_x(model), excited), np.flatnonzero(orders % 2 == 0))


def phased_start(cfg):
    """(|g,g,1> + i|e,g,0>)/sqrt(2): a q = 0 state whose coherence is imaginary, so it has an a part."""
    n = cfg.cutoff + 1
    ket = (basis_state(cfg.layout.dim, 1) + 1j * basis_state(cfg.layout.dim, 2 * n)) / np.sqrt(2.0)
    return np.outer(ket, ket.conj())


class TestRealCoordinates:
    """The generator in the coordinates (s, a) against U^+ B U, with U a dense matrix written in the tests."""

    @pytest.mark.parametrize("start,kind,entries,coordinates", [
        (ground_state, "interaction", 52, 34),  # the q = 0 entries, s alone
        (superposition_start, "interaction", 52 + 2 * 46, 34 + 46),  # q in {0, +-1}, s alone
        (phased_start, "interaction", 52, 52),  # q = 0, s and a
        # no excitation-number symmetry: the even orders q, half the d^2 entries, 16 of them diagonal
        (ground_state, "sigma_x", 16 ** 2 // 2, 16 + (16 ** 2 // 2 - 16) // 2),
        (ground_state, "extra_jumps", 52, 34),  # jumps the package never builds: q = 0, s alone
    ], ids=["q0", "q0_and_pm1", "q0_s_and_a", "even_orders", "q0_extra_jumps"])
    def test_generator_is_the_dense_transform(self, start, kind, entries, coordinates):
        cfg = SystemConfig(g_a=0.8, g_b=1.3, n_thermal=0.5, cutoff=3)
        model = {"interaction": build_model, "sigma_x": lambda c: with_atom_a_sigma_x(build_model(c)),
                 "extra_jumps": lambda c: with_extra_jumps(build_model(c))}[kind](cfg)
        rows, cols = _evolved_entries(model, start(cfg))
        generator = SectorBlocks.of(model, rows, cols, start(cfg))
        assert (len(rows), len(generator.block)) == (entries, coordinates)
        u = dense_coordinate_map(rows, cols, antisymmetric=coordinates == entries)
        expected = dense_real_generator(lindblad_block(model, rows, cols), u)
        assert np.abs(generator.block - expected).max() <= 1e-15 * np.abs(expected).max()


def with_loss_plus_emission_jump(model, cfg, phase=1.0, rate=0.4):
    """The model plus the collapse term a + phase sigma_minus on atom a.

    It lowers N by one, so the sectors are still the orders q. With a real phase the jump is
    real and the Liouvillian stays real; with phase i it is complex, and the
    Liouvillian is not real.
    """
    jump = embed(annihilation(cfg.cutoff), CAVITY, model.layout) + phase * embed(sigma_minus(), ATOM_A, model.layout)
    return LindbladModel(model.hamiltonian, model.collapse_terms + ((rate, jump),), model.layout)


def with_textbook_exchange(model, cfg):
    """The model with the textbook exchange sum_i g_i (sigma_-^i a^dag + h.c.), a real Hamiltonian."""
    adag = embed(annihilation(cfg.cutoff), CAVITY, model.layout).T
    lower = [embed(sigma_minus(), atom, model.layout) for atom in (ATOM_A, ATOM_B)]
    x = (cfg.g_a * lower[0] + cfg.g_b * lower[1]) @ adag
    return LindbladModel(x + x.conj().T, model.collapse_terms, model.layout)


# models whose sectors are still the orders q but whose Liouvillian is not real, the operator that breaks it and the
# message's advice
UNREAL_CASES = {
    "lab": (lambda cfg: lab_model(cfg, 1.3, 0.9), "the Hamiltonian", ""),
    "textbook_exchange": (lambda cfg: with_textbook_exchange(build_model(cfg), cfg), "the Hamiltonian",
                          r".*convention of model\.build_interaction_hamiltonian"),
    "complex_jump": (lambda cfg: with_loss_plus_emission_jump(build_model(cfg), cfg, phase=1j),
                     "collapse operator 4", ""),
}

# couplings and rates over the CLI's whole domain: finite, the rates nonnegative, up to 1e300
COUPLINGS = st.floats(-1e300, 1e300, allow_nan=False)
RATES = st.floats(0.0, 1e300, allow_nan=False)


class TestRealFrame:
    """The Liouvillian is real as written for every model the package builds; other models are refused."""

    @given(st.floats(0.1, 2.0), st.floats(0.1, 2.0), st.floats(0.1, 3.0), st.integers(1, 6), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_frame_is_detected_and_exact(self, g_a, g_b, kappa, cutoff, cavity_only):
        # B U == U G exactly, for U the dense map of the coordinates: every product with U is a
        # product with 1 or +-i, and the two columns of a pair are added in the same order
        assume(g_a != g_b)
        cfg = SystemConfig(g_a=g_a, g_b=g_b, kappa=kappa, gamma=0.0, n_thermal=0.0, cutoff=cutoff)
        model = build_cavity_model(cfg) if cavity_only else build_model(cfg)
        _require_real_frame(model)
        rows, cols = q_sectors(model)[0]
        starts = [None] if cavity_only else [None, ground_state(cfg)]
        for start in starts:
            generator = SectorBlocks.of(model, rows, cols, start)
            u = dense_coordinate_map(rows, cols, antisymmetric=start is None)
            block = _Liouvillian.of(model).block(rows, cols)
            assert np.array_equal(block @ u, u @ generator.block)
            if start is None:  # s and a are separate sectors
                n_s = np.count_nonzero(rows <= cols)
                assert not generator.block[:n_s, n_s:].any() and not generator.block[n_s:, :n_s].any()

    @given(COUPLINGS, COUPLINGS, st.booleans(), RATES, RATES, RATES, st.integers(1, 8))
    @example(0.0, 0.0, True, 2.0, 0.2, 0.5, 5)  # g = 0
    @example(1.0, 1.0, True, 2.0, 0.2, 3.0, 5)  # a preset cell: g_a == g_b, gamma > 0, n_thermal > 0
    @example(1e300, -1e300, False, 1e300, 1e300, 1e300, 8)
    @settings(max_examples=100, deadline=None)
    def test_every_model_the_cli_builds_has_the_frame(self, g_a, g_b, equal, kappa, gamma, n_thermal, cutoff):
        # the precondition holds on every valid config, so no CLI input reaches its ValueError: the
        # atom and cavity models, and each part a sweep builds its generator from
        cfg = SystemConfig(g_a=g_a, g_b=g_a if equal else g_b, kappa=kappa, gamma=gamma, n_thermal=n_thermal,
                           cutoff=cutoff)
        _require_real_frame(build_model(cfg))
        _require_real_frame(build_cavity_model(cfg))
        checked = []

        def recording_check(model):
            _require_real_frame(model)
            checked.append(model)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(noisycav.dynamics, "_require_real_frame", recording_check)
            _RateComponents.build(cfg, ground_state(cfg))
        assert len(checked) == 1 + len(_channels(cfg))  # the Hamiltonian, then each channel at unit rate

    @pytest.mark.parametrize("case", sorted(UNREAL_CASES))
    def test_models_without_the_frame_are_refused(self, case):
        cfg = SystemConfig(g_a=0.8, g_b=1.3, n_thermal=0.5, cutoff=3)
        builder, culprit, advice = UNREAL_CASES[case]
        model = builder(cfg)
        assert len(np.unique(sector_labels(model))) > 1  # the sectors split: it is the real Liouvillian that fails
        message = rf"^{culprit} is .*, so the Liouvillian is not real{advice}"
        with pytest.raises(ValueError, match=message):
            _require_real_frame(model)
        with pytest.raises(ValueError, match=message):
            evolve(model, ground_state(cfg), IntegratorSettings(dt=0.01, t_max=0.1))
        with pytest.raises(ValueError, match=message):
            steady_state(model)

    @pytest.mark.parametrize("case", ["unequal_g", "phased_start", "extra_jumps", "loss_plus_emission"])
    def test_evolve_matches_the_stepwise_oracle(self, case):
        cfg = SystemConfig(g_a=0.8, g_b=1.3, n_thermal=1.2, kappa=1.5, cutoff=4)
        model = build_model(cfg)
        if case == "extra_jumps":
            model = with_extra_jumps(model)
        if case == "loss_plus_emission":  # a real jump, accepted though it mixes the cavity and an atom
            model = with_loss_plus_emission_jump(model, cfg)
        rho0 = ground_state(cfg) if case == "unequal_g" else phased_start(cfg)
        times = [0.0, 0.25, 0.25, 1.3]
        traj = evolve(model, rho0, IntegratorSettings(), record_times=times)
        for state, expected in zip(traj.states, stepwise_evolve(model, rho0, 0.002, times)):
            assert np.abs(state - expected).max() <= 1e-13
        assert np.abs(traj.states[-1] - rho0).max() > 1e-3  # the state moved

    def test_s_blocks_refuse_a_start_with_an_a_part(self):
        cfg = SystemConfig(n_thermal=0.5, cutoff=3)
        model = build_model(cfg)
        generator = SectorBlocks.of(model, *q_sectors(model)[0], ground_state(cfg))
        assert not generator.antisymmetric
        with pytest.raises(ValueError, match="outside the sectors evolved"):
            evolve(generator, phased_start(cfg), IntegratorSettings(dt=0.01, t_max=0.1))

    @pytest.mark.parametrize("case", ["interaction", "cavity", "extra_jumps"])
    def test_pooled_spectrum_is_the_dense_spectrum(self, case, monkeypatch):
        cfg = SystemConfig(g_a=0.8, g_b=1.3, n_thermal=0.5, cutoff=3)
        model = {"interaction": build_model, "cavity": build_cavity_model,
                 "extra_jumps": lambda c: with_extra_jumps(build_model(c))}[case](cfg)
        spectra, svd = [], np.linalg.svd

        def recording_svd(a, **kwargs):
            spectra.append(svd(a, **kwargs))
            return spectra[-1]

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        steady_state(model)
        monkeypatch.undo()
        pooled = np.sort(np.concatenate(spectra + spectra[2:]))  # s, a, then each q > 0 sector twice
        full = np.sort(np.linalg.svd(vectorize_superoperator(model), compute_uv=False))
        assert np.abs(pooled - full).max() <= 1e-13 * full.max()

    def test_recorded_reduced_states_are_exactly_real(self):
        # from |g,g,0> no entry has an imaginary part: the Liouvillian is real, and the start has no a
        cfg = SystemConfig(g_a=0.8, g_b=1.3, n_thermal=1.8, cutoff=4)
        traj = evolve(build_model(cfg), ground_state(cfg), IntegratorSettings(t_max=2.0),
                      reduce_to=(ATOM_A, ATOM_B))
        assert all(np.all(state.imag == 0.0) for state in traj.states)
        assert np.abs(traj.states[-1][1, 2]) > 1e-3  # a coherence between |ge> and |eg>


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


def with_quadrature_noise(model, rate=0.3):
    """The model plus the jump i(a^dag - a), the lab quadrature a + a^dag in this phase convention.

    It shifts N by +-1, so it keeps the parity of the coherence order q and
    nothing finer: two sectors where the thermal model has one per q.
    """
    a = embed(annihilation(model.layout.factor_dims[CAVITY] - 1), CAVITY, model.layout)
    return LindbladModel(model.hamiltonian, model.collapse_terms + ((rate, 1j * (a.conj().T - a)),), model.layout)


def dense_steady_state_of(model):
    """The unique null vector of `vectorize_superoperator`, scaled to unit trace."""
    null = dense_null_space(vectorize_superoperator(model))
    assert null.shape[1] == 1
    rho = unvec(null[:, 0], model.dim)
    return rho / np.trace(rho)


def dense_evolution(model, rho0, record_times, dt):
    """RK4 in stage form on all d^2 entries with the dense `vectorize_superoperator`, with `evolve`'s schedule."""
    d = model.dim
    entries = np.arange(d * d)
    x = vec(np.asarray(rho0, dtype=complex))
    xs = stage_rk4(vectorize_superoperator(model), entries % d, entries // d, x, record_times, dt)
    return [unvec(x, d) for x in xs]


class TestSectors:
    """The sectors are the components of the triplets' graph, and their blocks are the equation's."""

    def test_excitation_numbers_match_number_operators(self):
        # |g> = 0, |e> = 1 and Fock n = n, summed over the legs of the composite index
        layout = SpaceLayout((2, 2, 4))
        total = (
            embed(excited_projector(), 0, layout)
            + embed(excited_projector(), 1, layout)
            + embed(number_operator(3), 2, layout)
        )
        assert np.array_equal(excitation_numbers(layout), np.diag(total).real.astype(int))
        assert list(excitation_numbers(SpaceLayout((3,)))) == [0, 1, 2]

    def test_components_of_a_small_graph(self):
        # 0-3-1 is one component, 4-5 another, and 2 has only a loop
        assert _components(6, np.array([3, 1, 2, 5]), np.array([0, 3, 2, 4])).tolist() == [0, 0, 2, 0, 4, 4]

    @given(COUPLINGS.filter(bool), COUPLINGS.filter(bool), *[st.one_of(st.just(0.0), st.floats(0.0, 10.0))] * 3,
           st.integers(1, 6))
    @example(1.0, 1.0, 2.0, 0.2, 0.0, 5)  # fig3's first n_thermal
    @example(0.8, 1.3, 0.0, 0.2, 1.0, 3)  # kappa = 0
    @example(0.8, 1.3, 2.0, 0.0, 1.0, 3)  # gamma = 0
    @example(1.0, 1.0, 0.0, 0.0, 0.0, 3)  # no dissipation at all
    @settings(max_examples=40, deadline=None)
    def test_components_are_the_orders_whatever_the_rates(self, g_a, g_b, kappa, gamma, n_thermal, cutoff):
        # H and every row of `_channels` at its rate, a zero rate included: the pattern does not depend on the
        # rates, so no zero rate splits a sector, and a sweep from |g,g,0> evolves the whole q = 0 sector
        cfg = SystemConfig(g_a=g_a, g_b=g_b, kappa=kappa, gamma=gamma, n_thermal=n_thermal, cutoff=cutoff)
        layout = cfg.layout
        channels = tuple((rate, embed(op, slot, layout)) for slot, rate, op in _channels(cfg))
        model = LindbladModel(build_model(cfg).hamiltonian, channels, layout)
        d, labels = model.dim, sector_labels(model)
        sectors = q_sectors(model)
        assert len(np.unique(labels)) == len(sectors)
        for rows, cols in sectors.values():
            entries = rows + d * cols
            assert np.all(labels[entries] == entries.min())
        generator = _RateComponents.build(cfg, ground_state(cfg)).generator
        assert np.array_equal(generator.rows, sectors[0][0]) and np.array_equal(generator.cols, sectors[0][1])

    @pytest.mark.parametrize("case", sorted(set(GENERATOR_CASES) - {"lab_off_resonance"}))
    def test_blocks_are_the_equation_column_by_column(self, case):
        model = GENERATOR_CASES[case]()
        d, labels = model.dim, sector_labels(model)
        liouvillian = _Liouvillian.of(model)
        for root in np.unique(labels):
            entries = np.flatnonzero(labels == root)
            rows, cols = entries % d, entries // d
            block, expected = liouvillian.block(rows, cols), lindblad_block(model, rows, cols)
            assert np.abs(block - expected).max() <= 1e-14 * max(1.0, np.abs(expected).max())
            out = np.arange(0, len(entries), 2)
            assert np.array_equal(liouvillian.block(rows, cols, out), block[out])

    def test_a_zero_coupling_splits_the_orders_and_solves_as_the_dense_matrix(self):
        cfg = SystemConfig(g_a=0.0, g_b=1.2, n_thermal=0.5, cutoff=5)
        model = build_model(cfg)
        assert (len(np.unique(sector_labels(model))), len(q_sectors(model))) == (39, 15)
        assert np.abs(steady_state(model) - dense_steady_state_of(model)).max() <= 1e-12
        small = replace(cfg, cutoff=3)
        model, times = build_model(small), [0.0, 0.13, 0.13, 0.3]
        for rho0 in (ground_state(small), superposition_start(small), phased_start(small)):
            traj = evolve(model, rho0, IntegratorSettings(dt=0.01, t_max=0.3), record_times=times)
            for state, expected in zip(traj.states, dense_evolution(model, rho0, times, 0.01)):
                assert np.abs(state - expected).max() <= 1e-12
            assert np.abs(traj.states[-1] - rho0).max() > 1e-3  # the state moved

    def test_quadrature_noise_keeps_the_parity_of_q(self):
        cfg = SystemConfig(n_thermal=0.5, cutoff=5)
        model = with_quadrature_noise(build_model(cfg))
        d, labels = model.dim, sector_labels(model)
        orders = coherence_orders(model)
        even = np.flatnonzero(orders.ravel(order="F") % 2 == 0)  # in vec order
        assert np.unique(labels, return_counts=True)[1].tolist() == [288, 288]
        assert np.array_equal(np.flatnonzero(labels == 0), even)
        assert np.abs(steady_state(model) - dense_steady_state_of(model)).max() <= 1e-12
        rows, cols = _evolved_entries(model, ground_state(cfg))
        assert np.array_equal(rows + d * cols, even)
        times = [0.0, 0.1, 0.25]
        traj = evolve(model, ground_state(cfg), IntegratorSettings(dt=0.01, t_max=0.25), record_times=times)
        for state, expected in zip(traj.states, dense_evolution(model, ground_state(cfg), times, 0.01)):
            assert np.abs(state - expected).max() <= 1e-12
            assert not state[orders % 2 == 1].any()
        assert np.abs(traj.states[-1][orders == 2]).max() > 1e-4  # a q = 2 coherence, which thermal noise never builds


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
        block = lindblad_block(model, rows, cols)
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

    @pytest.mark.parametrize("cutoff,coordinates", [(1, 14), (2, 24), (5, 54)], ids=["1", "2", "5"])  # of 20, 36, 84
    def test_step_matrix_is_the_taylor_polynomial(self, cutoff, coordinates):
        # on the s coordinates of the q = 0 entries, which is what a cell evolved from |g,g,0> steps
        cfg = SystemConfig(n_thermal=1.0, cutoff=cutoff)
        generator = SectorBlocks.of(build_model(cfg), *q_sectors(build_model(cfg))[0], ground_state(cfg))
        n = len(generator.block)
        assert n == coordinates
        for h in (0.002, 0.001, 1.0 / 3.0):
            step = _step_map(generator, h)
            assert step.shape == (n, n)
            g = h * generator.block
            eye = np.eye(n)
            expected = eye + g + g @ g / 2 + g @ g @ g / 6 + g @ g @ g @ g / 24
            assert np.abs(step - expected).max() <= 1e-14 * np.abs(expected).max()


def failure_time(run):
    """(error class, the time its message names) of an integrator failure in `run()`, or (None, None)."""
    try:
        run()
    except IntegratorError as err:
        return type(err), float(re.search(r"t=([^ ;]+)", str(err)).group(1))
    return None, None


class TestRecordGates:
    """`evolve` gates each recorded state: against `stepwise_evolve`, which gates every step."""

    @pytest.mark.parametrize("n_thermal,kappa,dt", [
        *product((0.5, 1.0, 2.0, 3.0), (1.0, 2.0, 4.0), (0.3, 0.4, 0.5, 0.7, 1.0)),  # steps just too large
        *product((3.0, 1e3, 1e6), (5.0, 1e3, 1e6), (0.01, 0.5, 5.0)),  # hostile growth: rates up to 1e12
    ])
    def test_unstable_run_fails_at_a_record_without_overflow(self, n_thermal, kappa, dt):
        # `evolve` names the earliest record at or after the step where the stepwise gate fails,
        # whose time the message prints to 6 digits
        cfg = SystemConfig(n_thermal=n_thermal, kappa=kappa, cutoff=5)
        model, rho0, settings = build_model(cfg), ground_state(cfg), IntegratorSettings(dt=dt, t_max=5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # so an overflow in the powers or the states fails the test
            error, at = failure_time(lambda: evolve(model, rho0, settings))
        stepwise_error, step_at = failure_time(lambda: stepwise_evolve(model, rho0, dt, settings.times))
        assert error is stepwise_error is TraceDriftError
        assert at == float(f"{min(t for t in settings.times if t >= step_at * (1 - 1e-6)):.6g}")

    @pytest.mark.parametrize("kappa,dt,record_times,step_at,record_at", [
        (4.0, 1.0, [0.0, 3.0], 1.0, 3.0),  # the first step of a 3-step span
        (5.0, 0.006, [0.0, 3.0], 0.15, 3.0),  # step 25 of 500
        (5.0, 0.0057, [0.0, 3.0], 0.614801, 3.0),  # step 108 of 527
        (5.0, 0.00567, [0.0, 3.0], 0.962264, 3.0),  # step 170 of 530
        (5.0, 0.0057, [0.0, 1.05], 0.760541, 1.05),  # step 134 of 185, the span's last record
        (5.0, 0.006, [0.0, 0.15], 0.15, 0.15),  # step 25, the last of the span's 25 steps
    ], ids=["first_step", "later_chunk", "capped_chunk", "second_capped_chunk", "partial_last_chunk",
            "last_step_of_span"])
    def test_failure_names_the_stepwise_step(self, kappa, dt, record_times, step_at, record_at):
        # the stepwise reference names its failing step; `evolve`, which forms only recorded states,
        # names the record that ends that step's span, with every warning an error
        cfg = SystemConfig(n_thermal=3.0, kappa=kappa, cutoff=5)
        model, rho0, settings = build_model(cfg), ground_state(cfg), IntegratorSettings(dt=dt, t_max=record_times[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert failure_time(lambda: evolve(model, rho0, settings, record_times=record_times)) == (
                TraceDriftError, record_at)
        assert failure_time(lambda: stepwise_evolve(model, rho0, dt, record_times)) == (TraceDriftError, step_at)

    def test_stable_run_records_the_stepwise_states(self):
        cfg = SystemConfig(n_thermal=1.8, cutoff=5)
        model, rho0, times = build_model(cfg), ground_state(cfg), list(np.linspace(0.0, 5.0, 6))
        traj = evolve(model, rho0, IntegratorSettings(), record_times=times)
        for state, expected in zip(traj.states, stepwise_evolve(model, rho0, 0.002, times)):
            assert np.abs(state - expected).max() <= 1e-13

    def test_long_spans_record_the_sequential_states(self, monkeypatch):
        # spans of 1, 2, 3, 64, 127, 128, 177 and 500 steps of the exact binary dt = 1/512, whose powers of
        # the step matrix are squared as the spans first need them, then 52 steps of a second size:
        # against stepping one S @ y at a time, and against `stepwise_evolve`
        cfg = SystemConfig(n_thermal=1.8, cutoff=5)
        dt = 1 / 512
        times = [0.0, *(dt * np.cumsum([1, 2, 3, 64, 127, 128, 177, 500]))]
        times.append(times[-1] + 0.1)
        model, rho0, settings = build_model(cfg), ground_state(cfg), IntegratorSettings(dt=dt, t_max=times[-1])
        generator = SectorBlocks.of(model, *_evolved_entries(model, rho0), rho0)
        y, expected, t_prev = generator.coordinates(rho0[generator.rows, generator.cols]), [], 0.0
        for t in times:
            if t > t_prev:
                n_steps = math.ceil((t - t_prev) / dt - 1e-9)
                step = _step_map(generator, (t - t_prev) / n_steps)
                for _ in range(n_steps):
                    y = step @ y
            rho = np.zeros_like(rho0)
            rho[generator.rows, generator.cols] = generator.entries(y)
            expected.append(rho)
            t_prev = t

        sizes = []

        def recording_step_map(generator, h):
            sizes.append(h)
            return _step_map(generator, h)

        monkeypatch.setattr(noisycav.dynamics, "_step_map", recording_step_map)
        traj = evolve(model, rho0, settings, record_times=times)
        assert len(sizes) == len(set(sizes)) == 2  # one power cache per step size, shared by the spans of dt
        for state, sequential, stepwise in zip(traj.states, expected, stepwise_evolve(model, rho0, dt, times)):
            assert np.abs(state - sequential).max() <= 1e-13
            assert np.abs(state - stepwise).max() <= 1e-13

    @pytest.mark.parametrize("start", [ground_state, superposition_start], ids=["q0", "q0_and_pm1"])
    def test_recorded_states_are_exactly_hermitian(self, start):
        cfg = SystemConfig(n_thermal=1.8, cutoff=4)
        traj = evolve(build_model(cfg), start(cfg), IntegratorSettings(), record_times=[0.0, 0.3, 0.3, 1.7])
        for state in traj.states:
            assert np.array_equal(state, state.conj().T)


# the models of a stack: symmetric, atom-asymmetric, and with collapse terms the package never builds
STACK_MODELS = (
    lambda: build_model(SystemConfig(n_thermal=0.5, cutoff=3)),
    lambda: build_model(SystemConfig(g_a=0.6, g_b=1.4, n_thermal=0.8, cutoff=3)),
    lambda: with_extra_jumps(build_model(SystemConfig(n_thermal=0.5, cutoff=3))),
)

# a sweep grid at cutoff 3 from |g,g,0>: a stable cell, one whose first failure is the positivity gate at the
# late record t = 4, and one whose state turns NaN by the first record after t = 0
FAILING_BASE = SystemConfig(cutoff=3, g_a=0.8, g_b=1.3, gamma=0.3)
FAILING_CELLS = {
    "stable": dict(kappa=1.0, n_thermal=0.5),
    "late": dict(kappa=5.13, n_thermal=3.0),
    "nan": dict(kappa=1e3, n_thermal=1e3),
}
FAILING_TIMES = [0.25 * k for k in range(21)]
FAILING_SETTINGS = IntegratorSettings(dt=0.01, t_max=5.0)


def failure(run):
    """(error class, message, `index`) of the integrator failure in `run()`, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            run()
        except IntegratorError as err:
            return type(err), str(err), err.index
    raise AssertionError("no integrator failure")


class TestStackedEvolve:
    """A stack of generators, evolved as one, against each generator evolved alone."""

    @pytest.mark.parametrize("start", [ground_state, phased_start], ids=["s", "s_and_a"])
    @pytest.mark.parametrize("reduce_to", [None, (ATOM_A, ATOM_B)], ids=["full", "atoms"])
    def test_a_stack_is_each_generator_alone(self, start, reduce_to):
        # dt = 1/64 and the times are exact in binary: three equal spans of 8 steps, then spans of 4 steps,
        # none and 20 steps, all stepped by the binary powers of one step matrix
        cfg = SystemConfig(n_thermal=0.5, cutoff=3)
        rho0, observables = start(cfg), standard_observables(cfg)
        rows, cols = _evolved_entries(STACK_MODELS[0](), rho0)
        generators = [SectorBlocks.of(model(), rows, cols, rho0) for model in STACK_MODELS]
        stack = generators[0].with_block(np.stack([g.block for g in generators]))
        times, settings = [0.0, 0.125, 0.25, 0.375, 0.4375, 0.4375, 0.75], IntegratorSettings(dt=1 / 64)
        stacked = evolve(stack, rho0, settings, record_times=times, observables=observables, reduce_to=reduce_to)
        assert stacked.times.shape == (len(times),)
        assert stacked.trace_residuals.shape == stacked.min_eigenvalues.shape == (len(times), len(generators))
        for k, generator in enumerate(generators):
            alone = evolve(generator, rho0, settings, record_times=times, observables=observables,
                           reduce_to=reduce_to)
            assert np.array_equal(stacked.times, alone.times)
            assert all(np.array_equal(states[k], state) for states, state in zip(stacked.states, alone.states))
            for name, series in alone.observables.items():
                assert np.array_equal(stacked.observables[name][:, k], series)
            assert np.array_equal(stacked.trace_residuals[:, k], alone.trace_residuals)
            assert np.array_equal(stacked.min_eigenvalues[:, k], alone.min_eigenvalues)
            assert np.abs(alone.states[-1] - alone.states[0]).max() > 1e-3  # the state moved
        assert not np.array_equal(stacked.states[-1][0], stacked.states[-1][1])  # and differently per model

    @pytest.mark.parametrize("order", [
        ("stable", "late", "nan"),
        ("stable", "nan", "late"),
        ("nan", "late", "stable"),
        ("late", "stable", "nan"),
    ], ids="-".join)
    def test_an_error_names_the_first_failing_generator_at_its_earliest_failure(self, order):
        # the stacked run raises what the first failing generator in stack order raises alone, with its
        # index: the late failure when it comes first, though the NaN state fails at an earlier record,
        # with no LinAlgError from the eigensolve and no RuntimeWarning
        rho0 = ground_state(FAILING_BASE)
        components = _RateComponents.build(FAILING_BASE, rho0)
        cfgs = [replace(FAILING_BASE, **FAILING_CELLS[name]) for name in order]
        stack = components.at(cfgs)

        def run(generator):
            return lambda: evolve(generator, rho0, FAILING_SETTINGS, record_times=FAILING_TIMES)

        alone = {name: components.generator.with_block(block) for name, block in zip(order, stack.block)}
        evolve(alone["stable"], rho0, FAILING_SETTINGS, record_times=FAILING_TIMES)
        assert failure(run(alone["late"]))[:2] == (
            PositivityLossError, "smallest eigenvalue -1.922e-04 at t=4 violates the positivity gate")
        assert failure(run(alone["nan"]))[:2] == (
            TraceDriftError, "trace drift nan exceeds tolerance 1.0e-08 at t=0.25; reduce dt")
        first = next(k for k, name in enumerate(order) if name != "stable")
        assert failure(run(stack)) == (*failure(run(alone[order[first]]))[:2], first)


class TestStackedSweep:
    """The stack budget sets which cells a sweep task evolves together, and nothing else."""

    @staticmethod
    def sweeps_per_budget(spec, monkeypatch, run):
        """`run(spec)` with stacks of 1, 2 and 4 cells, and with the default budget."""
        one = _RateComponents.build(spec.base, spec.initial_density_matrix()).stack[0].nbytes
        out = []
        for per_stack in (1, 2, 4):
            monkeypatch.setattr(noisycav.sweep, "STACK_BYTES", per_stack * one)
            out.append(run(spec))
        monkeypatch.undo()
        assert noisycav.sweep.STACK_BYTES >= 9 * one  # the default takes each grid below in one stack
        return out + [run(spec)]

    @pytest.mark.parametrize("spec", [
        SweepSpec(base=FAILING_BASE, axis1=SweepAxis("n_thermal", (0.0, 0.7, 1.5)),
                  axis2=SweepAxis("kappa", (0.5, 2.0, 4.0)), evaluation_time=0.3),
        SweepSpec(base=FAILING_BASE, axis1=SweepAxis("gamma", (0.0, 0.2, 0.5, 1.0, 1.2)),
                  axis2=SweepAxis("time", (0.0, 0.1, 0.25, 0.4))),
    ], ids=["map", "time_axis"])
    def test_a_cell_does_not_depend_on_its_stack(self, spec, monkeypatch):
        cells = self.sweeps_per_budget(spec, monkeypatch, lambda s: run_sweep(s, IntegratorSettings(dt=0.01)).cells)
        assert all(grid == cells[0] for grid in cells[1:])

    def test_the_failing_cell_does_not_depend_on_its_stack(self, monkeypatch):
        spec = SweepSpec(base=replace(FAILING_BASE, n_thermal=3.0), axis1=SweepAxis("kappa", (1.0, 5.13, 1e3)),
                         axis2=SweepAxis("time", tuple(FAILING_TIMES)))
        errors = self.sweeps_per_budget(spec, monkeypatch, lambda s: failure(lambda: run_sweep(s, FAILING_SETTINGS)))
        assert errors == 4 * [(PositivityLossError,
                               "kappa=5.13: smallest eigenvalue -1.922e-04 at t=4 violates the positivity gate", 0)]


# the entries of a 4x4 matrix off its diagonal and its anti-diagonal, all 0 in an X-state
OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])


class TestRecordMaps:
    """Each record's reduced state and observables, read off its entries, against the d x d reference functions."""

    @pytest.mark.parametrize("keep", [(ATOM_A,), (CAVITY,), (ATOM_A, ATOM_B), (ATOM_A, ATOM_B, CAVITY)],
                             ids=["atom_a", "cavity", "atoms", "all"])
    @pytest.mark.parametrize("start,sigma_x", [
        (ground_state, False),  # the q = 0 entries: the reduced atoms are an X-state
        (superposition_start, False),  # q in {0, +-1}: they are not
        (ground_state, True),  # the even orders q of a model without the symmetry: half the d^2 entries
    ], ids=["q0", "q0_and_pm1", "even_orders"])
    def test_records_match_the_scattered_state(self, start, sigma_x, keep):
        cfg = SystemConfig(n_thermal=1.2, kappa=1.5, cutoff=3)
        model, rho0, observables = build_model(cfg), start(cfg), standard_observables(cfg)
        if sigma_x:
            model = with_atom_a_sigma_x(model)
        times, settings = [0.0, 0.2, 0.2, 0.9], IntegratorSettings()
        scattered = evolve(model, rho0, settings, record_times=times).states
        traj = evolve(model, rho0, settings, record_times=times, observables=observables, reduce_to=keep)
        for i, rho in enumerate(scattered):
            assert np.abs(traj.states[i] - partial_trace(rho, model.layout, keep)).max() <= 1e-14
            if len(keep) == model.layout.nfactors:  # the full state is read by the same map
                assert traj.states[i].tobytes() == rho.tobytes()
            for name, op in observables.items():
                assert abs(traj.observables[name][i] - expectation(op, rho)) <= 1e-14
            _, residual, min_eig = density_matrix_defects(rho)
            assert traj.trace_residuals[i] == residual and traj.min_eigenvalues[i] == min_eig
        if keep == (ATOM_A, ATOM_B):
            # from |g,g,0> every term keeps the parity of q, and the atoms' entries off the X have odd q
            off_x = [np.count_nonzero(state[OFF_X]) for state in traj.states]
            assert off_x[-1] > 0 if start is superposition_start else not any(off_x)

    def test_sweep_cells_share_one_reduction_map(self):
        cfg = SystemConfig(n_thermal=0.5, cutoff=3)
        model = build_model(cfg)
        generator = SectorBlocks.of(model, *_evolved_entries(model, ground_state(cfg)))
        first = generator.with_block(2.0 * generator.block).reduction((ATOM_B, ATOM_A))
        assert generator.with_block(generator.block).reduction([ATOM_A, ATOM_B]) is first
        assert first.shape == (16, len(generator.rows))


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

    @pytest.mark.parametrize("case", sorted(SECTOR_CASES))
    def test_q_nonnegative_spectra_pool_to_the_full_spectrum(self, case, monkeypatch):
        # the solver takes the singular values of the q >= 0 sectors only, q = 0
        # first, as its s and a halves, and counts each q > 0
        # spectrum twice, for the -q sector: that pool must be the singular
        # values of the dense Liouvillian
        model = SECTOR_CASES[case](4)
        liouv = dense_liouvillian(model)
        nullity = dense_null_space(liouv).shape[1]
        spectra, svd = [], np.linalg.svd

        def recording_svd(a, **kwargs):
            spectra.append(svd(a, **kwargs))
            return spectra[-1]

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        if nullity != 1:  # gamma0_dark_mode
            with pytest.raises(RankDeficientError, match=f"dimension {nullity};"):
                steady_state(model)
        else:
            steady_state(model)
        monkeypatch.undo()
        assert len(spectra) == 1 + len(np.unique(coherence_orders(model)[coherence_orders(model) >= 0]))
        pooled = np.sort(np.concatenate(spectra + spectra[2:]))
        full = np.sort(np.linalg.svd(liouv, compute_uv=False))
        assert np.abs(pooled - full).max() <= 1e-13 * full.max()

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


def test_integrator_errors_are_exported():
    # states are stepped in real coordinates, exactly Hermitian, so no Hermiticity drift error exists
    import noisycav

    errors = {name for name, value in vars(noisycav.dynamics).items()
              if isinstance(value, type) and issubclass(value, IntegratorError)}
    assert errors == {"IntegratorError", "TraceDriftError", "PositivityLossError"}
    assert all(getattr(noisycav, name) is getattr(noisycav.dynamics, name) for name in errors)
    assert not hasattr(noisycav, "HermiticityDriftError")
