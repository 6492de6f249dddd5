import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisycav.dynamics import IntegratorSettings, evolve
from noisycav.entanglement import concurrence
from noisycav.model import (
    ATOM_A,
    ATOM_B,
    CAVITY,
    LindbladModel,
    SystemConfig,
    build_cavity_model,
    build_collapse_terms,
    build_interaction_hamiltonian,
    build_model,
    collective_mode_operators,
    ground_state,
    standard_observables,
)
from noisycav.qops import (
    SpaceLayout,
    annihilation,
    basis_state,
    dagger,
    embed,
    excited_projector,
    number_operator,
    partial_trace,
    sigma_minus,
    sigma_plus,
)

from conftest import lab_hamiltonian, lab_model, pauli_z, stepwise_evolve, verify_mode_b_decoupling


def composite_ket(cfg, atom_a, atom_b, photons):
    idx = (atom_a * 2 + atom_b) * (cfg.cutoff + 1) + photons
    return basis_state(cfg.layout.dim, idx)


class TestSystemConfig:
    def test_defaults_are_the_figure_parameters(self):
        cfg = SystemConfig()
        assert (cfg.g_a, cfg.g_b) == (1.0, 1.0)
        assert (cfg.kappa, cfg.gamma, cfg.n_thermal, cfg.cutoff) == (2.0, 0.2, 0.0, 5)

    @pytest.mark.parametrize(
        "field,value",
        [("kappa", -0.1), ("gamma", -1.0), ("n_thermal", -0.5), ("cutoff", 0)],
    )
    def test_domain_violations_name_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            SystemConfig(**{field: value})

    @pytest.mark.parametrize("field", ["g_a", "g_b", "kappa", "gamma", "n_thermal", "cutoff"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_name_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SystemConfig(**{field: value})

    def test_layout_and_coupling(self):
        cfg = SystemConfig(g_a=3.0, g_b=4.0, cutoff=5)
        assert cfg.layout == SpaceLayout((2, 2, 6))
        assert abs(cfg.coupling - 5.0) < 1e-15


class TestInteractionHamiltonian:
    def test_ground_is_dark(self):
        cfg = SystemConfig()
        h = build_interaction_hamiltonian(cfg)
        assert np.abs(h @ composite_ket(cfg, 0, 0, 0)).max() == 0.0

    def test_single_excitation_exchange(self):
        cfg = SystemConfig(g_a=0.7, g_b=1.3)
        h = build_interaction_hamiltonian(cfg)
        out = h @ composite_ket(cfg, 1, 0, 0)  # |e,g,0>
        expected = 1j * cfg.g_a * composite_ket(cfg, 0, 0, 1)  # i g_a |g,g,1>
        assert np.abs(out - expected).max() < 1e-15

    def test_symmetric_mode_coupling_strength(self):
        # with g_a=g_b=1 the symmetric atomic excitation couples to the
        # one-photon state with the collective strength sqrt(2), phase i
        cfg = SystemConfig()
        h = build_interaction_hamiltonian(cfg)
        sym = (composite_ket(cfg, 1, 0, 0) + composite_ket(cfg, 0, 1, 0)) / np.sqrt(2)
        amp = composite_ket(cfg, 0, 0, 1).conj() @ (h @ sym)
        assert abs(amp - 1j * np.sqrt(2.0)) < 1e-14

    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_is_the_textbook_exchange_in_the_photon_phase_convention(self, g_a, g_b, cutoff):
        # exactly D H_textbook D^dag with D = diag(i^n), n the photon number, and
        # H_textbook = sum_i g_i (sigma_-^i a^dag + sigma_+^i a)
        cfg = SystemConfig(g_a=g_a, g_b=g_b, cutoff=cutoff)
        layout = cfg.layout
        a = embed(annihilation(cutoff), CAVITY, layout)
        textbook = sum(g * (embed(sigma_minus(), atom, layout) @ a.conj().T + embed(sigma_plus(), atom, layout) @ a)
                       for g, atom in ((g_a, ATOM_A), (g_b, ATOM_B)))
        photons = np.indices(layout.factor_dims)[CAVITY].reshape(-1)
        d = np.diag(np.array([1.0, 1.0j, -1.0, -1.0j])[photons % 4])
        assert np.array_equal(build_interaction_hamiltonian(cfg), d @ textbook @ d.conj().T)

    def test_hermitian_exactly(self):
        h = build_interaction_hamiltonian(SystemConfig(g_a=0.3, g_b=2.1))
        assert np.abs(h - h.conj().T).max() == 0.0

    def test_total_excitation_number_conserved(self):
        cfg = SystemConfig(g_a=1.1, g_b=0.4)
        layout = cfg.layout
        n_exc = (
            embed(excited_projector(), ATOM_A, layout)
            + embed(excited_projector(), ATOM_B, layout)
            + embed(number_operator(cfg.cutoff), CAVITY, layout)
        )
        h = build_interaction_hamiltonian(cfg)
        assert np.abs(n_exc @ h - h @ n_exc).max() < 1e-12


class TestLabHamiltonian:
    def test_decoupled_is_diagonal_with_ground_energy(self):
        cfg = SystemConfig(g_a=0.0, g_b=0.0)
        h = lab_hamiltonian(cfg, 1.0, 1.0)
        assert np.abs(h - np.diag(np.diag(h))).max() == 0.0
        ket = composite_ket(cfg, 0, 0, 0)
        assert abs(ket.conj() @ (h @ ket) - (-1.0)) < 1e-14

    def test_difference_is_free_hamiltonian_on_resonance(self):
        cfg, omega = SystemConfig(), 1.3
        diff = lab_hamiltonian(cfg, omega, omega) - build_interaction_hamiltonian(cfg)
        layout = cfg.layout
        h0 = 0.5 * omega * (embed(pauli_z(), ATOM_A, layout) + embed(pauli_z(), ATOM_B, layout))
        h0 = h0 + omega * embed(number_operator(cfg.cutoff), CAVITY, layout)
        assert np.abs(diff - h0).max() < 1e-13

    def test_free_part_commutes_with_coupling_on_resonance(self):
        # exact on the truncated space: [n, a^dag] = a^dag holds including the
        # boundary column, so no rows need excluding
        cfg = SystemConfig()
        h_i = build_interaction_hamiltonian(cfg)
        h0 = lab_hamiltonian(cfg, 0.9, 0.9) - h_i
        assert np.abs(h0 @ h_i - h_i @ h0).max() < 1e-12


class TestCollapseTerms:
    def test_zero_thermal_has_no_heating(self):
        cfg = SystemConfig(n_thermal=0.0, kappa=2.0, gamma=0.2)
        terms = build_collapse_terms(cfg)
        assert len(terms) == 3  # cooling + two atoms
        assert terms[0][0] == pytest.approx(2.0)

    def test_rates_arithmetic(self):
        cfg = SystemConfig(kappa=2.0, n_thermal=1.0, gamma=0.0)
        terms = build_collapse_terms(cfg)
        rates = sorted(rate for rate, _ in terms)
        assert rates == [2.0, 4.0]
        a_emb = embed(annihilation(cfg.cutoff), CAVITY, cfg.layout)
        cooling = [op for rate, op in terms if rate == 4.0][0]
        heating = [op for rate, op in terms if rate == 2.0][0]
        assert np.array_equal(cooling, a_emb)
        assert np.array_equal(heating, dagger(a_emb))

    def test_no_atomic_terms_when_gamma_zero(self):
        terms = build_collapse_terms(SystemConfig(gamma=0.0))
        assert len(terms) == 1

    def test_rate_formulas(self):
        cfg = SystemConfig(kappa=0.7, n_thermal=0.3, gamma=0.11)
        rates = sorted(rate for rate, _ in build_collapse_terms(cfg))
        assert rates == pytest.approx(sorted([0.7 * 1.3, 0.7 * 0.3, 0.11, 0.11]))


class TestBuildModel:
    def test_pure_hamiltonian_model(self):
        cfg = SystemConfig(kappa=0.0, gamma=0.0)
        model = build_model(cfg)
        assert model.collapse_terms == ()
        assert np.array_equal(model.hamiltonian, build_interaction_hamiltonian(cfg))

    def test_liouvillean_part_frame_independent(self):
        cfg = SystemConfig(n_thermal=0.4)
        lab = lab_model(cfg, 1.0, 1.0)
        inter = build_model(cfg)
        assert len(lab.collapse_terms) == len(inter.collapse_terms)
        for (r1, op1), (r2, op2) in zip(lab.collapse_terms, inter.collapse_terms):
            assert r1 == r2
            assert np.array_equal(op1, op2)

    def test_frames_agree_on_reduced_atom_dynamics(self):
        # on resonance the frames differ by local diagonal unitaries, so the
        # concurrence series and the reduced populations must coincide
        # the lab model's Hamiltonian is not imaginary, so `evolve` refuses it; its side is the
        # tests' own RK4 on the complex entries, traced down to the atoms
        cfg = SystemConfig(n_thermal=0.5)
        settings = IntegratorSettings(dt=0.002, t_max=1.5, record_stride=125)
        rho0 = ground_state(cfg)
        interaction = evolve(build_model(cfg), rho0, settings, reduce_to=(ATOM_A, ATOM_B)).states
        lab = [partial_trace(state, cfg.layout, (ATOM_A, ATOM_B))
               for state in stepwise_evolve(lab_model(cfg, 1.0, 1.0), rho0, settings.dt, settings.times)]
        assert len(lab) == len(interaction) == 7
        for s_int, s_lab in zip(interaction, lab):
            assert abs(concurrence(s_int).value - concurrence(s_lab).value) < 1e-8
            assert np.abs(np.diag(s_int) - np.diag(s_lab)).max() < 1e-8
            assert np.abs(np.abs(s_int) - np.abs(s_lab)).max() < 1e-8

    def test_model_validation(self):
        layout = SpaceLayout((2,))
        with pytest.raises(ValueError, match="Hermitian"):
            LindbladModel(np.array([[0, 1], [0, 0]], dtype=complex), (), layout)
        with pytest.raises(ValueError, match="rate"):
            LindbladModel(np.zeros((2, 2), dtype=complex), ((-1.0, np.eye(2, dtype=complex)),), layout)
        with pytest.raises(ValueError, match=r"Hamiltonian shape \(3, 3\) does not match layout dim 2"):
            LindbladModel(np.zeros((3, 3), dtype=complex), (), layout)
        with pytest.raises(ValueError, match=r"collapse operator shape \(3, 3\) does not match layout dim 2"):
            LindbladModel(np.zeros((2, 2), dtype=complex), ((1.0, np.eye(3, dtype=complex)),), layout)
        for bad in (np.nan, np.inf, complex(0.0, np.nan)):
            with pytest.raises(ValueError, match=r"^Hamiltonian has non-finite entries$"):
                LindbladModel(np.diag([bad, 0.0]).astype(complex), (), layout)
        lower = np.array([[0, 1], [0, 0]], dtype=complex)
        for bad in (np.nan, -np.inf):
            broken = lower.copy()
            broken[1, 0] = bad
            with pytest.raises(ValueError, match=r"^collapse operator 1 has non-finite entries$"):
                LindbladModel(np.zeros((2, 2), dtype=complex), ((1.0, lower), (0.5, broken)), layout)
        with pytest.raises(ValueError, match=r"^collapse rate must be nonnegative, got nan$"):
            LindbladModel(np.zeros((2, 2), dtype=complex), ((np.nan, np.eye(2, dtype=complex)),), layout)


class TestCollectiveModes:
    def test_single_coupling_limit(self):
        cfg = SystemConfig(g_a=1.0, g_b=0.0)
        sig_a, sig_b = collective_mode_operators(cfg)
        layout = cfg.layout
        assert np.abs(sig_a - embed(sigma_plus(), ATOM_A, layout)).max() < 1e-15
        assert np.abs(sig_b - (-embed(sigma_plus(), ATOM_B, layout))).max() < 1e-15

    def test_equal_couplings_symmetric(self):
        cfg = SystemConfig(g_a=1.0, g_b=1.0)
        sig_a, _ = collective_mode_operators(cfg)
        layout = cfg.layout
        expected = (embed(sigma_plus(), ATOM_A, layout) + embed(sigma_plus(), ATOM_B, layout)) / np.sqrt(2)
        assert np.abs(sig_a - expected).max() < 1e-15

    def test_bright_mode_reproduces_interaction_hamiltonian(self):
        cfg = SystemConfig(g_a=0.6, g_b=1.7)
        sig_a, _ = collective_mode_operators(cfg)
        a_emb = embed(annihilation(cfg.cutoff), CAVITY, cfg.layout)
        h = 1j * cfg.coupling * (dagger(sig_a) @ dagger(a_emb) - sig_a @ a_emb)
        assert np.abs(h - build_interaction_hamiltonian(cfg)).max() < 1e-13

    def test_transformation_preserves_excitation_number(self):
        # sigma_A+ sigma_A- + sigma_B+ sigma_B- equals the atomic excitation
        # number as an operator identity, hence for every state
        cfg = SystemConfig(g_a=1.9, g_b=0.3)
        sig_a, sig_b = collective_mode_operators(cfg)
        layout = cfg.layout
        collective = sig_a @ dagger(sig_a) + sig_b @ dagger(sig_b)
        atomic = embed(excited_projector(), ATOM_A, layout) + embed(excited_projector(), ATOM_B, layout)
        assert np.abs(collective - atomic).max() < 1e-12

    def test_rejects_zero_couplings(self):
        with pytest.raises(ValueError):
            collective_mode_operators(SystemConfig(g_a=0.0, g_b=0.0))


class TestModeBDynamics:
    def test_decoupled_when_drive_is_off(self):
        # n_T = 0 from the ground state: nothing moves, mode B stays empty
        report = verify_mode_b_decoupling(SystemConfig(n_thermal=0.0), t_max=2.0)
        assert report.decoupled
        assert report.max_population <= 1e-12

    def test_not_decoupled_under_thermal_drive(self):
        # oracle-computed truth: thermal driving reaches the double-excitation
        # manifold, which carries mode-B number; the bright/dark split is
        # exact only in the <=1-excitation sector
        report = verify_mode_b_decoupling(SystemConfig(n_thermal=0.5), t_max=3.0)
        assert not report.decoupled
        assert report.max_population > 1e-3

    def test_symmetric_excitation_stays_bright(self):
        cfg = SystemConfig(n_thermal=0.0, kappa=2.0, gamma=0.2)
        sym = (composite_ket(cfg, 1, 0, 0) + composite_ket(cfg, 0, 1, 0)) / np.sqrt(2)
        rho0 = np.outer(sym, sym.conj())
        _, sig_b = collective_mode_operators(cfg)
        n_b = sig_b @ dagger(sig_b)
        traj = evolve(
            build_model(cfg),
            rho0,
            IntegratorSettings(dt=0.002, t_max=3.0, record_stride=100),
            observables={"mode_b": n_b},
        )
        assert traj.observables["mode_b"].max() <= 1e-10

    def test_antisymmetric_state_is_stationary(self):
        cfg = SystemConfig(kappa=0.0, gamma=0.0)
        anti = (composite_ket(cfg, 1, 0, 0) - composite_ket(cfg, 0, 1, 0)) / np.sqrt(2)
        rho0 = np.outer(anti, anti.conj())
        traj = evolve(build_model(cfg), rho0, IntegratorSettings(dt=0.002, t_max=2.0, record_stride=250))
        fidelity = float((anti.conj() @ traj.states[-1] @ anti).real)
        assert fidelity >= 1.0 - 1e-8


class TestHelpers:
    def test_ground_state_is_the_zero_index(self):
        cfg = SystemConfig()
        rho = ground_state(cfg)
        assert rho[0, 0] == 1.0
        assert np.count_nonzero(rho) == 1

    def test_standard_observables_keys(self):
        obs = standard_observables(SystemConfig())
        assert list(obs) == ["mean_photon", "p_ee_a", "p_ee_b", "mode_b_pop", "top_fock_pop"]
        assert list(standard_observables(SystemConfig(g_a=0.0, g_b=0.0))) == [
            "mean_photon", "p_ee_a", "p_ee_b", "top_fock_pop"]

    def test_cavity_model_layout(self):
        model = build_cavity_model(SystemConfig(kappa=1.0, n_thermal=0.5, cutoff=7))
        assert model.layout == SpaceLayout((8,))
        assert len(model.collapse_terms) == 2

    def test_reduced_ground_state(self):
        cfg = SystemConfig()
        atoms = partial_trace(ground_state(cfg), cfg.layout, (ATOM_A, ATOM_B))
        assert np.abs(atoms - np.diag([1.0, 0, 0, 0])).max() < 1e-15
