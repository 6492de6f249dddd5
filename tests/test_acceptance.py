"""Acceptance gate: each criterion runs at its stated tolerance and prints
one pass/fail line (run pytest with -s to see the lines as they happen).

Two criteria are implemented verbatim and are expected to fail on physical
grounds, not by implementation error:

  * criterion 3 (noise-assisted entanglement existence): under this master
    equation the thermally driven bus populates the doubly excited state
    fast enough (thermal photon bunching) that the spin-flip eigenvalue
    combination never turns positive; the ground-started atoms stay exactly
    separable for every noise intensity, so no time slice reaches 1e-2.
  * criterion 8 (dark-mode decoupling): the bright/dark mode split is exact
    only while at most one atomic excitation exists; thermal driving reaches
    the double-excitation manifold, which carries dark-mode number, so the
    1e-8 population bound holds only for n_T = 0.

The implementation itself is cross-checked by the oracle criteria (1, 7, 9)
and by the dynamics/entanglement unit suites.
"""

import time

import numpy as np
import pytest

from noisycav.dynamics import (
    IntegratorSettings,
    evolve,
    lindblad_rhs,
    steady_state,
    vectorize_superoperator,
)
from noisycav.entanglement import concurrence
from noisycav.model import (
    ATOM_A,
    ATOM_B,
    SystemConfig,
    build_cavity_model,
    build_model,
    ground_state,
    standard_observables,
)
from noisycav.qops import basis_state
from noisycav.sweep import (
    SweepAxis,
    SweepSpec,
    bright_mode_half_period,
    product_spread,
    resonance_summary,
    run_sweep,
)

from conftest import has_interior_extremum, random_trace_one_hermitian, vec, verify_mode_b_decoupling
from test_entanglement import charpoly_lambdas, werner

EVAL_TIME = bright_mode_half_period(SystemConfig())  # 1/(2g) with g = sqrt(2)


def _criterion(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    return ok


@pytest.fixture(scope="session")
def corner_trajectories():
    """Criterion 2 runs, shared with the health checks of criterion 6."""
    settings = IntegratorSettings(dt=0.002, t_max=10.0, record_stride=50)
    out = {}
    for tag, cfg in (
        ("perfect_cavity", SystemConfig(kappa=0.0, gamma=0.2, n_thermal=1.0)),
        ("idle_bus", SystemConfig(kappa=2.0, gamma=0.2, n_thermal=0.0)),
    ):
        traj = evolve(
            build_model(cfg),
            ground_state(cfg),
            settings,
            observables=standard_observables(cfg),
            reduce_to=(ATOM_A, ATOM_B),
        )
        out[tag] = traj
    return out


@pytest.fixture(scope="session")
def fig2_sweep():
    """Criterion 3 grid: 31 noise intensities x 26 times in (0, 5]."""
    spec = SweepSpec(
        base=SystemConfig(),
        axis1=SweepAxis("n_thermal", tuple(np.linspace(0.0, 3.0, 31))),
        axis2=SweepAxis("time", tuple(5.0 * k / 26.0 for k in range(1, 27))),
    )
    return run_sweep(spec, IntegratorSettings(dt=0.002, t_max=5.0))


@pytest.fixture(scope="session")
def fig4_sweep():
    """Criterion 4 grid: n_T in {0.25, 0.5, 1.0} x 21 atomic decay rates."""
    spec = SweepSpec(
        base=SystemConfig(kappa=2.0),
        axis1=SweepAxis("n_thermal", (0.25, 0.5, 1.0)),
        axis2=SweepAxis("gamma", tuple(np.linspace(0.0, 1.0, 21))),
        evaluation_time=EVAL_TIME,
    )
    return run_sweep(spec, IntegratorSettings(dt=0.002, t_max=5.0))


@pytest.fixture(scope="session")
def fig3_sweep():
    """Criterion 5 grid: n_T in (0, 2] x cavity decay in (0, 5]."""
    spec = SweepSpec(
        base=SystemConfig(gamma=0.2),
        axis1=SweepAxis("n_thermal", tuple(np.linspace(0.2, 2.0, 10))),
        axis2=SweepAxis("kappa", tuple(np.linspace(0.25, 5.0, 20))),
        evaluation_time=EVAL_TIME,
    )
    return run_sweep(spec, IntegratorSettings(dt=0.002, t_max=5.0))


def test_criterion_1_thermal_steady_state_oracle():
    started = time.perf_counter()
    worst = 0.0
    for n_t in (0.2, 0.5, 1.0):
        cfg = SystemConfig(g_a=0.0, g_b=0.0, gamma=0.0, kappa=1.0, n_thermal=n_t, cutoff=20)
        rho = steady_state(build_cavity_model(cfg))
        q = n_t / (1.0 + n_t)
        target = (q ** np.arange(21)) / (1.0 + n_t)
        worst = max(worst, float(np.abs(np.real(np.diag(rho)) - target).max()))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6
    assert _criterion(1, "thermal steady-state oracle", ok,
                      f"max error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_separability_corner_cases(corner_trajectories):
    perfect = corner_trajectories["perfect_cavity"]
    idle = corner_trajectories["idle_bus"]
    c_perfect = max(concurrence(s).value for s in perfect.states)
    c_idle = max(concurrence(s).value for s in idle.states)
    photon_idle = float(idle.observables["mean_photon"].max())
    ok = c_perfect <= 1e-10 and c_idle <= 1e-10 and photon_idle <= 1e-10
    assert _criterion(
        2, "separability corner cases", ok,
        f"max concurrence kappa=0: {c_perfect:.1e}, n_T=0: {c_idle:.1e}, "
        f"idle-bus photons {photon_idle:.1e}",
    )


def test_criterion_3_noise_assisted_entanglement_existence(fig2_sweep):
    grid = fig2_sweep.concurrence_grid()  # shape (31 noise, 26 times)
    zero_noise_ok = bool(np.all(grid[0, :] <= 1e-10))
    found = False
    best = 0.0
    for j in range(grid.shape[1]):
        column = grid[:, j]
        k = int(np.argmax(column))
        peak = float(column[k])
        best = max(best, peak)
        if peak > 1e-2 and 0 < k < grid.shape[0] - 1 and column[-1] < peak:
            found = True
    ok = found and zero_noise_ok
    assert _criterion(
        3, "noise-assisted entanglement existence", ok,
        f"grid max {best:.3e}, zero-noise column dark: {zero_noise_ok}",
    )


def test_criterion_4_monotonicity_in_gamma(fig4_sweep):
    grid = fig4_sweep.concurrence_grid()  # rows: n_T, columns: gamma
    violations = [
        float(fig4_sweep.spec.axis1.values[i])
        for i in range(grid.shape[0])
        if has_interior_extremum(grid[i], band=1e-6)
    ]
    if np.all(grid == 0.0):
        direction = "flat (identically zero)"
    else:
        direction = "decreasing" if grid[:, 0].sum() >= grid[:, -1].sum() else "increasing"
    ok = not violations
    assert _criterion(
        4, "monotonicity in the atomic decay rate", ok,
        f"observed direction: {direction}; interior extrema at n_T={violations or 'none'}",
    )


def test_criterion_5_noise_decay_product_diagnostic(fig3_sweep):
    rows = resonance_summary(fig3_sweep)
    spread = product_spread(rows)
    if spread is None:
        detail = "no row has a nonzero concurrence maximum; n_T*kappa diagnostic is empty"
    else:
        mean, rel = spread
        located = [f"n_T={r.fixed_value:.2f}: n_T*kappa={r.product_at_argmax:.3f}" for r in rows
                   if r.product_at_argmax is not None]
        detail = f"mean n_T*kappa {mean:.3f}, relative spread {rel:.3f}; " + "; ".join(located[:4])
    ok = fig3_sweep.shape == (10, 20)  # non-gating report: only the grid itself is checked
    assert _criterion(5, "noise-decay product diagnostic (non-gating)", ok, detail)


def test_criterion_6_numerical_health(corner_trajectories, fig2_sweep, fig3_sweep, fig4_sweep):
    worst_trace = 0.0
    worst_eig = 0.0
    for traj in corner_trajectories.values():
        worst_trace = max(worst_trace, float(traj.trace_residuals.max()))
        worst_eig = min(worst_eig, float(traj.min_eigenvalues.min()))
    for result in (fig2_sweep, fig3_sweep, fig4_sweep):
        for row in result.cells:
            for cell in row:
                worst_trace = max(worst_trace, cell.trace_residual)
                worst_eig = min(worst_eig, cell.min_eigenvalue)

    cfg = SystemConfig(kappa=2.0, gamma=0.2, n_thermal=1.0)
    model = build_model(cfg)
    rho0 = ground_state(cfg)
    final = {}
    for dt in (0.002, 0.001):
        traj = evolve(model, rho0, IntegratorSettings(dt=dt, t_max=1.0),
                      record_times=[1.0], reduce_to=(ATOM_A, ATOM_B))
        final[dt] = concurrence(traj.states[-1]).value
    halving = abs(final[0.002] - final[0.001])

    ok = worst_trace <= 1e-8 and worst_eig >= -1e-8 and halving <= 1e-6
    assert _criterion(
        6, "numerical health invariants", ok,
        f"trace residual {worst_trace:.1e}, min eigenvalue {worst_eig:.1e}, "
        f"step-halving concurrence shift {halving:.1e}",
    )


def test_criterion_7_oracle_equivalences():
    rng = np.random.default_rng(11)
    model = build_model(SystemConfig(n_thermal=0.5))
    liouv = vectorize_superoperator(model)
    dev_rhs = max(
        float(np.abs(liouv @ vec(rho) - vec(lindblad_rhs(model, rho))).max())
        for rho in (random_trace_one_hermitian(rng, model.dim) for _ in range(20))
    )

    dev_lambda = 0.0
    for _ in range(50):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= rho.trace()
        lam_h = np.array(concurrence(rho).lambdas)
        dev_lambda = max(dev_lambda, float(np.abs(lam_h - charpoly_lambdas(rho)).max()))

    dev_werner = max(
        abs(concurrence(werner(p)).value - max(0.0, (3.0 * p - 1.0) / 2.0))
        for p in (0.0, 1.0 / 3.0, 0.6, 1.0)
    )

    ok = dev_rhs <= 1e-12 and dev_lambda <= 1e-8 and dev_werner <= 1e-10
    assert _criterion(
        7, "oracle equivalences", ok,
        f"superoperator {dev_rhs:.1e}, lambda paths {dev_lambda:.1e}, Werner {dev_werner:.1e}",
    )


def test_criterion_8_dark_mode_decoupling():
    combos = (
        dict(kappa=2.0, gamma=0.2, n_thermal=0.0),
        dict(kappa=2.0, gamma=0.2, n_thermal=0.5),
        dict(kappa=2.0, gamma=0.0, n_thermal=1.0),
        dict(kappa=0.5, gamma=0.3, n_thermal=2.0),
    )
    reports = {tuple(c.values()): verify_mode_b_decoupling(SystemConfig(**c), t_max=10.0)
               for c in combos}
    worst = max(r.max_population for r in reports.values())
    ok = all(r.decoupled for r in reports.values())
    failing = [f"(kappa,gamma,n_T)={k}: {r.max_population:.2e}"
               for k, r in reports.items() if not r.decoupled]
    assert _criterion(
        8, "dark-mode decoupling", ok,
        f"worst population {worst:.2e}" + ("; over bound at " + "; ".join(failing) if failing else ""),
    )


def test_criterion_9_decay_convention_pin():
    cfg = SystemConfig(g_a=0.0, g_b=0.0, kappa=0.0, gamma=0.2)
    idx = 3 * (cfg.cutoff + 1)  # |e,e,0>
    ket = basis_state(cfg.layout.dim, idx)
    rho0 = np.outer(ket, ket.conj())
    traj = evolve(
        build_model(cfg),
        rho0,
        IntegratorSettings(dt=0.002, t_max=5.0, record_stride=100),
        observables=standard_observables(cfg),
    )
    expected = np.exp(-2.0 * cfg.gamma * traj.times)
    worst = max(
        float((np.abs(traj.observables[key] - expected) / expected).max())
        for key in ("p_ee_a", "p_ee_b")
    )
    ok = worst <= 1e-6
    assert _criterion(9, "spontaneous-decay convention pin", ok, f"max relative error {worst:.1e}")
