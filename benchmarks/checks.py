"""Correctness checks on the files one workload pass wrote.

Two layers. The gates hold for every operation: trace residual <= 1e-8,
smallest eigenvalue >= -1e-8 (checked by the program on every recorded state,
whose failure is a non-zero exit, and here on the steady state's reduced
atoms), concurrence in [0, 1], steady residual <= 1e-8. Then the values must
agree with the oracle of `oracle.py`: on a seed-chosen sample of sweep cells
and on the steady state.

The oracle tolerances admit any integrator at least as accurate as RK4 at
dt = 0.002, whose largest deviation from the oracle on these grids is below
1e-9 in mean photon number and 1e-10 in any density-matrix entry, while a
wrong model, rate or time misses them by orders of magnitude. Concurrence gets
a looser bound because its square roots amplify an error eps in the state to
about sqrt(eps) near the separability threshold.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

import oracle
from workloads import Workload

GATE_TOL = 1e-8
PHOTON_TOL = 1e-7  # times max(1, |mean photon number|)
CONCURRENCE_TOL = 1e-4
STEADY_TOL = 1e-9  # entries of the reduced atoms and of the photon distribution
AXIS_TOL = 1e-9  # the program prints 12 significant digits

SWEEP_HEADER = ["axis1_name", "axis1_value", "axis2_name", "axis2_value", "concurrence", "mean_photon",
                "trace_residual"]
SUMMARY_HEADER = ["fixed_value", "argmax_value", "max_concurrence", "interior", "product_at_argmax"]


def sweep_references(w: Workload, seed: int) -> dict[tuple[int, int], tuple[float, float]]:
    """(concurrence, mean photon number) from the oracle for the sampled cells."""
    (_, values1), (name2, values2) = w.axes()
    refs = {}
    for i, j in w.oracle_sample(seed):
        if name2 == "time":
            physics, t = w.physics(seed, n_thermal=values1[i]), values2[j]
        else:
            physics, t = w.physics(seed, n_thermal=values1[i], **{name2: values2[j]}), w.evaluation_time(seed)
        rho = oracle.SectorModel(physics).evolve_ground_state(t)
        refs[(i, j)] = (oracle.concurrence(oracle.reduced_atoms(rho)), oracle.mean_photon(rho))
    return refs


def steady_reference(w: Workload, seed: int) -> np.ndarray:
    return oracle.SectorModel(w.physics(seed)).steady_state()


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def check_sweep(w: Workload, seed: int, refs, csv_text: str, summary_text: str) -> dict[tuple[int, int], str]:
    """Failing cells of one sweep pass, each with the first reason found."""
    (name1, values1), (name2, values2) = w.axes()
    cells = [(i, j) for i in range(len(values1)) for j in range(len(values2))]
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != SWEEP_HEADER or len(rows) != len(cells) + 1:
        return {cell: "malformed sweep table" for cell in cells}

    failed: dict[tuple[int, int], str] = {}
    conc: dict[tuple[int, int], float] = {}
    for (i, j), row in zip(cells, rows[1:]):
        try:
            a1, v1, a2, v2, c, n, res = row[0], float(row[1]), row[2], float(row[3]), *map(float, row[4:])
        except ValueError:
            failed[(i, j)] = "unparsable row"
            continue
        conc[(i, j)] = c
        if (a1, a2) != (name1, name2) or not (_close(v1, values1[i], AXIS_TOL) and _close(v2, values2[j], AXIS_TOL)):
            failed[(i, j)] = "cell out of grid order"
        elif not 0.0 <= res <= GATE_TOL:
            failed[(i, j)] = f"trace residual {res:.3e}"
        elif not 0.0 <= c <= 1.0:
            failed[(i, j)] = f"concurrence {c!r} outside [0, 1]"
        elif not -GATE_TOL <= n <= w.cutoff + GATE_TOL:
            failed[(i, j)] = f"mean photon number {n!r} outside [0, cutoff]"
        elif (i, j) in refs:
            ref_c, ref_n = refs[(i, j)]
            if not _close(c, ref_c, CONCURRENCE_TOL):
                failed[(i, j)] = f"concurrence {c!r} vs oracle {ref_c!r}"
            elif not _close(n, ref_n, PHOTON_TOL * max(1.0, abs(ref_n))):
                failed[(i, j)] = f"mean photon number {n!r} vs oracle {ref_n!r}"

    summary = list(csv.reader(io.StringIO(summary_text)))
    if not summary or summary[0] != SUMMARY_HEADER or len(summary) != len(values1) + 1:
        summary = [SUMMARY_HEADER] + [[]] * len(values1)
    for i, row in enumerate(summary[1:]):
        reason = _summary_mismatch(row, values1[i], name2, values2, [conc.get((i, j)) for j in range(len(values2))])
        if reason:
            for j in range(len(values2)):
                failed.setdefault((i, j), reason)
    return failed


def _summary_mismatch(row, fixed, name2, values2, series) -> str | None:
    """The resonance summary row recomputed from the table's own row."""
    if len(row) != len(SUMMARY_HEADER) or None in series:
        return "malformed summary row"
    k = int(np.argmax(series))
    peak = series[k]
    try:
        if not _close(float(row[0]), fixed, AXIS_TOL) or float(row[2]) != peak:
            return "summary maximum disagrees with the table"
        if peak <= 0.0:
            return None if row[1:] == ["none", row[2], "false", ""] else "summary of an all-zero row"
        argmax, interior = values2[k], 0 < k < len(values2) - 1
        if not _close(float(row[1]), argmax, AXIS_TOL) or row[3] != ("true" if interior else "false"):
            return "summary argmax disagrees with the table"
        product_ok = row[4] == "" if name2 == "time" else _close(float(row[4]), fixed * argmax, AXIS_TOL * 10)
        return None if product_ok else "summary product disagrees with the table"
    except ValueError:
        return "unparsable summary row"


def check_steady(w: Workload, ref: np.ndarray, text: str) -> str | None:
    """Reason the steady-state output is wrong, or None."""
    try:
        fields = dict(line.split(",", 1) for line in text.splitlines()[1:])
        atoms = np.array([[float(fields[f"rho_atoms_re_{i}_{j}"]) + 1j * float(fields[f"rho_atoms_im_{i}_{j}"])
                           for j in range(4)] for i in range(4)])
        photons = np.array([float(fields[f"photon_{k}"]) for k in range(w.cutoff + 1)])
        conc = float(fields["concurrence"])
        residual = float(fields["liouvillian_residual"])
    except (KeyError, ValueError):
        return "malformed steady-state output"
    if not (np.isfinite(atoms).all() and np.isfinite(photons).all() and math.isfinite(residual)):
        return "non-finite value"
    if not 0.0 <= residual <= GATE_TOL:
        return f"steady residual {residual:.3e}"
    if abs(np.trace(atoms) - 1.0) > GATE_TOL or abs(photons.sum() - 1.0) > GATE_TOL:
        return "trace residual above the gate"
    if np.abs(atoms - atoms.conj().T).max() > AXIS_TOL:
        return "reduced atoms not Hermitian"
    if np.linalg.eigvalsh(0.5 * (atoms + atoms.conj().T))[0] < -GATE_TOL or photons.min() < -GATE_TOL:
        return "negative eigenvalue below the gate"
    if not 0.0 <= conc <= 1.0:
        return f"concurrence {conc!r} outside [0, 1]"
    if np.abs(atoms - oracle.reduced_atoms(ref)).max() > STEADY_TOL:
        return "reduced atoms disagree with the oracle null vector"
    if np.abs(photons - oracle.photon_distribution(ref)).max() > STEADY_TOL:
        return "photon distribution disagrees with the oracle null vector"
    if not _close(conc, oracle.concurrence(oracle.reduced_atoms(ref)), CONCURRENCE_TOL):
        return "concurrence disagrees with the oracle"
    return None
