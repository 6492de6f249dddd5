"""Command-line interface: evolve, steady and sweep subcommands.

Configuration is a plain key=value document ('#' comments allowed). The keys
are the fields of SystemConfig and IntegratorSettings plus `out` and `format`;
any other key is an error, so a typo like "gama" is not a silently ignored
default, and so is a key the command does not read (`_UNREAD_KEYS`);
`--out`, `--format` and `--cutoff` override their keys. Output is
CSV, every file written by `_write_table`, or JSON, with deterministic
formatting: repeated runs on the same platform produce byte-identical files.
A sweep runs in this process unless `--workers` asks for a process pool.

Exit codes: 0 success, 2 configuration error, 3 integrator failure,
4 degenerate steady state.
"""

from __future__ import annotations

import json
import math
import sys
from argparse import ArgumentParser
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .dynamics import (
    IntegratorError,
    IntegratorSettings,
    RankDeficientError,
    steady_state,
    steady_state_residual,
)
from .entanglement import concurrence
from .model import (
    ATOM_A,
    ATOM_B,
    CAVITY,
    SystemConfig,
    build_cavity_model,
    build_model,
)
from .qops import partial_trace
from .sweep import (
    PRESETS,
    SweepAxis,
    SweepSpec,
    preset_spec,
    product_spread,
    resonance_summary,
    run_sweep,
)

EVOLVE_HEADER = "t,concurrence,p_ee_a,p_ee_b,mean_photon,mode_b_pop,trace_residual,margin"
SWEEP_HEADER = "axis1_name,axis1_value,axis2_name,axis2_value,concurrence,mean_photon,trace_residual"
SUMMARY_HEADER = "fixed_value,argmax_value,max_concurrence,interior,product_at_argmax"
STEADY_HEADER = "field,value"

# Every configuration key and the type its value is parsed as: the settings
# fields take the type of their default.
_KEY_TYPES = {f.name: type(f.default) for cls in (SystemConfig, IntegratorSettings) for f in fields(cls)}
_KEY_TYPES.update(out=str, format=str)
# The keys each command does not read: `steady` takes no integrator setting and
# `sweep` only dt, its times coming from its axes. Setting one is an error.
_UNREAD_KEYS = {"evolve": (), "steady": ("dt", "t_max", "record_stride"), "sweep": ("t_max", "record_stride")}
# The value an unread integrator key takes, so that it checks nothing against dt:
# t_max = 0 asks for no step and record_stride = 1 for one step a record.
_UNREAD_VALUES = {"t_max": 0.0, "record_stride": 1}


class ConfigError(ValueError):
    """Malformed or out-of-domain configuration input."""


@dataclass(frozen=True)
class RunConfig:
    system: SystemConfig
    integrator: IntegratorSettings
    out: str | None = None
    fmt: str = "csv"


def _parse_assignment(text: str, where: str) -> tuple[str, object]:
    """One 'key = value' (the caller checks for the '=') -> (key, typed value); `where` prefixes errors."""
    key, raw = (part.strip() for part in text.split("=", 1))
    kind = _KEY_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"{where}: unknown key {key!r}")
    if key == "format" and raw not in ("csv", "json"):
        raise ConfigError(f"{where}: format must be csv or json, got {raw!r}")
    try:
        return key, kind(raw)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise ConfigError(f"{where}: value for {key} is not {noun}: {raw!r}") from None


def _parse_document(text: str) -> dict[str, object]:
    """key=value lines -> {key: typed value}, a later line winning."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line.strip()!r}")
        key, value = _parse_assignment(stripped, f"line {lineno}")
        values[key] = value
    return values


def _build_run_config(values: dict[str, object]) -> RunConfig:
    def settings(cls):
        return cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values})

    try:
        system, integrator = settings(SystemConfig), settings(IntegratorSettings)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    return RunConfig(system, integrator, out=values.get("out"), fmt=values.get("format", "csv"))


def parse_config(text: str) -> RunConfig:
    """Typed run configuration from a key=value document, defaults applied."""
    return _build_run_config(_parse_document(text))


def _fmt(x: float) -> str:
    """12 significant digits, deterministic."""
    return f"{x:.12g}"


def _cell(column: str, value) -> str:
    """One CSV cell: None empty, a bool true/false, a string as is, a number `_fmt`."""
    if value is None:
        return "none" if column == "argmax_value" else ""  # the summary's token for "no maximum"
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else _fmt(value)


def _write_table(path: str, fmt: str, header: str, records: list[dict], key: str = "records") -> None:
    """The `header` columns of each record, in its order: as CSV, or as the JSON object {key: rows}."""
    columns = header.split(",")
    rows = [{col: rec[col] for col in columns} for rec in records]
    if fmt == "csv":
        lines = [header] + [",".join(_cell(col, row[col]) for col in columns) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({key: rows}, indent=2, allow_nan=False) + "\n"
    _write_text(path, text)


def _write_text(path: str, text: str) -> None:
    """Write an output file; a path that cannot be written is a configuration error."""
    try:
        Path(path).write_text(text)
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err}") from None


def _report_top_fock(n_thermal: float, cutoff: int, top_fock_pop: float) -> None:
    """The truncation note on stderr when the cavity is thermally driven: the largest population of |N>."""
    if n_thermal > 0:
        print(
            f"note: largest population of the top Fock state (n_T={n_thermal:g}, N={cutoff}): {top_fock_pop:.3e}",
            file=sys.stderr,
        )


def cmd_evolve(run_cfg: RunConfig) -> int:
    cfg, settings = run_cfg.system, run_cfg.integrator
    result = run_sweep(SweepSpec(cfg, SweepAxis("time", settings.times)), settings)
    records = [{"t": cell.axis1_value, **vars(cell)} for (cell,) in result.cells]
    _write_table(run_cfg.out or f"evolve.{run_cfg.fmt}", run_cfg.fmt, EVOLVE_HEADER, records)
    _report_top_fock(cfg.n_thermal, cfg.cutoff, max(rec["top_fock_pop"] for rec in records))
    return 0


def cmd_steady(run_cfg: RunConfig, cavity_only: bool = False) -> int:
    cfg = run_cfg.system
    model = build_cavity_model(cfg) if cavity_only else build_model(cfg)
    rho = steady_state(model)
    residual = steady_state_residual(model, rho)

    if cavity_only:
        photons, atoms, conc = np.real(np.diag(rho)), None, None
    else:
        photons = np.real(np.diag(partial_trace(rho, model.layout, (CAVITY,))))
        atoms = partial_trace(rho, model.layout, (ATOM_A, ATOM_B))
        conc = concurrence(atoms).value

    out = run_cfg.out or f"steady.{run_cfg.fmt}"
    if run_cfg.fmt == "csv":
        values = {}
        if atoms is not None:
            for part, plane in (("re", atoms.real), ("im", atoms.imag)):
                values.update({f"rho_atoms_{part}_{i}_{j}": plane[i, j] for i in range(4) for j in range(4)})
            values["concurrence"] = conc
        values.update({f"photon_{k}": p for k, p in enumerate(photons)})
        values["liouvillian_residual"] = residual
        _write_table(out, "csv", STEADY_HEADER, [{"field": k, "value": v} for k, v in values.items()])
    else:
        payload = {
            "reduced_atoms_re": None if atoms is None else [[float(x) for x in row] for row in atoms.real],
            "reduced_atoms_im": None if atoms is None else [[float(x) for x in row] for row in atoms.imag],
            "concurrence": conc,
            "photon_distribution": [float(p) for p in photons],
            "liouvillian_residual": residual,
        }
        _write_text(out, json.dumps(payload, indent=2, allow_nan=False) + "\n")
    _report_top_fock(cfg.n_thermal, cfg.cutoff, photons[-1])
    return 0


def cmd_sweep(run_cfg: RunConfig, spec: SweepSpec, workers: int = 1) -> int:
    result = run_sweep(spec, run_cfg.integrator, workers=workers)
    a1, a2 = spec.axis1, spec.axis2
    names = {"axis1_name": a1.parameter, "axis2_name": a2.parameter if a2 is not None else None}
    records = [{**names, **vars(cell)} for row in result.cells for cell in row]
    out = run_cfg.out or f"sweep.{run_cfg.fmt}"
    _write_table(out, run_cfg.fmt, SWEEP_HEADER, records)

    if a2 is not None:
        rows = resonance_summary(result)
        summary = [vars(r) for r in rows]
        _write_table(f"{out}.summary.{run_cfg.fmt}", run_cfg.fmt, SUMMARY_HEADER, summary, key="rows")
        spread = product_spread(rows)
        if spread is not None:
            mean, rel = spread
            print(
                f"note: axis1*axis2 at the per-row concurrence maximum: mean {mean:.6g}, "
                f"relative spread {rel:.3g}",
                file=sys.stderr,
            )

    noise = [axis for axis in (a1, a2) if axis is not None and axis.parameter == "n_thermal"]
    n_thermal = max(noise[0].values) if noise else spec.base.n_thermal
    _report_top_fock(n_thermal, spec.base.cutoff, max(rec["top_fock_pop"] for rec in records))
    return 0


def _parse_axis(raw: str) -> SweepAxis:
    parts = raw.split(":")
    if len(parts) != 4:
        raise ConfigError(f"axis must be PARAM:LO:HI:N, got {raw!r}")
    name, lo, hi, n = parts
    try:
        lo_f, hi_f, n_i = float(lo), float(hi), int(n)
    except ValueError:
        raise ConfigError(f"axis bounds/count malformed in {raw!r}") from None
    if n_i < 1:
        raise ConfigError(f"axis point count must be >= 1, got {n_i}")
    if not (math.isfinite(lo_f) and math.isfinite(hi_f)):
        raise ConfigError(f"axis {name} bounds must be finite, got {raw!r}")
    return SweepAxis(name, tuple(np.linspace(lo_f, hi_f, n_i)))


def _sweep_spec_from_args(run_cfg: RunConfig, args) -> SweepSpec:
    if not (args.preset or args.axis1):
        raise ConfigError("sweep needs --preset or --axis1")
    if args.preset and (args.axis1 or args.axis2 or args.at_time is not None):
        raise ConfigError(f"--preset {args.preset} sets the axes and evaluation time; "
                          "drop --axis1, --axis2 and --at-time")
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    if args.points is not None and not args.preset:
        raise ConfigError("--points sizes a preset grid; without --preset give the count in PARAM:LO:HI:N")
    if args.points is not None and args.points < 1:
        raise ConfigError(f"--points must be at least 1, got {args.points}")
    try:
        if args.preset:
            points = {} if args.points is None else {"points": args.points}
            return preset_spec(args.preset, run_cfg.system, **points)
        axis1 = _parse_axis(args.axis1)
        axis2 = _parse_axis(args.axis2) if args.axis2 else None
        return SweepSpec(base=run_cfg.system, axis1=axis1, axis2=axis2, evaluation_time=args.at_time)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="noisycav",
        description="Two atoms in a thermally driven leaky cavity: trajectories, "
        "steady states and concurrence sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("evolve", "time-evolve from |g,g,0> and tabulate concurrence and populations"),
        ("steady", "solve for the stationary state"),
        ("sweep", "concurrence over a one- or two-parameter grid"),
    ):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", help="key=value configuration file")
        sp.add_argument("--out", help="output path (default <command>.<format>)")
        sp.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
        sp.add_argument("--cutoff", type=int, help="override the Fock cutoff")
        sp.add_argument("--set", dest="assignments", action="append", default=[], metavar="KEY=VALUE",
                        help="override one configuration key (repeatable)")
        if name == "steady":
            sp.add_argument("--cavity-only", action="store_true",
                            help="drop the atoms: thermally damped cavity mode alone")
        if name == "sweep":
            sp.add_argument("--preset", choices=tuple(PRESETS), help="figure-reproduction grid")
            sp.add_argument("--points", type=int, help="grid points per preset axis (only with --preset)")
            sp.add_argument("--axis1", metavar="PARAM:LO:HI:N", help="first sweep axis")
            sp.add_argument("--axis2", metavar="PARAM:LO:HI:N", help="second sweep axis")
            sp.add_argument("--at-time", dest="at_time", type=float,
                            help="evaluation time when time is not an axis (default 1/(2g))")
            sp.add_argument("--workers", type=int, default=1,
                            help="parallel trajectory workers (at most one per trajectory; "
                            "pin BLAS to one thread when above 1)")
    return parser


def _load_run_config(args) -> RunConfig:
    values = {}
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as err:
            raise ConfigError(f"cannot read config file {args.config}: {err}") from None
        values.update(_parse_document(text))
    for raw in args.assignments:
        if "=" not in raw:
            raise ConfigError(f"--set expects KEY=VALUE, got {raw!r}")
        key, value = _parse_assignment(raw, "--set")
        values[key] = value
    for key, value in (("cutoff", args.cutoff), ("out", args.out or None), ("format", args.format)):
        if value is not None:
            values[key] = value
    unread = [key for key in _UNREAD_KEYS[args.command] if key in values]
    if unread:
        raise ConfigError(f"{args.command} does not read {', '.join(unread)}")
    values.update((key, _UNREAD_VALUES[key]) for key in _UNREAD_KEYS[args.command] if key in _UNREAD_VALUES)
    return _build_run_config(values)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        run_cfg = _load_run_config(args)
        if args.command == "evolve":
            return cmd_evolve(run_cfg)
        if args.command == "steady":
            return cmd_steady(run_cfg, cavity_only=args.cavity_only)
        spec = _sweep_spec_from_args(run_cfg, args)
        return cmd_sweep(run_cfg, spec, workers=args.workers)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except RankDeficientError as err:
        print(f"degenerate steady state: {err}", file=sys.stderr)
        return 4
    except IntegratorError as err:
        print(f"integrator failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
