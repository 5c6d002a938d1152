"""Command-line interface.

Subcommands:

* ``sweep CONFIG``  run the sweep described by a YAML config and write
  CSV (default) or line-delimited JSON.
* ``point CONFIG``  evaluate a single parameter point and print a
  human-readable report.  The point is a one-point sweep over every
  observable block; the report formats its row (whose sector ``v``,
  not emitted by ``sweep``, gives the populations) and the dressed
  modes that ``diagonalize`` gives for its system parameters.
* ``verify``        run the analytic-limit verification battery.

``sweep --out`` writes over an existing file in place and then cuts it to
length: truncating it to zero first makes ext4 flush it when it is closed.

Exit codes: 0 success, 1 validation/config error (or a failed
verification), 2 solver failure in point mode.

The argument parser is built once, when this module is imported, and
``main`` only parses with it: ``main`` may be called any number of times
in one process, and each call starts from the parser's defaults.
"""
from __future__ import annotations

import argparse
import os
import stat
import sys
from dataclasses import fields

from .model import BathParams, SystemParams, diagonalize
from .sweep import (
    ConfigError,
    SweepSpec,
    emit,
    load_config,
    run_sweep,
    sweep_spec_from_config,
)
from .verify import run_verification

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermijunction",
        description="Steady-state transport, correlations and tunneling "
        "metrology for a two-site fermionic junction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep from a config file")
    p_sweep.add_argument("config", help="YAML sweep configuration")
    p_sweep.add_argument("--out", help="output path (default: stdout)")
    p_sweep.add_argument(
        "--format", choices=("csv", "jsonl"), default="csv", help="output format"
    )

    p_point = sub.add_parser("point", help="evaluate one parameter point")
    p_point.add_argument("config", help="YAML configuration (system/baths sections)")

    sub.add_parser("verify", help="run the analytic-limit verification suite")
    return parser


_PARSER = _build_parser()


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    spec = sweep_spec_from_config(cfg)
    result = run_sweep(spec)
    payload = emit(result, fmt=args.format)
    if args.out:
        with open(args.out, "wb",
                  opener=lambda path, flags: os.open(path, flags & ~os.O_TRUNC, 0o666)) as fh:
            fh.write(payload)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # a pipe or device is not cut
                fh.truncate()
    else:
        sys.stdout.buffer.write(payload)
    return 0


def _cmd_point(args: argparse.Namespace) -> int:
    cfg = sweep_spec_from_config(load_config(args.config))
    row = run_sweep(SweepSpec(fixed=cfg.fixed)).rows[0]
    flags = row["flags"]
    if flags.startswith("params:"):
        raise ConfigError(flags.removeprefix("params:"))
    if flags.startswith("solver:"):
        print(f"solver failure: {flags.split(':', 2)[2]}", file=sys.stderr)
        return 2
    v = row["v"]
    # a flag left on a solved point is qfi: or measure:, then <ErrorType>:<message>
    unavailable = f"unavailable: {flags.split(':', 2)[-1]}"
    basis = diagonalize(SystemParams(**{f.name: row[f.name] for f in fields(SystemParams)}))
    out = ["parameters"]
    for group in (SystemParams, BathParams):
        out.append("  " + " ".join(f"{f.name}={row[f.name]:.12g}" for f in fields(group)))
    out.append("dressed modes")
    out.append(
        f"  omega_p1={basis.omega_p1:.12g} omega_p2={basis.omega_p2:.12g} "
        f"cos_theta={basis.cos_theta:.12g}"
    )
    out.append("steady state")
    diag = ", ".join(f"{p:.12g}" for p in v[:4])
    out.append(f"  populations: {diag}")
    measured = "qmi" in row
    if measured:
        out.append(f"  coherence |rho23| = {row['coherence']:.12g}")
    out.append(f"  residual = {row['residual']:.3e}")
    out.append("correlations")
    out.append(
        f"  linear_entropy={row['linear_entropy']:.12g} concurrence={row['concurrence']:.12g}\n"
        f"  qmi={row['qmi']:.12g} classical={row['classical_corr']:.12g} "
        f"discord={row['discord']:.12g}" if measured else f"  correlations {unavailable}"
    )
    out.append("metrology")
    out.append(
        f"  qfi_total={row['qfi_total']:.12g} f_e={row['qfi_fe']:.12g} f_n={row['qfi_fn']:.12g}"
        if "qfi_total" in row else f"  qfi {unavailable}"
    )
    out.append("transport")
    out.append(
        f"  I1={row['current_n1']:.12g} I2={row['current_n2']:.12g} "
        f"J1={row['current_e1']:.12g} J2={row['current_e2']:.12g}"
    )
    regime = "validated regime" if row["epr_regime_ok"] else "outside validated regime"
    out.append(f"  entropy production = {row['epr']:.12g} ({regime})")
    print("\n".join(out))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "point":
            return _cmd_point(args)
        return 0 if run_verification() else 1
    except (ConfigError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
