"""Command-line interface.

Subcommands:

* ``sweep CONFIG``  run the sweep described by a YAML config and write
  CSV (default) or line-delimited JSON.
* ``point CONFIG``  evaluate a single parameter point and print a
  human-readable report.
* ``verify``        run the analytic-limit verification battery.

Exit codes: 0 success, 1 validation/config error (or a failed
verification), 2 solver failure in point mode.
"""
from __future__ import annotations

import argparse
import sys

from .liouvillian import SteadyStateError, solve_ness
from .metrology import QfiStepError, RankChangeError, qfi_spectral
from .observables import (
    DiscordOptimizationError,
    coherence,
    concurrence,
    discord,
    linear_entropy,
)
from .sweep import (
    ConfigError,
    emit,
    load_config,
    point_from_config,
    run_sweep,
    sweep_spec_from_config,
)
from .thermo import transport_report
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


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    spec = sweep_spec_from_config(cfg)
    result = run_sweep(spec)
    payload = emit(result, fmt=args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
    return 0


def _cmd_point(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    params, baths = point_from_config(cfg)
    try:
        result = solve_ness(params, baths)
    except SteadyStateError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 2
    rho = result.rho
    basis = result.basis
    out = []
    out.append("parameters")
    out.append(
        f"  omega1={params.omega1:.12g} omega2={params.omega2:.12g} "
        f"delta={params.delta:.12g} gamma1={params.gamma1:.12g} "
        f"gamma2={params.gamma2:.12g}"
    )
    out.append(
        f"  t1={baths.t1:.12g} t2={baths.t2:.12g} "
        f"mu1={baths.mu1:.12g} mu2={baths.mu2:.12g}"
    )
    out.append("dressed modes")
    out.append(
        f"  omega_p1={basis.omega_p1:.12g} omega_p2={basis.omega_p2:.12g} "
        f"cos_theta={basis.cos_theta:.12g}"
    )
    out.append("steady state")
    diag = ", ".join(f"{rho[i, i].real:.12g}" for i in range(4))
    out.append(f"  populations: {diag}")
    out.append(f"  coherence |rho23| = {coherence(rho):.12g}")
    out.append(f"  residual = {result.residual:.3e}")
    out.append("correlations")
    out.append(
        f"  linear_entropy={linear_entropy(rho):.12g} "
        f"concurrence={concurrence(rho):.12g}"
    )
    try:
        d = discord(rho)
        out.append(
            f"  qmi={d.qmi:.12g} classical={d.classical_corr:.12g} "
            f"discord={d.discord:.12g}"
        )
    except DiscordOptimizationError as err:
        out.append(f"  discord unavailable: {err}")
    out.append("metrology")
    try:
        q = qfi_spectral(params, baths, center=result)
        out.append(
            f"  qfi_total={q.f_total:.12g} f_e={q.f_e:.12g} "
            f"f_n={q.f_n:.12g} (step {q.step:.3e})"
        )
    except (QfiStepError, RankChangeError, SteadyStateError) as err:
        out.append(f"  qfi unavailable: {err}")
    rep = transport_report(result, params, baths)
    out.append("transport")
    out.append(
        f"  I1={rep.i1:.12g} I2={rep.i2:.12g} J1={rep.j1:.12g} J2={rep.j2:.12g}"
    )
    regime = "validated regime" if rep.epr_regime_ok else "outside validated regime"
    out.append(f"  entropy production = {rep.epr:.12g} ({regime})")
    print("\n".join(out))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
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
