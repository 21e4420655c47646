"""Command-line entry point.

Subcommands: sweep (seeded experiment grid to CSV), fit (rate models on
a sweep CSV), audit (empirical epsilon estimate with a negative
control), oracles (hard-instance check battery), complexity (sample
size calculator). Each subcommand is offered only the options it reads,
so argparse rejects any other. Exit codes: 0 success, 1 a suite ran and
failed, 2 configuration or input error.
"""

from __future__ import annotations

import argparse
import sys
import typing

from .bench import (
    coerce_mapping,
    fit_rate,
    load_config,
    read_rows_csv,
    rows_to_csv,
    run_audit,
    run_oracles,
    run_sweep,
    write_rows_csv,
)
from .interpolation import ScheduleInfeasibleError, sample_complexity
from .mechanisms import InconclusiveAuditError, RngStream
from .problems import PrivacyBudget

_AUDIT_HINTS = typing.get_type_hints(run_audit)
_AUDIT_KEYS = {key: _AUDIT_HINTS[key] for key in ("eps", "n", "trials", "threshold")}
_COMPLEXITY_DEFAULTS = {"alpha": 0.1, "rho": 2.0, "d": 1, "eps": 1.0, "delta": 0.0}


def _parse_set(pairs: list[str]) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--set expects KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def _emit(text: str, out_path: str | None) -> None:
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config, _parse_set(args.overrides))
    rows = run_sweep(cfg, seed_base=args.seed_base)
    if args.out is not None:
        write_rows_csv(rows, args.out)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(rows_to_csv(rows))
    return 0


def _cmd_fit(args) -> int:
    linear, logn = fit_rate(read_rows_csv(args.csv))
    lines = [
        f"{fit.model} slope={fit.slope!r} intercept={fit.intercept!r} "
        f"r_squared={fit.r_squared!r}"
        for fit in (linear, logn)
    ]
    winner = linear if linear.r_squared >= logn.r_squared else logn
    lines.append(f"preferred {winner.model}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _audit_line(tag: str, outcome) -> str:
    status = "ok" if outcome.passed else "FAIL"
    return (
        f"{status} {tag} eps_hat={outcome.epsilon_hat!r} "
        f"threshold={outcome.threshold!r} trials={outcome.trials} "
        f"retried={int(outcome.retried)}"
    )


def _cmd_audit(args) -> int:
    params = coerce_mapping(_parse_set(args.overrides), _AUDIT_KEYS)
    calibrated = run_audit(
        **params, control=False, rng=RngStream(args.seed_base, stream=0)
    )
    control = run_audit(
        **params, control=True, rng=RngStream(args.seed_base, stream=100)
    )
    lines = [_audit_line("audit-calibrated", calibrated), _audit_line("audit-control", control)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if calibrated.passed and control.passed else 1


def _cmd_oracles(args) -> int:
    lines = run_oracles(seed=args.seed_base)
    text = []
    for line in lines:
        status = "ok" if line.passed else "FAIL"
        text.append(
            f"{status} {line.name} measured={line.measured!r} bound={line.bound!r}"
            + (f" ({line.detail})" if line.detail else "")
        )
    _emit("\n".join(text) + "\n", args.out)
    return 0 if all(line.passed for line in lines) else 1


def _cmd_complexity(args) -> int:
    types = {key: type(value) for key, value in _COMPLEXITY_DEFAULTS.items()}
    params = {**_COMPLEXITY_DEFAULTS, **coerce_mapping(_parse_set(args.overrides), types)}
    samples = sample_complexity(
        params["alpha"], params["rho"], params["d"],
        PrivacyBudget(params["eps"], params["delta"]),
    )
    lines = [f"{key}={value!r}" for key, value in params.items()]
    lines.append(f"samples={samples!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_ARGUMENTS = {
    "csv": dict(metavar="CSV", help="CSV produced by sweep"),
    "--config": dict(metavar="PATH", help="key=value config file"),
    "--out": dict(metavar="PATH", help="write output here instead of stdout"),
    "--seed-base": dict(type=int, default=0, metavar="U64",
                        help="base seed for all random streams"),
    "--set": dict(dest="overrides", action="append", default=[], metavar="KEY=VALUE",
                  help="override a config key (repeatable)"),
}

# subcommand -> (handler, the arguments it reads, help)
_COMMANDS = {
    "sweep": (_cmd_sweep, ("--config", "--out", "--seed-base", "--set"),
              "run the configured (n, seed) grid and emit CSV"),
    "fit": (_cmd_fit, ("csv", "--out"), "fit both rate models to a sweep CSV"),
    "audit": (_cmd_audit, ("--out", "--seed-base", "--set"),
              "empirical epsilon estimate plus miscalibrated control"),
    "oracles": (_cmd_oracles, ("--out", "--seed-base"),
                "run the hard-instance oracle battery"),
    "complexity": (_cmd_complexity, ("--out", "--set"),
                   "sample count for target excess alpha under rho-growth"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpsco",
        description="Private convex optimization benchmarks: sweeps, rate fits, "
                    "epsilon audits, and hard-instance oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, arguments, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        for arg in arguments:
            cmd.add_argument(arg, **_ARGUMENTS[arg])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ScheduleInfeasibleError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        print(
            f"hint: retry with constant_scale <= {exc.feasible_scale!r} "
            "or set T and m explicitly",
            file=sys.stderr,
        )
        return 2
    except InconclusiveAuditError as exc:
        print(f"FAIL audit inconclusive: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
