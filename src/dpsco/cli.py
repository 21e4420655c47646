"""Command-line entry point.

Subcommands: sweep (seeded experiment grid to CSV), fit (rate models on
a sweep CSV), audit (empirical epsilon estimate with a negative
control), oracles (hard-instance check battery), complexity (sample
size calculator). Exit codes: 0 success, 1 a suite ran and failed,
2 configuration or input error.
"""

from __future__ import annotations

import argparse
import sys

from .bench import (
    DegenerateFitError,
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

_AUDIT_KEYS = {"eps": float, "n": int, "trials": int, "threshold": float}
_COMPLEXITY_KEYS = {"alpha": float, "rho": float, "d": int, "eps": float, "delta": float}


def _parse_set(pairs: list[str]) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--set expects KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def _coerce(overrides: dict[str, str], allowed: dict[str, type]) -> dict:
    out = {}
    for key, raw in overrides.items():
        if key not in allowed:
            raise ValueError(f"unknown key {key!r}; valid keys: {sorted(allowed)}")
        try:
            out[key] = allowed[key](raw)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from exc
    return out


def _emit(text: str, out_path: str | None) -> None:
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_sweep(args, overrides: dict[str, str]) -> int:
    cfg = load_config(args.config, overrides)
    rows = run_sweep(cfg, seed_base=args.seed_base)
    out = args.out if args.out is not None else cfg.out
    if out is not None:
        write_rows_csv(rows, out)
        print(f"wrote {len(rows)} rows to {out}")
    else:
        sys.stdout.write(rows_to_csv(rows))
    return 0


def _cmd_fit(args, overrides: dict[str, str]) -> int:
    if overrides:
        raise ValueError("fit takes no --set overrides; pass the CSV path")
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


def _cmd_audit(args, overrides: dict[str, str]) -> int:
    params = _coerce(overrides, _AUDIT_KEYS)
    calibrated = run_audit(
        **params, control=False, rng=RngStream(args.seed_base, stream=0)
    )
    control = run_audit(
        **params, control=True, rng=RngStream(args.seed_base, stream=100)
    )
    lines = [_audit_line("audit-calibrated", calibrated), _audit_line("audit-control", control)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if calibrated.passed and control.passed else 1


def _cmd_oracles(args, overrides: dict[str, str]) -> int:
    if overrides:
        raise ValueError("oracles takes no --set overrides")
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


def _cmd_complexity(args, overrides: dict[str, str]) -> int:
    params = {"alpha": 0.1, "rho": 2.0, "d": 1, "eps": 1.0, "delta": 0.0}
    params.update(_coerce(overrides, _COMPLEXITY_KEYS))
    samples = sample_complexity(
        params["alpha"], params["rho"], params["d"],
        PrivacyBudget(params["eps"], params["delta"]),
    )
    lines = [f"{key}={params[key]!r}" for key in ("alpha", "rho", "d", "eps", "delta")]
    lines.append(f"samples={samples!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key=value config file")
    common.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    common.add_argument("--seed-base", type=int, default=0, metavar="U64",
                        help="base seed for all random streams")
    common.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key (repeatable)")
    parser = argparse.ArgumentParser(
        prog="dpsco",
        description="Private convex optimization benchmarks: sweeps, rate fits, "
                    "epsilon audits, and hard-instance oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("sweep", parents=[common],
                   help="run the configured (n, seed) grid and emit CSV")
    fit_p = sub.add_parser("fit", parents=[common],
                           help="fit both rate models to a sweep CSV")
    fit_p.add_argument("csv", metavar="CSV", help="CSV produced by sweep")
    sub.add_parser("audit", parents=[common],
                   help="empirical epsilon estimate plus miscalibrated control")
    sub.add_parser("oracles", parents=[common],
                   help="run the hard-instance oracle battery")
    sub.add_parser("complexity", parents=[common],
                   help="sample count for target excess alpha under rho-growth")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = _parse_set(args.overrides)
        if args.command == "sweep":
            return _cmd_sweep(args, overrides)
        if args.command == "fit":
            return _cmd_fit(args, overrides)
        if args.command == "audit":
            return _cmd_audit(args, overrides)
        if args.command == "oracles":
            return _cmd_oracles(args, overrides)
        return _cmd_complexity(args, overrides)
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
