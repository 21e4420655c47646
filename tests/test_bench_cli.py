"""Benchmark harness: config parsing, sweeps, rate fits, audit, CLI."""

import dataclasses
import hashlib
import importlib.metadata
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dpsco
from dpsco.bench import (
    CSV_COLUMNS,
    DegenerateFitError,
    ExperimentConfig,
    config_from_mapping,
    fit_rate,
    load_config,
    parse_config_text,
    read_rows_csv,
    rows_to_csv,
    run_audit,
    run_oracles,
    run_sweep,
    write_rows_csv,
)
from dpsco.cli import main
from dpsco.losses import FAMILIES
from dpsco.mechanisms import RngStream

README = Path(__file__).resolve().parents[1] / "README.md"

# ------------------------------------------------------------ configuration


def test_config_defaults_and_validation():
    cfg = ExperimentConfig()
    assert cfg.solver == "interpolation" and cfg.seeds == 20 and cfg.eps == 1.0
    bad = [
        dict(solver="gradient-descent"),
        dict(family="logistic"),
        dict(n_grid=()),
        dict(n_grid=(128, 64)),
        dict(n_grid=(64, 64)),
        dict(n_grid=(1,)),
        dict(seeds=0),
        dict(d=0),
        dict(eps=0.0),
        dict(delta=1.0),
        dict(H=0.0),
        dict(noise_std=-1.0),
        dict(margin=0.0),
        dict(mu=0.0),
        dict(beta=1.0),
        dict(T=0),
        dict(m=0),
        dict(inner_epochs=0),
        dict(constant_scale=0.0),
        dict(eta=0.0),
        dict(family="indicator-quadratic", xstar_offset=0.0),
        dict(radius=0.0),
        dict(family="smoothed-hinge-margin", radius=1.0),
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)
    # bool is an int subclass; each of these constructed before
    for name in ("seeds", "d", "T", "m", "inner_epochs"):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1, got True"):
            ExperimentConfig(solver="interpolation", **{name: True})


def test_parse_config_text():
    text = """
    # a comment
    solver = epoch-growth
    n_grid = 64, 128   # trailing comment
    seeds=3
    """
    mapping = parse_config_text(text)
    assert mapping == {"solver": "epoch-growth", "n_grid": "64, 128", "seeds": "3"}
    with pytest.raises(ValueError, match="key=value"):
        parse_config_text("just words\n")


def test_config_from_mapping():
    cfg = config_from_mapping(
        {"solver": "adaptive", "n_grid": "64,128", "beta": "none", "m": "8", "wall_clock": "yes"}
    )
    assert cfg.solver == "adaptive"
    assert cfg.n_grid == (64, 128)
    assert cfg.beta is None and cfg.m == 8 and cfg.wall_clock is True
    assert config_from_mapping({"T": "none"}).T is None
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_mapping({"stepsize": "1.0"})
    with pytest.raises(ValueError, match="unknown config key 'out'"):
        config_from_mapping({"out": "sweep.csv"})  # the output path is --out
    with pytest.raises(ValueError, match="needs a value"):
        config_from_mapping({"eps": "none"})
    with pytest.raises(ValueError, match="config key 'seeds'"):
        config_from_mapping({"seeds": "many"})
    with pytest.raises(ValueError, match="boolean"):
        config_from_mapping({"wall_clock": "maybe"})


def test_load_config_precedence(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("eps = 2.0\nd = 3\n", encoding="utf-8")
    cfg = load_config(str(path), {"d": "4"})
    assert cfg.eps == 2.0  # from the file
    assert cfg.d == 4  # override beats the file
    assert cfg.solver == "interpolation"  # default fills the rest
    assert load_config(None, None) == ExperimentConfig()


def test_readme_lists_every_config_key():
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"^Keys: (.*?)\. Unset", text, re.S | re.M).group(1)
    assert re.findall(r"`([^`]+)`", listed) == [f.name for f in dataclasses.fields(ExperimentConfig)]


# ------------------------------------------------------------------ sweeps


def test_sweep_rows_and_run_ids():
    cfg = ExperimentConfig(solver="localization-erm", n_grid=(64, 128), seeds=3)
    rows = run_sweep(cfg, seed_base=3)
    assert len(rows) == 2 * 3
    assert rows[0]["run_id"] == "localization-erm-quadratic-anchor-n64-d2-s0"
    assert [(r["n"], r["seed"]) for r in rows] == [
        (n, s) for n in (64, 128) for s in range(3)
    ]
    for row in rows:
        assert set(row) == set(CSV_COLUMNS)
        assert math.isfinite(row["excess_risk"]) and row["excess_risk"] >= 0.0


def test_sweep_deterministic_and_parallel_invariant():
    cfg = ExperimentConfig(solver="localization-erm", n_grid=(64, 128), seeds=3)
    first = rows_to_csv(run_sweep(cfg, seed_base=3))
    again = rows_to_csv(run_sweep(cfg, seed_base=3))
    assert first == again
    other_base = rows_to_csv(run_sweep(cfg, seed_base=4))
    assert other_base != first


def test_sweep_dispatches_every_solver_and_family():
    # every registered family must have a sweep builder
    combos = [
        ("epoch-growth", "quadratic-anchor", {"noise_std": 0.5, "radius": 1.0}),
        ("interpolation", "quadratic-anchor", {"m": 8}),
        ("interpolation", "indicator-quadratic", {"m": 8}),
        ("adaptive", "quadratic-anchor", {"m": 8}),
    ] + [("localization-erm", family, {}) for family in FAMILIES]
    for solver, family, extra in combos:
        cfg = ExperimentConfig(solver=solver, family=family, n_grid=(64,), seeds=1, **extra)
        row = run_sweep(cfg, seed_base=3)[0]
        assert row["solver"] == solver and row["family"] == family
        assert math.isfinite(row["excess_risk"]) and row["excess_risk"] >= 0.0
        assert row["final_D"] > 0 and row["final_L"] > 0


def test_manual_schedule_must_fit():
    cfg = ExperimentConfig(solver="interpolation", n_grid=(64,), seeds=1, T=2, m=48)
    with pytest.raises(ValueError, match="does not fit"):
        run_sweep(cfg, seed_base=0)


def test_csv_roundtrip(tmp_path):
    cfg = ExperimentConfig(solver="localization-erm", n_grid=(64,), seeds=2, wall_clock=True)
    rows = run_sweep(cfg, seed_base=1)
    text = rows_to_csv(rows)
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    path = tmp_path / "sweep.csv"
    write_rows_csv(rows, str(path))
    back = read_rows_csv(str(path))
    assert len(back) == len(rows)
    for orig, rt in zip(rows, back):
        assert rt["run_id"] == orig["run_id"]
        assert rt["n"] == orig["n"] and isinstance(rt["n"], int)
        assert rt["excess_risk"] == orig["excess_risk"]  # repr() round-trips floats
        assert rt["final_D"] == orig["final_D"]
        assert rt["wall_ms"] >= 0.0


# --------------------------------------------------------------- rate fits


def _rows(ns, fn, seeds=5):
    return [
        {"n": n, "excess_risk": fn(n) * (1.0 + 0.001 * s)} for n in ns for s in range(seeds)
    ]


def test_fit_rate_recovers_exponential_decay():
    linear, logn = fit_rate(_rows((100, 200, 300, 400, 500), lambda n: math.exp(-n / 100.0)))
    assert linear.model == "log-linear-in-n"
    assert linear.r_squared >= 0.999
    assert abs(linear.slope - (-0.01)) <= 1e-4
    assert linear.r_squared > logn.r_squared


def test_fit_rate_recovers_polynomial_decay():
    linear, logn = fit_rate(_rows((100, 200, 400, 800, 1600), lambda n: n**-2.0))
    assert logn.model == "log-linear-in-log-n"
    assert logn.r_squared >= 0.999
    assert abs(logn.slope - (-2.0)) <= 1e-3
    assert logn.r_squared > linear.r_squared


def test_fit_rate_flat_series_has_zero_slopes():
    linear, logn = fit_rate(_rows((100, 200, 300, 400), lambda n: 0.5, seeds=1))
    assert abs(linear.slope) <= 1e-12 and abs(logn.slope) <= 1e-12
    assert linear.r_squared == 1.0  # no variance left to explain


def test_fit_rate_degenerate_inputs():
    with pytest.raises(DegenerateFitError, match="4 distinct n"):
        fit_rate(_rows((100, 200, 300), lambda n: 1.0 / n))
    with pytest.raises(DegenerateFitError, match="non-positive"):
        fit_rate(_rows((100, 200, 300, 400), lambda n: 0.0, seeds=1))
    for bad in (math.inf, math.nan):
        with pytest.raises(DegenerateFitError, match=r"non-finite .* at n = \[300\]"):
            fit_rate(_rows((100, 200, 300, 400), lambda n: bad if n == 300 else 1.0 / n))
    for column in ("n", "excess_risk"):
        rows = [{k: v for k, v in row.items() if k != column}
                for row in _rows((100, 200, 300, 400), lambda n: 1.0 / n)]
        with pytest.raises(ValueError, match=f"no '{column}' column"):
            fit_rate(rows)


# -------------------------------------------------------------- audit runs


def test_audit_calibrated_mechanism_passes():
    outcome = run_audit(rng=RngStream(0, 0))
    assert outcome.epsilon_hat == 1.3533502054005366
    assert outcome.threshold == 1.5 and outcome.noise_scale == 0.01
    assert outcome.passed and not outcome.retried and not outcome.control


def test_audit_control_mechanism_is_caught():
    outcome = run_audit(control=True, rng=RngStream(0, 100))
    assert outcome.epsilon_hat == 2.772588722239781
    assert outcome.noise_scale == 0.005
    assert outcome.passed and outcome.control


def test_audit_retries_once_then_reports_failure():
    outcome = run_audit(threshold=0.5, rng=RngStream(0, 0))
    assert outcome.retried and not outcome.passed
    assert outcome.epsilon_hat == 1.1275998255413622  # fresh stream, still above


def test_audit_needs_a_stream_to_retry_on():
    with pytest.raises(ValueError, match="^need an RngStream, got Generator$"):
        run_audit(rng=np.random.default_rng(0))


# epsilon_hat bits of the perfbench audit workload's two ops at round seeds
# 0..9: calibrated on stream 0, control on stream 2; every op passes first time
AUDIT_PINS = [
    ("0x1.5a7528b83aed9p+0", "0x1.7f7427b73e391p+1"),
    ("0x1.31a4e7240c778p+0", "0x1.96ca77c922cf8p+1"),
    ("0x1.2388c71d70a2ep+0", "0x1.51cca16d7bba7p+1"),
    ("0x1.37f44f01ed929p+0", "0x1.51cca16d7bba7p+1"),
    ("0x1.2a6eb240c6efdp+0", "0x1.9c041f7ed8d33p+1"),
    ("0x1.286aa0fb0d577p+0", "0x1.62e42fefa39efp+1"),
    ("0x1.29ed9cb6269c4p+0", "0x1.312c5243674f4p+1"),
    ("0x1.2a63a453bb60cp+0", "0x1.78e360604b32cp+1"),
    ("0x1.39cfb00cedaf8p+0", "0x1.9157dfdd1b3f0p+1"),
    ("0x1.34378fcbda720p+0", "0x1.78e360604b32cp+1"),
]


@pytest.mark.parametrize("seed", range(len(AUDIT_PINS)))
def test_audit_on_the_benchmark_streams_is_pinned(seed):
    calibrated = run_audit(rng=RngStream(seed, 0))
    control = run_audit(control=True, rng=RngStream(seed, 2))
    assert (calibrated.epsilon_hat.hex(), control.epsilon_hat.hex()) == AUDIT_PINS[seed]
    for outcome in (calibrated, control):
        assert outcome.passed and not outcome.retried


# ----------------------------------------------------------- oracle battery


def test_oracle_battery_reference_run():
    lines = run_oracles(seed=0)
    assert len(lines) == 13
    assert all(line.passed for line in lines)
    names = [line.name for line in lines]
    assert len(set(names)) == len(names)
    for line in lines:
        assert isinstance(line.measured, float) and isinstance(line.bound, float)
    by_name = {line.name: line for line in lines}
    assert by_name["superefficiency-shift-lower"].measured == 0.01
    assert by_name["packing-count"].measured == 5.0
    assert by_name["certificate-noiseless-least-squares"].measured == 0.0


# --------------------------------------------------------------------- CLI


def test_cli_sweep_writes_deterministic_csv(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "solver = localization-erm\nn_grid = 64,128\nseeds = 2\n", encoding="utf-8"
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code = main(["sweep", "--config", str(cfg_path), "--out", str(out1), "--seed-base", "3"])
    assert code == 0
    assert "wrote 4 rows" in capsys.readouterr().out
    code = main(["sweep", "--config", str(cfg_path), "--out", str(out2), "--seed-base", "3"])
    assert code == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text(encoding="utf-8")
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert len(text.splitlines()) == 1 + 4


def test_cli_sweep_stdout_and_set_overrides(capsys):
    code = main(
        ["sweep", "--set", "solver=localization-erm", "--set", "n_grid=64",
         "--set", "seeds=1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert len(out.splitlines()) == 2


def test_cli_fit_on_sweep_output(tmp_path, capsys):
    cfg = ExperimentConfig(solver="localization-erm", n_grid=(64, 128, 256, 512), seeds=2)
    path = tmp_path / "sweep.csv"
    write_rows_csv(run_sweep(cfg, seed_base=1), str(path))
    code = main(["fit", str(path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "log-linear-in-n slope=" in out
    assert "log-linear-in-log-n slope=" in out
    assert "preferred log-linear-in-" in out


def test_cli_error_exit_codes(tmp_path, capsys):
    assert main(["fit", str(tmp_path / "missing.csv")]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["sweep", "--set", "stepsize=1.0"]) == 2
    assert "unknown" in capsys.readouterr().err
    # interpolation reads kappa from the instance; there is no kappa solver
    assert main(["sweep", "--set", "solver=kappa"]) == 2
    assert capsys.readouterr().err.startswith("config error: unknown solver 'kappa'")
    assert main(["sweep", "--set", "badpair"]) == 2
    assert "KEY=VALUE" in capsys.readouterr().err
    assert main(["complexity", "--set", "alpha=abc"]) == 2
    capsys.readouterr()
    no_risk = tmp_path / "no_risk.csv"
    no_risk.write_text("n,seed\n64,0\n128,0\n256,0\n512,0\n", encoding="utf-8")
    assert main(["fit", str(no_risk)]) == 2
    assert "no 'excess_risk' column" in capsys.readouterr().err
    inf_risk = tmp_path / "inf_risk.csv"
    inf_risk.write_text("n,excess_risk\n64,0.5\n128,inf\n256,0.1\n512,0.05\n",
                        encoding="utf-8")
    assert main(["fit", str(inf_risk)]) == 2
    assert "at n = [128]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--config", "audit.cfg"],
        ["complexity", "--config", "complexity.cfg"],
        ["fit", "--config", "fit.cfg", "sweep.csv"],
        ["oracles", "--config", "oracles.cfg"],
        ["fit", "--seed-base", "1", "sweep.csv"],
        ["complexity", "--seed-base", "1"],
        ["fit", "--set", "eps=0", "sweep.csv"],
        ["oracles", "--set", "eps=0"],
    ],
    ids=" ".join,
)
def test_cli_rejects_options_a_subcommand_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + argv[1] in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, reason",
    [
        # an infinite scale or mu is refused by the config, before any block size
        pytest.param("constant_scale=inf", "constant_scale must be a positive real, got inf",
                     id="constant_scale=inf"),
        pytest.param("constant_scale=1e308", "block-size rule gives a non-finite",
                     id="constant_scale=1e308"),
        pytest.param("mu=inf", "mu must be a positive real, got inf", id="mu=inf"),
    ],
)
def test_cli_non_finite_block_size_is_a_config_error(override, reason, capsys):
    assert main(["sweep", "--set", override]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {reason}")


@pytest.mark.parametrize(
    "override, reason",
    [
        pytest.param("n=0", "n must be", id="n=0-n"),
        pytest.param("eps=0", "eps must be", id="eps=0-eps"),
        pytest.param("eps=-1", "eps must be", id="eps=-1-eps"),
        pytest.param("threshold=nan", "threshold must be", id="threshold=nan-threshold"),
        pytest.param("n=1.5", "config key 'n': ", id="n=1.5-n"),
    ],
)
def test_cli_audit_rejects_bad_parameters_before_any_trial(override, reason, monkeypatch, capsys):
    def no_trials(*args, **kwargs):
        raise AssertionError("an audit trial ran")

    monkeypatch.setattr(dpsco.bench, "empirical_epsilon", no_trials)
    assert main(["audit", "--set", override]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {reason}")


def test_cli_infeasible_schedule_suggests_a_scale(capsys):
    code = main(
        ["sweep", "--set", "solver=interpolation", "--set", "n_grid=64",
         "--set", "seeds=1"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "constant_scale <=" in err


@pytest.mark.parametrize(
    "key, value, family",
    [
        ("eps", "inf", "quadratic-anchor"),
        ("eps", "nan", "quadratic-anchor"),
        ("H", "inf", "quadratic-anchor"),
        ("noise_std", "inf", "quadratic-anchor"),
        ("margin", "inf", "smoothed-hinge-margin"),
    ],
)
def test_cli_non_finite_config_value_is_rejected_before_any_generator(key, value, family, capsys):
    argv = ["sweep", "--set", "solver=localization-erm", "--set", f"family={family}",
            "--set", "n_grid=64", "--set", "seeds=1", "--set", f"{key}={value}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = capsys.readouterr().err
    rule = "nonnegative and finite" if key == "noise_std" else "a positive real"
    assert err.startswith(f"config error: {key} must be {rule}, got {value}")


@pytest.mark.parametrize(
    "solver, family, override",
    [
        ("localization-erm", "quadratic-anchor", "T=2"),
        ("localization-erm", "quadratic-anchor", "m=8"),
        ("localization-erm", "quadratic-anchor", "inner_epochs=2"),
        ("epoch-growth", "quadratic-anchor", "inner_epochs=2"),
        ("epoch-growth", "quadratic-anchor", "eta=0.1"),
        ("interpolation", "quadratic-anchor", "eta=0.1"),
        ("localization-erm", "indicator-quadratic", "noise_std=0.7"),
        ("localization-erm", "smoothed-hinge-margin", "noise_std=0.7"),
        ("localization-erm", "quadratic-anchor", "margin=0.5"),
        ("interpolation", "indicator-quadratic", "margin=0.5"),
        ("localization-erm", "smoothed-hinge-margin", "H=2.0"),
        ("epoch-growth", "smoothed-hinge-margin", "xstar_offset=0.25"),
        ("epoch-growth", "quadratic-anchor", "constant_scale=0.5"),
        ("localization-erm", "smoothed-hinge-margin", "constant_scale=2.0"),
    ],
    ids=lambda v: v,
)
def test_cli_rejects_a_sweep_key_the_run_never_reads(solver, family, override, monkeypatch,
                                                     capsys):
    def no_cells(*args, **kwargs):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr(dpsco.bench, "_sweep_cell", no_cells)
    argv = ["sweep", "--set", f"solver={solver}", "--set", f"family={family}",
            "--set", "n_grid=64", "--set", "seeds=1", "--set", override]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    key = override.split("=")[0]
    assert captured.err.startswith(f"config error: {key} is ")


def test_cli_rejects_an_overflowing_proximal_coefficient_before_the_run(capsys):
    # tiny balls shrink the inner steps until 2/(eta n0) overflows; the
    # plan refuses that release instead of solving with an infinite term
    argv = ["sweep", "--set", "solver=adaptive", "--set", "n_grid=4096", "--set", "seeds=1",
            "--set", "m=1024", "--set", "constant_scale=1e-300"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert re.match(r"config error: release \(\d+, \d+\): step .* overflows the proximal", err)
    assert "constant_scale" in err


def test_cli_audit_passes_and_control_catches(capsys):
    assert main(["audit"]) == 0
    out = capsys.readouterr().out
    assert "ok audit-calibrated eps_hat=1.3533502054005366" in out
    assert "ok audit-control eps_hat=2.772588722239781" in out
    # "none" picks the default threshold, as run_audit's annotation admits
    assert main(["audit", "--set", "threshold=none"]) == 0
    assert capsys.readouterr().out == out
    # an absurd threshold makes the control miss its target: exit 1
    assert main(["audit", "--set", "threshold=10.0"]) == 1
    out = capsys.readouterr().out
    assert "FAIL audit-control" in out


def test_cli_oracles(capsys):
    assert main(["oracles"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 13
    assert all(line.startswith("ok ") for line in out)


# SHA-256 over the argv and stdout of each run below: every oracle value
# and both audit estimates, not only the few the tests above pin
OUTPUT_RUNS = (
    ["oracles"],
    ["oracles", "--seed-base", "1"],
    ["audit"],
    ["audit", "--seed-base", "2", "--set", "trials=20000"],
)
OUTPUT_DIGEST = "8b15f35d543b24d6fc249943bd0c7c9838733cdf52a3c8ffd36a4a2eb074741c"


def test_cli_oracle_and_audit_output_is_byte_identical_to_the_recorded_digest(capsys):
    h = hashlib.sha256()
    for argv in OUTPUT_RUNS:
        assert main(argv) == 0
        h.update(" ".join(argv).encode() + b"\0" + capsys.readouterr().out.encode() + b"\0")
    digest = h.hexdigest()
    assert digest == OUTPUT_DIGEST, f"oracle or audit output changed; new digest {digest}"


def test_cli_complexity(capsys):
    code = main(
        ["complexity", "--set", "alpha=0.01", "--set", "rho=1.0", "--set", "d=10"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "alpha=0.01" in out and "rho=1.0" in out and "d=10" in out
    assert "samples=146.05" in out


@pytest.mark.parametrize(
    "override, reason",
    [
        ("eps=inf", "eps must be a positive real, got inf"),
        ("rho=inf", "rho must be a positive real, got inf"),
        ("rho=nan", "rho must be a positive real, got nan"),
        ("rho=1e-320", "sample count overflows"),
        ("rho=400", "sample count overflows"),
    ],
)
def test_cli_complexity_rejects_non_finite_input_and_overflow(override, reason, capsys):
    assert main(["complexity", "--set", override]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {reason}")


def test_cli_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "oracles.txt"
    assert main(["oracles", "--out", str(path)]) == 0
    capsys.readouterr()
    assert len(path.read_text(encoding="utf-8").splitlines()) == 13


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _checkout_env():
    """Environment whose PYTHONPATH puts the imported checkout ahead of any inherited value."""
    env = dict(os.environ)
    src = str(Path(dpsco.__file__).resolve().parents[1])
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + os.pathsep + inherited if inherited else src
    return env


def _declared_console_script():
    """The ``dpsco`` entry of pyproject.toml's ``[project.scripts]``, as an entry point."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert "dpsco" in scripts, "pyproject.toml declares no [project.scripts] 'dpsco'"
    return importlib.metadata.EntryPoint(
        name="dpsco", value=scripts["dpsco"], group="console_scripts"
    )


def _installed_console_scripts():
    """``console_scripts`` entry points called ``dpsco`` of an installed dpsco distribution."""
    return [
        ep
        for ep in importlib.metadata.entry_points(group="console_scripts", name="dpsco")
        if ep.dist is not None and ep.dist.name == "dpsco"
    ]


def test_console_script_entry_point(tmp_path):
    env = _checkout_env()
    proc = subprocess.run(
        [sys.executable, "-m", "dpsco.cli", "complexity"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0 and "samples=" in proc.stdout
    # the launcher pip generates for the declared entry point, without installing it
    ep = _declared_console_script()
    assert callable(ep.load())
    launcher = tmp_path / ep.name
    launcher.write_text(
        f"import sys\nfrom {ep.module} import {ep.attr}\nsys.exit({ep.attr}())\n",
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, str(launcher), "complexity"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0 and "samples=" in proc.stdout


@pytest.mark.skipif(
    not _installed_console_scripts(),
    reason="no installed 'dpsco' distribution with a 'dpsco' console_scripts entry point",
)
def test_installed_console_script():
    (installed,) = _installed_console_scripts()
    assert installed.value == _declared_console_script().value
    script = shutil.which("dpsco")
    assert script is not None, "the installed 'dpsco' script is not on PATH"
    proc = subprocess.run(
        [script, "complexity"], capture_output=True, text=True, timeout=60,
        env=_checkout_env(),
    )
    assert proc.returncode == 0 and "samples=" in proc.stdout
