"""Experiment driver: seeded sweeps to CSV, rate-model fits, privacy
audits, and the oracle battery.

Everything here is deterministic given (config, seed base): each sweep
cell draws from its own seeded stream keyed by (seed, n), rows are
emitted in grid order, and floats are written with repr so two runs of
the same sweep produce byte-identical CSV. Wall-clock timing is opt-in
(``wall_clock = 1``) precisely because it breaks that guarantee.
"""

from __future__ import annotations

import csv
import io
import math
import time
import typing
from dataclasses import dataclass, replace

import numpy as np

from .base_solvers import (
    InnerSolveConfig,
    epoch_growth_solver,
    growth_step_size,
    lipschitz_wrap,
    localization_erm,
)
from .geometry import _check_count, _check_positive, _check_probability
from .hardness import (
    Quadratic1D,
    growth_closure_check,
    make_lower_bound_instance,
    make_margin_classification,
    make_noiseless_least_squares,
    make_noisy_least_squares,
    make_packing,
    modulus_oracle,
    pinch_check,
    stability_bound_check,
    superefficiency_construct,
)
from .interpolation import (
    adaptive_solver,
    default_schedule,
    interpolation_localization,
)
from .losses import IndicatorQuadratic, QuadraticAnchor, SmoothedHingeMargin
from .mechanisms import AuditConfig, RngStream, empirical_epsilon
from .problems import (
    _CERTIFICATE_TOL,
    Instance,
    LossConstants,
    PrivacyBudget,
    RunTrace,
    Schedule,
    excess_risk,
    interpolation_certificate,
)

CSV_COLUMNS = (
    "run_id", "solver", "family", "n", "d", "eps", "delta", "seed",
    "constant_scale", "T", "m", "beta", "excess_risk", "final_D",
    "final_L", "wall_ms",
)

SOLVER_IDS = ("interpolation", "adaptive", "epoch-growth", "localization-erm")
_LOCALIZING = SOLVER_IDS[:2]  # the solvers that read a schedule and inner_epochs

LINEAR_IN_N = "log-linear-in-n"
LINEAR_IN_LOG_N = "log-linear-in-log-n"


class DegenerateFitError(ValueError):
    """Rate fit impossible: too few grid points, or a median that is not
    finite and positive."""


# -- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a solver, an instance family, an n grid, seeds per point.

    Schedule knobs: leave T and m unset to derive the block schedule from
    the constants; set m (and optionally T, default n // m) to pin it.
    beta unset means n**(-mu). A key the configured solver or family
    never reads is rejected. Each field's annotation is also the type
    its key=value text is parsed to (``config_from_mapping``).
    """

    solver: str = "interpolation"
    family: str = QuadraticAnchor.tag
    n_grid: tuple[int, ...] = (1024, 2048, 4096, 8192, 16384)
    seeds: int = 20
    d: int = 2
    eps: float = 1.0
    delta: float = 0.0
    H: float = 1.0
    xstar_offset: float = 0.5
    noise_std: float = 0.0
    radius: float | None = None
    margin: float = 0.25
    mu: float = 1.0
    beta: float | None = None
    T: int | None = None
    m: int | None = None
    constant_scale: float = 1.0
    inner_epochs: int | None = None
    eta: float | None = None
    wall_clock: bool = False

    def __post_init__(self):
        if self.solver not in SOLVER_IDS:
            raise ValueError(f"unknown solver {self.solver!r}; choose from {SOLVER_IDS}")
        if self.family not in _INSTANCE_BUILDERS:
            raise ValueError(
                f"unknown family {self.family!r}; choose from {tuple(_INSTANCE_BUILDERS)}"
            )
        for n in self.n_grid:
            _check_count("n_grid entry", n, lo=2)
        grid = tuple(int(n) for n in self.n_grid)
        if not grid:
            raise ValueError("n_grid must be nonempty")
        if any(b >= a for a, b in zip(grid[1:], grid)):
            raise ValueError(f"n_grid must be strictly increasing, got {grid}")
        object.__setattr__(self, "n_grid", grid)
        for name in ("seeds", "d"):
            _check_count(name, getattr(self, name))
        # an infinite eps would silently drop every noise draw, an infinite
        # mu or scale leaves no failure budget or no shrink, and the
        # generators compute with H and margin before any family sees them
        for name in ("eps", "H", "margin", "mu", "constant_scale"):
            _check_positive(name, getattr(self, name))
        if self.delta != 0:  # zero is pure DP
            _check_probability("nonzero delta", self.delta)
        if not 0 <= self.noise_std < math.inf:
            raise ValueError(f"noise_std must be nonnegative and finite, got {self.noise_std}")
        if self.beta is not None:
            _check_probability("beta", self.beta)
        for name in ("T", "m", "inner_epochs"):
            if getattr(self, name) is not None:
                _check_count(name, getattr(self, name))
        for name in ("eta", "radius"):
            if getattr(self, name) is not None:
                _check_positive(name, getattr(self, name))
        if self.family == IndicatorQuadratic.tag and self.xstar_offset == 0:
            raise ValueError(f"{IndicatorQuadratic.tag} needs a nonzero xstar_offset")
        # keys the run never reads: only the default is accepted
        hinge = self.family == SmoothedHingeMargin.tag
        plain = self.solver == "localization-erm"
        anchor = f"the {QuadraticAnchor.tag} family"
        localizing = f"the {', '.join(_LOCALIZING)} solvers"
        scheduled = f"the {', '.join(_LOCALIZING)}, epoch-growth solvers"
        for name, unread, reader in (
            ("radius", self.family != QuadraticAnchor.tag, anchor),
            ("noise_std", self.family != QuadraticAnchor.tag, anchor),
            ("eta", not plain, "the localization-erm solver"),
            ("inner_epochs", self.solver not in _LOCALIZING, localizing),
            ("margin", not hinge, f"the {SmoothedHingeMargin.tag} family"),
            ("H", hinge, "the quadratic families"),
            ("xstar_offset", hinge, "the quadratic families"),
            ("constant_scale", self.solver not in _LOCALIZING, localizing),
            ("T", plain, scheduled),
            ("m", plain, scheduled),
        ):
            if unread and getattr(self, name) != getattr(ExperimentConfig, name):
                raise ValueError(f"{name} is only supported for {reader}")


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_grid(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.replace(" ", "").split(",") if part)


_PARSERS = {bool: _parse_bool, tuple[int, ...]: _parse_grid}
_CONFIG_TYPES = typing.get_type_hints(ExperimentConfig)


def parse_config_text(text: str) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments are skipped."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def coerce_mapping(mapping: dict[str, str], hints: dict[str, object]) -> dict:
    """Parse raw key=value strings to the type each key is annotated with.

    An empty or "none" value becomes None where the annotation admits None.
    """
    kwargs = {}
    for key, raw in mapping.items():
        if key not in hints:
            raise ValueError(f"unknown config key {key!r}; valid keys: {sorted(hints)}")
        hint = hints[key]
        admits_none = type(None) in typing.get_args(hint)
        if raw == "" or raw.lower() == "none":
            if admits_none:
                kwargs[key] = None
                continue
            raise ValueError(f"config key {key!r} needs a value")
        if admits_none:
            (hint,) = set(typing.get_args(hint)) - {type(None)}
        try:
            kwargs[key] = _PARSERS.get(hint, hint)(raw)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from exc
    return kwargs


def config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    return ExperimentConfig(**coerce_mapping(mapping, _CONFIG_TYPES))


def load_config(path: str | None, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """defaults < file < overrides, with overrides given as raw strings."""
    mapping: dict[str, str] = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            mapping.update(parse_config_text(fh.read()))
    if overrides:
        mapping.update(overrides)
    return config_from_mapping(mapping)


# -- sweep -------------------------------------------------------------------


# family tag -> (cfg, n, xstar, rng) -> Instance; the keys are the sweep's family ids
_INSTANCE_BUILDERS = {
    QuadraticAnchor.tag: lambda cfg, n, xstar, rng: (
        make_noisy_least_squares(cfg.d, n, xstar, cfg.H, cfg.noise_std, rng, radius=cfg.radius)
        if cfg.noise_std > 0
        else make_noiseless_least_squares(cfg.d, n, xstar, cfg.H, radius=cfg.radius)
    ),
    IndicatorQuadratic.tag: lambda cfg, n, xstar, rng: make_lower_bound_instance(
        cfg.d, n, max(1, n // 2), xstar, cfg.H
    ),
    SmoothedHingeMargin.tag: lambda cfg, n, xstar, rng: make_margin_classification(
        cfg.d, n, cfg.margin, rng
    ),
}


def build_instance(cfg: ExperimentConfig, n: int, rng) -> Instance:
    xstar = np.zeros(cfg.d)
    xstar[0] = cfg.xstar_offset
    return _INSTANCE_BUILDERS[cfg.family](cfg, n, xstar, rng)


def resolve_schedule(cfg: ExperimentConfig, inst: Instance, n: int) -> Schedule:
    """Schedule for the localization solvers on an n-sample budget."""
    beta = cfg.beta if cfg.beta is not None else float(n) ** (-cfg.mu)
    if cfg.m is not None or cfg.T is not None:
        if cfg.m is not None:
            m = cfg.m
            T = cfg.T if cfg.T is not None else n // m
        else:
            T = cfg.T
            m = n // T
        if T < 1 or m < 2 or T * m > n:
            raise ValueError(
                f"manual schedule T={T}, m={m} does not fit n={n} (need T >= 1, m >= 2, T*m <= n)"
            )
        return Schedule(T=T, m=m, beta=beta, constant_scale=cfg.constant_scale)
    sched = default_schedule(
        n, inst.constants, cfg.d, PrivacyBudget(cfg.eps, cfg.delta),
        mu=cfg.mu, constant_scale=cfg.constant_scale,
    )
    if cfg.beta is not None:
        sched = replace(sched, beta=cfg.beta)
    return sched


def _trace_final_geometry(trace: RunTrace) -> tuple[float, float] | None:
    if trace.epochs:
        last = trace.epochs[-1]
        return last.diameter, last.lipschitz
    for child in reversed(trace.children):
        found = _trace_final_geometry(child)
        if found is not None:
            return found
    return None


def _run_solver(cfg: ExperimentConfig, inst: Instance, n: int, gen):
    """Dispatch one run; returns (result, (T, m, beta) actually used)."""
    budget = PrivacyBudget(cfg.eps, cfg.delta)
    icfg = InnerSolveConfig()
    x0 = inst.domain.center.copy()
    L = inst.constants.L
    if cfg.solver in _LOCALIZING:
        half = n // 2 if cfg.solver == "adaptive" else n
        sched = resolve_schedule(cfg, inst, half)
        args = (inst, x0, sched, budget, icfg, gen)
        if cfg.solver == "adaptive":
            result = adaptive_solver(*args, inner_epochs=cfg.inner_epochs)
        else:
            result = interpolation_localization(*args, inner_epochs=cfg.inner_epochs)
        return result, (sched.T, sched.m, sched.beta)
    beta = cfg.beta if cfg.beta is not None else float(n) ** (-cfg.mu)
    if cfg.solver == "epoch-growth":
        if cfg.T is not None:
            T = cfg.T
        elif cfg.m is not None:
            T = max(1, n // cfg.m)
        else:
            T = max(1, math.ceil(math.log(n)))
        result = lipschitz_wrap(epoch_growth_solver, inst, L, x0, T, beta, budget, icfg, gen)
        return result, (T, n // T, beta)
    # plain localization ERM
    eta = cfg.eta
    if eta is None:
        eta = growth_step_size(inst.domain.diameter, L, n, beta, cfg.d, budget)
    result = lipschitz_wrap(localization_erm, inst, L, x0, eta, budget, icfg, gen)
    lo, hi = result.trace.epochs[0].samples
    return result, (len(result.trace.epochs), hi - lo, beta)


def _sweep_cell(cfg: ExperimentConfig, seed_base: int, n: int, seed: int) -> dict:
    inst = build_instance(cfg, n, RngStream(seed_base + seed, stream=2 * n))
    gen = RngStream(seed_base + seed, stream=2 * n + 1).generator()
    start = time.perf_counter() if cfg.wall_clock else 0.0
    result, (T, m, beta) = _run_solver(cfg, inst, n, gen)
    wall_ms = (time.perf_counter() - start) * 1e3 if cfg.wall_clock else 0.0
    geom = _trace_final_geometry(result.trace)
    final_D, final_L = geom if geom is not None else (inst.domain.diameter, inst.constants.L)
    return {
        "run_id": f"{cfg.solver}-{cfg.family}-n{n}-d{cfg.d}-s{seed}",
        "solver": cfg.solver,
        "family": cfg.family,
        "n": n,
        "d": cfg.d,
        "eps": cfg.eps,
        "delta": cfg.delta,
        "seed": seed,
        "constant_scale": cfg.constant_scale,
        "T": T,
        "m": m,
        "beta": beta,
        "excess_risk": excess_risk(inst, result.point),
        "final_D": final_D,
        "final_L": final_L,
        "wall_ms": wall_ms,
    }


def run_sweep(cfg: ExperimentConfig, seed_base: int = 0) -> list[dict]:
    """All (n, seed) cells in grid order."""
    _check_count("seed_base", seed_base, lo=0)
    cells = [(n, seed) for n in cfg.n_grid for seed in range(cfg.seeds)]
    return [_sweep_cell(cfg, seed_base, n, seed) for n, seed in cells]


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_format_cell(row[col]) for col in CSV_COLUMNS])
    return buf.getvalue()


def write_rows_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv(rows))


def read_rows_csv(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for raw in reader:
            row = dict(raw)
            for col in ("n", "d", "seed", "T", "m"):
                if col in row and row[col] not in (None, ""):
                    row[col] = int(row[col])
            for col in ("eps", "delta", "constant_scale", "beta", "excess_risk",
                        "final_D", "final_L", "wall_ms"):
                if col in row and row[col] not in (None, ""):
                    row[col] = float(row[col])
            rows.append(row)
    return rows


# -- rate fitting ------------------------------------------------------------


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of ln(median excess) against n or ln n."""

    model: str
    slope: float
    intercept: float
    r_squared: float

    def __post_init__(self):
        if self.model not in (LINEAR_IN_N, LINEAR_IN_LOG_N):
            raise ValueError(f"unknown rate model {self.model!r}")
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError(f"r_squared must lie in [0, 1], got {self.r_squared}")


def _fit_line(x: np.ndarray, y: np.ndarray, model: str) -> RateFit:
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    centered = y - y.mean()
    ss_tot = float(centered @ centered)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(
        model=model,
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(min(1.0, max(0.0, r2))),
    )


def fit_rate(rows: list[dict]) -> tuple[RateFit, RateFit]:
    """Fit both rate models to per-n median excess risk.

    Medians, not means: a few bad seeds otherwise drag the slope.
    Returns (fit against n, fit against ln n). Needs ``n`` and
    ``excess_risk`` in every row and at least 4 distinct n values, all
    with finite, strictly positive medians.
    """
    groups: dict[int, list[float]] = {}
    for row in rows:
        try:
            n, risk = int(row["n"]), float(row["excess_risk"])
        except KeyError as exc:
            raise ValueError(f"sweep rows have no {exc.args[0]!r} column") from exc
        groups.setdefault(n, []).append(risk)
    if len(groups) < 4:
        raise DegenerateFitError(
            f"need at least 4 distinct n values to fit a rate, got {len(groups)}"
        )
    ns = np.array(sorted(groups), dtype=np.float64)
    medians = np.array([np.median(groups[int(n)]) for n in ns])
    bad = [int(n) for n, med in zip(ns, medians) if not 0 < med < math.inf]
    if bad:
        raise DegenerateFitError(f"non-positive or non-finite median excess risk at n = {bad}")
    y = np.log(medians)
    return _fit_line(ns, y, LINEAR_IN_N), _fit_line(np.log(ns), y, LINEAR_IN_LOG_N)


# -- privacy audit -----------------------------------------------------------


@dataclass(frozen=True)
class AuditOutcome:
    epsilon_hat: float
    epsilon: float
    noise_scale: float
    trials: int
    control: bool
    threshold: float
    passed: bool
    retried: bool


def run_audit(
    rng: RngStream,
    eps: float = 1.0,
    n: int = 100,
    trials: int = 100_000,
    control: bool = False,
    threshold: float | None = None,
) -> AuditOutcome:
    """Audit a Laplace mean release on worst-case neighbors.

    The mechanism releases mean(data) + Laplace(scale) for data in
    [0, 1]^n, sensitivity 1/n, scale = 1/(n eps) when calibrated and
    half that for the deliberately broken control. A calibrated run
    passes when the estimate stays at or below the threshold (default
    eps + 0.5); a control run passes when the estimate reaches it. One
    retry on the next stream of ``rng``'s seed is taken before declaring
    failure.

    Outcomes are clamped to a window of 4 claimed noise scales around
    the two means before binning; without that, far-tail bins hold a
    handful of draws and add-one smoothing reports spurious ratios.
    Clamping is post-processing, so it never understates a violation.

    Each estimate draws its noise in one batch per dataset: one
    ``size=trials`` Laplace draw for the first dataset, then one for the
    second, from the stream's generator.
    """
    if not isinstance(rng, RngStream):
        raise ValueError(f"need an RngStream, got {type(rng).__name__}")
    _check_count("n", n)
    _check_positive("eps", eps)
    if threshold is not None and not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold!r}")
    if threshold is None:
        threshold = eps + 0.5
    claimed = 1.0 / (n * eps)
    scale = claimed / 2.0 if control else claimed
    data_a = np.zeros(n)
    data_b = data_a.copy()
    data_b[0] = 1.0

    def mechanism(data: np.ndarray, gen, size: int) -> np.ndarray:
        return data.mean() + gen.laplace(0.0, scale, size=size)

    lo = float(data_a.mean()) - 4.0 * claimed
    hi = float(data_b.mean()) + 4.0 * claimed
    cfg = AuditConfig(trials=trials, clamp=(lo, hi))

    def estimate(stream_rng) -> float:
        return empirical_epsilon(mechanism, data_a, data_b, cfg, stream_rng)

    eps_hat = estimate(rng)
    ok = eps_hat >= threshold if control else eps_hat <= threshold
    retried = False
    if not ok:
        retried = True
        eps_hat = estimate(RngStream(rng.seed, rng.stream + 1))
        ok = eps_hat >= threshold if control else eps_hat <= threshold
    return AuditOutcome(
        epsilon_hat=eps_hat,
        epsilon=eps,
        noise_scale=scale,
        trials=trials,
        control=control,
        threshold=threshold,
        passed=bool(ok),
        retried=retried,
    )


# -- oracle battery ----------------------------------------------------------


@dataclass(frozen=True)
class OracleLine:
    """One machine-readable check: measured value against its bound."""

    name: str
    measured: float
    bound: float
    passed: bool
    detail: str = ""


def run_oracles(seed: int = 0) -> list[OracleLine]:
    """The full hard-instance battery at reference parameters."""
    lines: list[OracleLine] = []

    def add(name, measured, bound, passed, detail=""):
        lines.append(OracleLine(name, float(measured), float(bound), bool(passed), detail))

    # superefficiency: H = growth = 1, domain radius 1, n = 100, and
    # r = ceil(1/eps) swaps at eps = 1
    base = make_noiseless_least_squares(1, 100, np.zeros(1), 1.0, radius=1.0)
    eps = 1.0
    report = superefficiency_construct(base, math.ceil(1.0 / eps), 1.0)
    add("superefficiency-shift-lower", report.shift, report.lower_bound,
        report.shift >= report.lower_bound - 1e-12, "shift >= bound")
    add("superefficiency-shift-upper", report.shift, report.upper_bound,
        report.shift <= report.upper_bound + 1e-12, "shift <= bound")

    mod = modulus_oracle(base, 10)
    diffs = np.diff(mod.values)
    add("modulus-monotone", float(diffs.min()) if diffs.size else 0.0, 0.0,
        bool(np.all(diffs >= -1e-15)), "omega(k) nondecreasing")
    add("modulus-one-swap", mod.values[1], base.domain.radius / base.n,
        mod.values[1] >= base.domain.radius / base.n - 1e-12, "omega(1) >= D/n")

    stab = stability_bound_check(
        base, report.instance, 1, LossConstants(L=2.0, H=1.0, growth=1.0)
    )
    add("stability-single-swap", stab.distance, stab.bound, stab.passed,
        "shift <= 4kL/(lambda n)")

    growth = growth_closure_check(base, 1)
    add("growth-closure-r1", growth.coefficient, growth.bound, growth.passed,
        "coefficient >= lambda - H r / n")

    pinch = pinch_check(Quadratic1D(1.0, 0.0), Quadratic1D(1.0, 1.0))
    add("pinch-location-lower", pinch.x_star, pinch.lower,
        pinch.x_star >= pinch.lower - 1e-12, "x* above pinch lower bound")
    add("pinch-location-upper", pinch.x_star, pinch.upper,
        pinch.x_star <= pinch.upper + 1e-12, "x* below pinch upper bound")
    add("pinch-gradient-envelope", 1.0 if (pinch.gradient_lower_ok and pinch.gradient_upper_ok) else 0.0,
        1.0, pinch.gradient_lower_ok and pinch.gradient_upper_ok,
        "(lambda/2) dist <= |F'| <= H dist on grid")

    packing = make_packing(1.0, 0.25, 1)
    add("packing-count", float(len(packing)), 1.0 / (2 * 0.25),
        len(packing) >= 1.0 / (2 * 0.25), "grid packing count >= D/(2 gamma)")

    # interpolation certificates for every interpolating generator
    gens = {
        "noiseless-least-squares": make_noiseless_least_squares(
            2, 64, np.array([0.5, 0.0]), 1.0
        ),
        "lower-bound": make_lower_bound_instance(2, 64, 32, np.array([0.5, 0.0]), 1.0),
        "margin-classification": make_margin_classification(
            2, 64, 0.25, RngStream(seed, stream=7)
        ),
    }
    for name, inst in gens.items():
        cert = interpolation_certificate(inst)
        add(f"certificate-{name}", cert, _CERTIFICATE_TOL, cert <= _CERTIFICATE_TOL,
            "max per-sample gradient norm at the optimum")
    return lines
