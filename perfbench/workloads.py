"""The three workloads: fixed inputs, one round of ops, and op checks.

A round is the fixed interleaved op sequence of one round seed; a run is
rounds 0, 1, 2, ... of its workload seed. Each op is a closure that
looks its dpsco functions up through the module at call time, so a
traced run reaches the rebound wrappers. ``check`` turns an op's value
into the bytes fed to the output digest and a list of problems.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from typing import Callable, NamedTuple

import numpy as np

from checks import check_audit, check_solver

# rounds per workload seed stay far below this, so round seeds never collide
ROUNDS_PER_SEED = 10_000


def round_seed(seed: int, r: int) -> int:
    if not 0 <= r < ROUNDS_PER_SEED:
        raise ValueError(f"round {r} out of range")
    return seed * ROUNDS_PER_SEED + r


class Op(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bytes, list[str]]]


def _solver_check(eps: float):
    def check(value):
        inst, result, risk = value
        data = f"{result.point.tolist()!r} {risk!r}\n".encode()
        return data, check_solver(inst, result, risk, eps)

    return check


class Adaptivity:
    """Criterion 02's four-call comparison on seeds x n (m = 512,
    beta = 0.05, d = 2, eps = 1). Fixed inputs: the noiseless instance and
    schedule per n; the noisy instance is drawn fresh inside the first
    op of each (seed, n) and reused by the second."""

    name = "adaptivity"
    N_GRID = (1024, 4096, 16384)
    ROUNDS_PER_TRACE_SECOND = 0.2

    def __init__(self, dp):
        self.dp = dp
        self.budget = dp.problems.PrivacyBudget(1.0, 0.0)
        self.cfg = dp.base_solvers.InnerSolveConfig()
        self.xstar = np.array([0.5, 0.0])
        self.sched = {
            n: dp.problems.Schedule(T=max(1, (n // 2) // 512), m=512, beta=0.05, constant_scale=1.0)
            for n in self.N_GRID
        }
        self.T5 = {n: max(1, math.ceil(math.log(n))) for n in self.N_GRID}
        self.interp = {
            n: dp.hardness.make_noiseless_least_squares(2, n, self.xstar, 1.0, radius=1.0)
            for n in self.N_GRID
        }

    def context(self):
        return nullcontext()

    def round(self, seed: int) -> list[Op]:
        dp, budget, cfg = self.dp, self.budget, self.cfg
        check = _solver_check(budget.eps)
        ops = []
        for n in self.N_GRID:
            sched, interp, T5 = self.sched[n], self.interp[n], self.T5[n]
            noisy = []

            def adaptive_noisy(n=n, sched=sched, noisy=noisy):
                inst = dp.hardness.make_noisy_least_squares(
                    2, n, self.xstar, 1.0, 0.5, dp.mechanisms.RngStream(seed, stream=2 * n),
                    radius=1.0,
                )
                noisy.append(inst)
                res = dp.interpolation.adaptive_solver(
                    inst, np.zeros(2), sched, budget, cfg,
                    dp.mechanisms.RngStream(seed, stream=2 * n + 1),
                )
                return inst, res, dp.problems.excess_risk(inst, res.point)

            def growth_noisy(n=n, T5=T5, noisy=noisy):
                inst = noisy[0]
                res = dp.base_solvers.lipschitz_wrap(
                    dp.base_solvers.epoch_growth_solver, inst, inst.constants.L, np.zeros(2),
                    T5, 0.05, budget, cfg, dp.mechanisms.RngStream(seed, stream=2 * n + 1),
                )
                return inst, res, dp.problems.excess_risk(inst, res.point)

            def adaptive_interp(n=n, sched=sched, inst=interp):
                res = dp.interpolation.adaptive_solver(
                    inst, np.zeros(2), sched, budget, cfg,
                    dp.mechanisms.RngStream(seed, stream=2 * n + 1),
                )
                return inst, res, dp.problems.excess_risk(inst, res.point)

            def localize_interp(n=n, sched=sched, inst=interp):
                res = dp.interpolation.interpolation_localization(
                    inst, np.zeros(2), sched, budget, cfg,
                    dp.mechanisms.RngStream(seed, stream=2 * n + 1),
                )
                return inst, res, dp.problems.excess_risk(inst, res.point)

            ops += [
                Op(f"adaptive-noisy-n{n}", adaptive_noisy, check),
                Op(f"growth-noisy-n{n}", growth_noisy, check),
                Op(f"adaptive-interp-n{n}", adaptive_interp, check),
                Op(f"localize-interp-n{n}", localize_interp, check),
            ]
        return ops


class HingeSweep:
    """One ``run_sweep`` cell of localization ERM on the smoothed-hinge
    margin family (d = 8), then ``rows_to_csv``, for n in the grid.

    ``run_sweep`` returns rows only, so while the workload runs the
    benchmark rebinds ``dpsco.bench.build_instance`` and
    ``dpsco.bench.lipschitz_wrap`` to pass-throughs that keep the instance
    and the solver result for the checks."""

    name = "hinge-sweep"
    N_GRID = (1024, 4096, 16384)
    ROUNDS_PER_TRACE_SECOND = 0.5

    def __init__(self, dp):
        self.dp = dp
        self.cfgs = {
            n: dp.bench.ExperimentConfig(
                solver="localization-erm", family="smoothed-hinge-margin", d=8,
                n_grid=(n,), seeds=1,
            )
            for n in self.N_GRID
        }
        self._seen: list = []

    @contextmanager
    def context(self):
        bench = self.dp.bench
        build, wrap = bench.build_instance, bench.lipschitz_wrap
        seen = self._seen

        def build_instance(*args, **kwargs):
            inst = build(*args, **kwargs)
            seen.append(inst)
            return inst

        def lipschitz_wrap(*args, **kwargs):
            res = wrap(*args, **kwargs)
            seen.append(res)
            return res

        bench.build_instance, bench.lipschitz_wrap = build_instance, lipschitz_wrap
        try:
            yield
        finally:
            bench.build_instance, bench.lipschitz_wrap = build, wrap

    def round(self, seed: int) -> list[Op]:
        ops = []
        for n in self.N_GRID:
            cfg = self.cfgs[n]

            def cell(cfg=cfg):
                self._seen.clear()
                rows = self.dp.bench.run_sweep(cfg, seed_base=seed)
                return rows, self.dp.bench.rows_to_csv(rows), tuple(self._seen)

            def check(value, cfg=cfg):
                rows, text, seen = value
                data = text.encode()
                if len(rows) != 1 or len(seen) != 2:
                    return data, [f"expected one row, one instance and one result, got "
                                  f"{len(rows)} rows and {len(seen)} captures"]
                inst, res = seen
                return data, check_solver(inst, res, rows[0]["excess_risk"], cfg.eps)

            ops.append(Op(f"cell-n{n}", cell, check))
        return ops


class Audit:
    """``run_audit`` at the ``dpsco audit`` defaults (eps = 1, n = 100,
    10^5 trials): a calibrated op, then a sigma/2 control op. Each op
    owns two streams of the round seed, the second for its retry."""

    name = "audit"
    ROUNDS_PER_TRACE_SECOND = 1 / 13

    def __init__(self, dp):
        self.dp = dp

    def context(self):
        return nullcontext()

    def round(self, seed: int) -> list[Op]:
        def check(outcome):
            return f"{outcome.epsilon_hat!r}\n".encode(), check_audit(outcome)

        def audit(control: bool, stream: int):
            return lambda: self.dp.bench.run_audit(
                control=control, rng=self.dp.mechanisms.RngStream(seed, stream=stream)
            )

        return [
            Op("calibrated", audit(False, 0), check),
            Op("control", audit(True, 2), check),
        ]


WORKLOADS = {w.name: w for w in (Adaptivity, HingeSweep, Audit)}
