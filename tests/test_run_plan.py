"""Run plans: a bit-identity guard over every solver, the plan's
independence from the noise and from the data's row order, the run-wide
walk against one release at a time, a trace that records the plan's own
steps, and a run's freedom from reference cycles."""

import gc
import hashlib
import math
import struct
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dpsco import (
    Ball,
    Dataset,
    InnerSolveConfig,
    PrivacyBudget,
    RngStream,
    Schedule,
    adaptive_solver,
    epoch_growth_solver,
    interpolation_localization,
    lipschitz_wrap,
    localization_erm,
    solve_regularized_erm,
)
from _oracles import gradient_descent_only, unclipped
from dpsco import base_solvers, interpolation
from dpsco.hardness import (
    make_lower_bound_instance,
    make_margin_classification,
    make_noiseless_least_squares,
    make_noisy_least_squares,
)

CFG = InnerSolveConfig()
PURE = PrivacyBudget(1.0, 0.0)
GAUSS = PrivacyBudget(1.0, 1e-5)
FREE = PrivacyBudget(math.inf, 0.0)

G = object()  # placeholder for the noise generator in a run's arguments

# SHA-256 over the points and every trace field of the runs below; any
# change to a solver's arithmetic, noise order or trace layout moves it
RUN_DIGEST = "e6d30f99eb1615e0deb786d5e97a1d967c3d38afc944767b92e9d2f881f51b37"


def _feed_trace(h, trace) -> None:
    h.update(struct.pack("<qqqd", trace.dropped, len(trace.epochs), len(trace.children),
                         trace.max_consumed_gradient))
    h.update(trace.note.encode() + b"\0")
    for index, (rec, iterate) in enumerate(zip(trace.epochs, trace.iterates), start=1):
        h.update(struct.pack("<qdddqq", index, rec.diameter, rec.lipschitz,
                             rec.noise_scale, *rec.samples))
        h.update(np.asarray(iterate, dtype=np.float64).tobytes())
    for child in trace.children:
        _feed_trace(h, child)


def _restrict(inst, span=None, domain=None, L=None):
    """inst on samples [lo, hi) of span, in another ball or at another L:
    how a caller runs a solver on part of an instance."""
    lo, hi = (0, inst.n) if span is None else span
    labels = inst.dataset.labels
    return replace(
        inst,
        dataset=Dataset(inst.dataset.points[lo:hi], None if labels is None else labels[lo:hi]),
        domain=inst.domain if domain is None else domain,
        constants=inst.constants if L is None else replace(inst.constants, L=L),
        optimum=None,
    )


def _runs():
    """(label, thunk) for every solver on every family it accepts."""
    quad = make_noiseless_least_squares(2, 512, [0.5, 0.0], 1.0)
    noisy = make_noisy_least_squares(2, 512, [0.5, 0.0], 1.0, 0.3, RngStream(1, 0))
    ind = make_lower_bound_instance(d=2, n=512, k=256, v=[0.5, 0.0], H=1.0)
    hinge = make_margin_classification(3, 256, 0.25, RngStream(2, 0))
    tiny = make_noiseless_least_squares(2, 64, [0.5, 0.0], 1.0)
    steep = {f"{tag}-k3": replace(i, constants=replace(i.constants, kappa=3.0))
             for tag, i in (("quad", quad), ("ind", ind))}
    contracting = Schedule(T=4, m=64, beta=0.05, constant_scale=2e-3)
    loose = Schedule(T=3, m=64, beta=0.05, constant_scale=1.0)
    budgets = {"pure": PURE, "gauss": GAUSS, "free": FREE}
    x0 = np.array([0.3, -0.2])
    box = Ball(np.array([0.1, 0.1]), 0.9)
    point = Ball(np.array([0.2, 0.1]), 0.0)
    runs = []
    seed = iter(range(10_000))

    def add(label, fn, *args, **kwargs):
        # G marks the noise generator's slot; each run draws its own stream
        gen = RngStream(next(seed), 7)
        args = tuple(gen if a is G else a for a in args)
        runs.append((label, lambda: fn(*args, **kwargs)))

    for (tag, inst), (bname, b) in (
        (pair, bud) for pair in (("quad", quad), ("noisy", noisy), ("ind", ind))
        for bud in budgets.items()
    ):
        L = inst.constants.L
        add(f"interp-{tag}-{bname}", interpolation_localization, inst, x0, contracting, b, CFG, G)
        add(f"interp-over-{tag}-{bname}", interpolation_localization,
            _restrict(inst, (10, 400), box, 0.8 * L), x0, loose, b, CFG, G, inner_epochs=2)
        add(f"adaptive-{tag}-{bname}", adaptive_solver, inst, x0, contracting, b, CFG, G)
        add(f"adaptive-loose-{tag}-{bname}", adaptive_solver, inst, x0, loose, b, CFG, G,
            inner_epochs=2)
    for tag, inst in steep.items():
        for bname in ("pure", "gauss"):
            add(f"kappa-{tag}-{bname}", interpolation_localization, inst, x0, contracting,
                budgets[bname], CFG, G, inner_epochs=2)
    for (tag, inst), bname in (
        (pair, bn) for pair in (("quad", quad), ("noisy", noisy), ("ind", ind), ("hinge", hinge))
        for bn in ("pure", "gauss")
    ):
        b, L, c = budgets[bname], inst.constants.L, np.zeros(inst.d)
        sub = Ball(np.full(inst.d, 0.05), 0.7)
        add(f"growth-raw-{tag}-{bname}", unclipped(epoch_growth_solver), inst, c, 4, 0.05, b,
            CFG, G)
        add(f"growth-wrap-{tag}-{bname}", lipschitz_wrap, epoch_growth_solver, inst, L, c, 4,
            0.05, b, CFG, G)
        add(f"growth-tight-{tag}-{bname}", lipschitz_wrap, epoch_growth_solver,
            _restrict(inst, (7, 200), sub), 0.3 * L, c, 3, 0.05, b, CFG, G)
        add(f"erm-raw-{tag}-{bname}", unclipped(localization_erm), inst, c, 0.05, b, CFG, G)
        add(f"erm-wrap-{tag}-{bname}", lipschitz_wrap, localization_erm, inst, L, c, 0.05, b, CFG, G)
        add(f"erm-tight-{tag}-{bname}", lipschitz_wrap, localization_erm,
            _restrict(inst, (3, 150), sub), 0.3 * L, c, 0.2, b, CFG, G)
    add("growth-pgd-quad", gradient_descent_only(lipschitz_wrap), epoch_growth_solver, quad,
        0.5, x0, 3, 0.05, PURE, CFG, G)
    add("growth-degenerate", epoch_growth_solver, _restrict(quad, domain=point), x0, 3, 0.05,
        PURE, CFG, G)
    add("interp-degenerate", interpolation_localization, _restrict(quad, domain=point), x0,
        contracting, PURE, CFG, G, inner_epochs=1)
    add("interp-early-exit", interpolation_localization, tiny, x0,
        Schedule(T=5, m=2, beta=0.1, constant_scale=1e-300), PURE, CFG, G, inner_epochs=1)
    add("adaptive-tiny-scale", adaptive_solver, quad, x0,
        Schedule(T=4, m=32, beta=0.05, constant_scale=1e-300), PURE, CFG, G)
    for tag, inst in (("quad", quad), ("hinge", hinge)):
        c = np.full(inst.d, 0.1)
        runs.append((f"rerm-{tag}", lambda i=inst, c=c: solve_regularized_erm(
            i, c, 0.5, Ball(c, 0.4), CFG, span=(5, 90), clip=0.7)))
    return runs


def test_every_solver_run_is_bit_identical_to_the_recorded_digest():
    h = hashlib.sha256()
    for label, run in _runs():
        h.update(label.encode() + b"\0")
        res = run()
        if isinstance(res, tuple):  # solve_regularized_erm: (point, consumed)
            h.update(np.asarray(res[0], dtype=np.float64).tobytes())
            h.update(struct.pack("<d", res[1]))
            continue
        h.update(np.asarray(res.point, dtype=np.float64).tobytes())
        _feed_trace(h, res.trace)
    digest = h.hexdigest()
    assert digest == RUN_DIGEST, f"solver runs changed; new digest {digest}"


def _releases(trace):
    """(samples, diameter, lipschitz, noise_scale) of every leaf release."""
    if not trace.children:
        return [(r.samples, r.diameter, r.lipschitz, r.noise_scale) for r in trace.epochs]
    return [rel for child in trace.children for rel in _releases(child)]


_SOLVERS = {
    "interpolation": lambda inst, gen, b: interpolation_localization(
        inst, np.zeros(2), Schedule(T=3, m=96, beta=0.05, constant_scale=2e-3), b, CFG, gen),
    "adaptive": lambda inst, gen, b: adaptive_solver(
        inst, np.zeros(2), Schedule(T=2, m=64, beta=0.05, constant_scale=2e-3), b, CFG, gen),
    "growth": lambda inst, gen, b: lipschitz_wrap(
        epoch_growth_solver, inst, inst.constants.L, np.zeros(2), 4, 0.05, b, CFG, gen),
    "erm": lambda inst, gen, b: localization_erm(inst, np.zeros(2), 0.05, b, CFG, gen),
}


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(
    solver=st.sampled_from(sorted(_SOLVERS)),
    gaussian=st.booleans(),
    n=st.integers(300, 420),
    data_seed=st.integers(0, 2**32 - 1),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2, unique=True),
)
def test_releases_depend_on_neither_the_noise_nor_the_row_order(
    solver, gaussian, n, data_seed, seeds
):
    # the plan fixes every release from n, the schedule, the budget and the
    # declared constants; this is what lets one plan serve many seeds
    run = _SOLVERS[solver]
    budget = GAUSS if gaussian else PURE
    inst = make_noisy_least_squares(2, n, [0.5, 0.0], 1.0, 0.3, RngStream(data_seed, 0))
    perm = np.random.default_rng(data_seed).permutation(n)
    shuffled = replace(inst, dataset=Dataset(inst.dataset.points[perm]), optimum=None)
    first = _releases(run(inst, RngStream(seeds[0], 1), budget).trace)
    assert first == _releases(run(inst, RngStream(seeds[1], 1), budget).trace)
    assert first == _releases(run(shuffled, RngStream(seeds[0], 1), budget).trace)
    spans = sorted(rel[0] for rel in first)
    assert spans and all(0 <= lo < hi <= n for lo, hi in spans)
    assert all(hi <= lo for (_, hi), (lo, _) in zip(spans, spans[1:]))


def _neighbour(inst, row, point, label=None):
    """inst with one row replaced and the declared constants kept."""
    points = inst.dataset.points.copy()
    points[row] = point
    labels = inst.dataset.labels
    if labels is not None:
        labels = labels.copy()
        labels[row] = label
    return replace(inst, dataset=Dataset(points, labels), optimum=None)


def _neighbour_pairs():
    """(label, instance, neighbour, solvers the CLI runs on it). The noisy
    least-squares generator is left out: it sets L from the samples, so
    its neighbour declares other constants (ROADMAP direction 1)."""
    far = np.array([50.0, -50.0])
    quad = make_noiseless_least_squares(2, 384, [0.5, 0.0], 1.0)
    ind = make_lower_bound_instance(d=2, n=384, k=192, v=[0.5, 0.0], H=1.0)
    hinge = make_margin_classification(2, 384, 0.25, RngStream(5, 0))
    # the hinge declares no growth, so the localizing solvers refuse it
    return [
        (f"{tag}-row{row}", inst, neighbour(inst, row), solvers)
        for tag, inst, neighbour, solvers in (
            ("quad", quad, lambda i, row: _neighbour(i, row, far), sorted(_SOLVERS)),
            ("ind", ind, lambda i, row: _neighbour(i, row, far), sorted(_SOLVERS)),
            ("hinge", hinge,
             lambda i, row: _neighbour(i, row, [0.0, 1.0], -i.dataset.labels[row]),
             ["erm", "growth"]),
        )
        for row in (0, 200, 383)
    ]


_NEIGHBOUR_PAIRS = _neighbour_pairs()


@pytest.mark.parametrize("budget", [PURE, GAUSS], ids=["pure", "gauss"])
@pytest.mark.parametrize(
    "inst, neighbour, solvers", [pair[1:] for pair in _NEIGHBOUR_PAIRS],
    ids=[pair[0] for pair in _NEIGHBOUR_PAIRS],
)
def test_a_neighbouring_dataset_gets_the_same_plan(inst, neighbour, solvers, budget):
    # the plan is built from public values only, so replacing one sample
    # cannot change any release's span, radius, clip, step or noise scale
    plans = []

    def capture(inst, plan, x, budget, cfg, rng):
        plans.append(plan)

    with mock.patch.object(base_solvers, "_run", capture), \
            mock.patch.object(interpolation, "_run", capture):
        for solver in solvers:
            for data in (inst, neighbour):
                _SOLVERS[solver](data, RngStream(0, 1), budget)
    assert len(plans) == 2 * len(solvers)
    for solver, plan, other in zip(solvers, plans[::2], plans[1::2]):
        assert plan.steps, solver
        assert plan == other, solver


def _every_solver_run():
    """(solver, instance) for every ``_SOLVERS`` entry on the quadratic and
    indicator instances, and the two that accept the hinge on it."""
    quad = make_noiseless_least_squares(2, 384, [0.5, 0.0], 1.0)
    ind = make_lower_bound_instance(d=2, n=384, k=192, v=[0.5, 0.0], H=1.0)
    hinge = make_margin_classification(2, 384, 0.25, RngStream(5, 0))
    runs = [(solver, inst) for inst in (quad, ind) for solver in sorted(_SOLVERS)]
    return runs + [(solver, hinge) for solver in ("erm", "growth")]


def _same_steps(trace, plan, solver) -> None:
    """Require ``trace`` to record ``plan``'s own steps, recursively."""
    recorded = [step for step in plan.steps if step.diameter is not None]
    assert len(trace.epochs) == len(recorded), solver
    assert all(rec is step for rec, step in zip(trace.epochs, recorded)), solver
    assert len(trace.iterates) == len(trace.epochs), solver
    nested = [step.sub for step in plan.steps if step.sub is not None]
    assert len(trace.children) == len(nested), solver
    for child, sub in zip(trace.children, nested):
        _same_steps(child, sub, solver)


def test_a_trace_records_the_plans_own_steps():
    # the trace keeps the plan's steps themselves, not a copy of their fields
    runs = _every_solver_run()
    plans = []
    run_base, run_interp = base_solvers._run, interpolation._run

    def recording(run):
        def record(inst, plan, *rest):
            plans.append(plan)
            return run(inst, plan, *rest)
        return record

    with mock.patch.object(base_solvers, "_run", recording(run_base)), \
            mock.patch.object(interpolation, "_run", recording(run_interp)):
        for solver, inst in runs:
            trace = _SOLVERS[solver](inst, RngStream(0, 1), PURE).trace
            _same_steps(trace, plans[-1], solver)
    assert len(plans) == len(runs)


def _one_release_at_a_time(fn):
    """fn with every run walked one release at a time: each release is its
    own run of one release through ``solve_regularized_erm``, and the
    frame ops between releases go through ``_Frames``. The reference the
    run-wide walk must equal bit for bit."""
    def run(*args, **kwargs):
        execute = base_solvers._execute

        def single(inst, flat, x, center, radius, cfg, noise):
            frames = base_solvers._Frames(flat.frames, center, radius)
            iterates, consumed, draws = [], [], iter(noise)
            with mock.patch.object(base_solvers, "_execute", execute):  # each solve's own run
                for step, f, ops in zip(flat.leaves, flat.frame, flat.pre):
                    for op in ops:
                        x = frames.step(op, x)
                    c, r = ((frames.center[f], frames.radius[f]) if step.radius is None
                            else (x, step.radius))
                    # the tolerance at which the executor stops this release
                    tol = max(step.noise_scale / 100.0, cfg.tolerance)
                    x, used = solve_regularized_erm(
                        inst, x, step.eta, Ball(c, r), replace(cfg, tolerance=tol),
                        span=step.samples, clip=step.lipschitz,
                    )
                    if step.noise_scale > 0:
                        x = x + next(draws)
                    iterates.append(x)
                    consumed.append(used)
            for op in flat.post:
                x = frames.step(op, x)
            return iterates, consumed, frames.exits

        with mock.patch.object(base_solvers, "_execute", single):
            return fn(*args, **kwargs)
    return run


def _block_paths(fn):
    """fn, also returning the walk paths it took and its certification
    windows as (releases in the run, releases checked, releases
    accepted). Releases of one leaf block share a frame. Paths:
    "mid-block" when a release after an accepted one of its leaf block
    failed the check and the walk resumed within that block;
    "no-anchor" when a checked release had no anchor; "cross-block" when
    one accepted window spanned two or more leaf blocks and left a
    nested ball; "resume-after-reject" when a leaf block after one with
    a rejected release was accepted."""
    def run(*args, **kwargs):
        execute, certify = base_solvers._execute, base_solvers._certify
        paths, windows, rejected, runs = set(), [], [], []

        def layout(inst, flat, *rest):
            runs.append(flat)
            return execute(inst, flat, *rest)

        def spy(anchors, i, centers, bests):
            accepted, used = certify(anchors, i, centers, bests)
            flat, checked = runs[-1], len(centers)
            windows.append((len(flat.leaves), checked, accepted))
            frame, r = flat.frame, i + accepted
            if any(anchors.empty[i:i + checked]):
                paths.add("no-anchor")
            if accepted and rejected and frame[r - 1] > frame[rejected[0]]:
                paths.add("resume-after-reject")
            exits = any(op < 0 for m in range(i + 1, r) for op in flat.pre[m])
            if accepted and frame[r - 1] > frame[i] and exits:
                paths.add("cross-block")
            if accepted < checked:
                rejected.append(r)
                if accepted and r + 1 < len(frame) and frame[r - 1] == frame[r] == frame[r + 1]:
                    paths.add("mid-block")
            return accepted, used

        with mock.patch.object(base_solvers, "_execute", layout), \
                mock.patch.object(base_solvers, "_certify", spy):
            return fn(*args, **kwargs), paths, windows
    return run


_EQ_INSTANCES = {
    "quad": make_noiseless_least_squares(2, 512, [0.5, 0.0], 1.0),
    "noisy": make_noisy_least_squares(2, 512, [0.5, 0.0], 1.0, 0.3, RngStream(1, 0)),
    "ind": make_lower_bound_instance(d=2, n=512, k=256, v=[0.5, 0.0], H=1.0),
}
_EQ_BUDGETS = {"pure": PURE, "gauss": GAUSS, "free": FREE}


def _trace_digest(res) -> str:
    h = hashlib.sha256(np.asarray(res.point, dtype=np.float64).tobytes())
    _feed_trace(h, res.trace)
    return h.hexdigest()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    tag=st.sampled_from(sorted(_EQ_INSTANCES)),
    budget=st.sampled_from(sorted(_EQ_BUDGETS)),
    solver=st.sampled_from(sorted(_SOLVERS)),
    clip_factor=st.one_of(st.just(0.3), st.floats(0.8, 1.25)),
    seed=st.integers(0, 2**32 - 1),
    expect=st.just(None),
)
# the check fails after an accepted release: gradient descent, then the walk resumes
@example(tag="noisy", budget="pure", solver="interpolation", clip_factor=0.3, seed=0,
         expect="mid-block")
# the indicator's first 256 rows are off, so the first releases have no anchor (k = 0)
@example(tag="ind", budget="pure", solver="erm", clip_factor=1.0, seed=0, expect="no-anchor")
# no release fails: the one window spans every leaf block and the nested balls' exits
@example(tag="quad", budget="pure", solver="growth", clip_factor=1.0, seed=0,
         expect="cross-block")
# a release fails the check in one leaf block and the windows after it accept later blocks
@example(tag="noisy", budget="pure", solver="adaptive", clip_factor=1.0, seed=0,
         expect="resume-after-reject")
def test_block_walk_equals_one_release_at_a_time(tag, budget, solver, clip_factor, seed, expect):
    inst = _EQ_INSTANCES[tag]
    args = (_SOLVERS[solver], inst, clip_factor * inst.constants.L)
    block, paths, windows = _block_paths(lipschitz_wrap)(*args, RngStream(seed, 1),
                                                         _EQ_BUDGETS[budget])
    single = _one_release_at_a_time(lipschitz_wrap)(*args, RngStream(seed, 1),
                                                   _EQ_BUDGETS[budget])
    # point, every record and iterate of the trace, and max_consumed_gradient
    assert _trace_digest(block) == _trace_digest(single)
    assert expect is None or expect in paths
    # speculation stays bounded: at most 3R releases checked over R, and
    # without a rejection at most ceil(log2 R) + 1 windows
    if windows:
        releases = windows[0][0]
        assert sum(checked for _, checked, _ in windows) <= 3 * releases
        if all(accepted == checked for _, checked, accepted in windows):
            assert len(windows) <= math.ceil(math.log2(releases)) + 1


def test_a_run_leaves_no_reference_cycle():
    # a cycle through a run's state keeps its arrays alive until a full
    # collection, which shows as peak memory; without one every array is
    # freed by reference counting when the run returns
    runs = _every_solver_run()
    c = np.full(2, 0.1)
    gc.collect()
    gc.disable()
    try:
        for solver, inst in runs:
            _SOLVERS[solver](inst, RngStream(0, 1), PURE)
        for inst in dict.fromkeys(inst for _, inst in runs):
            solve_regularized_erm(inst, c, 0.5, Ball(c, 0.4), CFG, span=(5, 90), clip=0.7)
        assert gc.collect() == 0
    finally:
        gc.enable()
