"""Closed-loop benchmark of dpsco: one caller, one op at a time.

    python3 perfbench/run.py --workload adaptivity --seed 1 --seconds 40 --trace 0

runs one workload and prints its metrics, one per line with its unit,
then a JSON object as the last line. ``--trace 0`` times the ops
untraced and reports the end-to-end metrics; ``--trace 1`` runs a fixed
number of rounds, each untraced and traced, and reports the per-layer
metrics. ``--workload all`` or ``--repeat K`` runs the workloads in
child processes and prints each end-to-end metric's median, quartiles
and spread against the bound in BENCHMARK.json; ``--against SRC`` pairs
every run with one against another source tree. See README.md.
"""

import os

# one BLAS thread, set before numpy loads: on a 2-core box the
# ``points @ x`` products must not start helper threads
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
EXPECTED = os.path.join(HERE, "expected.json")

from tracing import HARNESS, HOOKS, Tracer  # noqa: E402
from workloads import WORKLOADS, round_seed  # noqa: E402

DEFAULT_SEED = 0
SETUP_PROBES = 9
MIN_OPS = 11  # the tail percentile needs ten samples beyond it
CHILD_TIMEOUT_S = 600


def import_dpsco(src: str):
    """Import dpsco from ``src``, refusing any other copy."""
    sys.path.insert(0, src)
    try:
        import dpsco
    except ImportError as exc:
        raise SystemExit(f"error: cannot import dpsco from {src}: {exc}")
    where = os.path.dirname(os.path.abspath(dpsco.__file__))
    if where != os.path.join(os.path.abspath(src), "dpsco"):
        raise SystemExit(f"error: imported dpsco from {where}, not from {src}")
    return dpsco


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    # the ceiling keeps git from reporting a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def machine_record(seed: int, loadavg: tuple) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = None
    return {
        "cores": sorted(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(ROOT),
        "loadavg_at_start": list(loadavg),
        "workload_seed": seed,
    }


# -- running ops ---------------------------------------------------------


class OpLog:
    """Latencies, failures and the output digest of a run of ops."""

    def __init__(self):
        self.latency_ns: list[int] = []
        self.kinds: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = hashlib.sha256()

    def fail(self, kind: str, why: str):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{kind}: {why}")

    def absorb(self, other: "OpLog"):
        """Count another log's ops and failures in this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def run_round(wl, seed: int, r: int, log: OpLog, tracer: Tracer | None = None) -> None:
    """Run round r of the workload seed, one op at a time, and check each op."""
    for op in wl.round(round_seed(seed, r)):
        log.attempted += 1
        try:
            if tracer is None:
                t0 = time.perf_counter_ns()
                value = op.run()
                t1 = time.perf_counter_ns()
            else:
                with tracer.op_span():
                    t0 = time.perf_counter_ns()
                    value = op.run()
                    t1 = time.perf_counter_ns()
        except Exception:  # an op that raises is a failed op; keep going
            log.fail(op.kind, traceback.format_exc(limit=3).strip().splitlines()[-1])
            continue
        log.latency_ns.append(t1 - t0)
        log.kinds.append(op.kind)
        try:
            data, problems = op.check(value)
        except Exception:  # a check that cannot read the output fails the op
            log.fail(op.kind, traceback.format_exc(limit=3).strip().splitlines()[-1])
            continue
        log.digest.update(data)
        if problems:
            log.fail(op.kind, "; ".join(problems[:3]))


def check_digest(wl, log: OpLog, workload: str) -> tuple[str, str | None]:
    """Round 0 of the default seed, checked against expected.json."""
    window = OpLog()
    with wl.context():
        run_round(wl, DEFAULT_SEED, 0, window)
    log.absorb(window)
    got = window.digest.hexdigest()
    try:
        with open(EXPECTED, encoding="utf-8") as fh:
            want = json.load(fh)["digests"].get(workload)
    except (OSError, ValueError, KeyError):
        want = None
    if want is None:
        return got, f"no expected digest for {workload} in {EXPECTED}"
    if got != want:
        return got, f"default-seed digest {got} does not match expected {want}"
    return got, None


def tail(latency_ns: list[int]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with ten samples
    beyond it; the maximum when failed ops left fewer than 11 samples."""
    ordered = sorted(latency_ns)
    n = len(ordered)
    if n < 11:
        return (ordered[-1] / 1e6, 100.0) if n else (0.0, 0.0)
    return ordered[n - 11] / 1e6, 100.0 * (n - 10) / n


def probe_setup(workload: str, src: str) -> float:
    """Wall time from spawning a fresh interpreter until it has imported
    dpsco and built the workload's fixed inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup", "--workload", workload,
           "--src", src]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code}, said {line.strip()!r})")
    return t1 - t0


def by_kind(log: OpLog) -> dict:
    kinds: dict[str, list[int]] = {}
    for kind, ns in zip(log.kinds, log.latency_ns):
        kinds.setdefault(kind, []).append(ns)
    return {kind: statistics.median(v) / 1e6 for kind, v in kinds.items()}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, wl, log: OpLog) -> tuple[dict, dict]:
    timed = OpLog()
    round_p50 = []
    setups: list[float] = []
    measured = 0.0  # wall time of the timed rounds, set-up probes left out
    r = 0
    with wl.context():
        # whole rounds until the time is up and the tail has its samples;
        # the set-up probes run between rounds, spread evenly over the
        # window, so a fast or slow phase of the host reaches only some
        while measured < args.seconds or timed.attempted < MIN_OPS:
            if len(setups) < SETUP_PROBES and measured >= len(setups) * args.seconds / SETUP_PROBES:
                setups.append(probe_setup(args.workload, args.src))
                continue
            first = len(timed.latency_ns)
            t0 = time.perf_counter()
            run_round(wl, args.seed, r, timed)
            measured += time.perf_counter() - t0
            if len(timed.latency_ns) > first:
                round_p50.append(statistics.median(timed.latency_ns[first:]))
            r += 1
    # rounds longer than the probe interval leave probes for the end
    setups += [probe_setup(args.workload, args.src) for _ in range(SETUP_PROBES - len(setups))]
    log.absorb(timed)
    done = timed.latency_ns
    lat = done or [0]  # every op failed: the run reports failure
    tail_ms, tail_pct = tail(done)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(len(done) / (sum(lat) / 1e9) if sum(lat) else 0.0, "1/s"),
        # each round's median op latency, averaged over the rounds: pooled,
        # adaptivity's 12 op kinds put the median in the gap between two
        # kinds, where one slow sample moves it by a third; a median over
        # rounds flips with whichever speed phase of the host holds more
        # than half of the run (see README.md)
        "op_ms_p50": metric(statistics.fmean(round_p50 or [0]) / 1e6, "ms"),
        "op_ms_tail": metric(tail_ms, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "timed_ops": len(done),
        "pooled_op_ms_p50": statistics.median(lat) / 1e6,
        "timed_s": sum(lat) / 1e9,
        "tail_percentile": tail_pct,
        "setup_probes_s": setups,
        "op_ms_p50_by_kind": by_kind(timed),
        "round_op_ms_p50": [ns / 1e6 for ns in round_p50],
    }
    return metrics, extra


def per_layer(args, wl, log: OpLog, dp) -> tuple[dict, dict]:
    rounds = max(1, round(args.seconds * wl.ROUNDS_PER_TRACE_SECOND))
    plain, traced = OpLog(), OpLog()
    tracer = Tracer(dp)
    for r in range(rounds):
        # each round runs untraced and traced, first one then the other in
        # turn, so a drift of the machine's speed hits both sides alike
        sides = [(plain, None), (traced, tracer)]
        for side, t in sides if r % 2 == 0 else sides[::-1]:
            with t.installed() if t else nullcontext(), wl.context():
                run_round(wl, args.seed, r, side, t)
    log.absorb(plain)
    log.absorb(traced)
    if plain.digest.hexdigest() != traced.digest.hexdigest():
        log.fail("trace", "traced ops returned other outputs than untraced ones")
    s = tracer.summary()
    for fault in s["faults"]:
        log.fail("trace", fault)
    ops = max(s["ops"], 1)
    count, incl = s["count"], s["incl_ns"]

    def per_op(x):
        return x / ops

    def self_ms(layer):
        return per_op(s["layer_self_ns"].get(layer, 0)) / 1e6

    def calls(name):
        return count.get(name, 0)

    phases = calls("base_solvers.solve_regularized_erm")
    name, parent_name = s["name"], s["parent_name"]
    ids = {n: i for i, n in enumerate(tracer.names)}
    in_phase = int(np.count_nonzero(
        (name == ids.get("losses.batch_ext_gradients", -2))
        & (parent_name == ids.get("base_solvers.solve_regularized_erm", -2))
    ))
    ext_ns = incl.get("losses.batch_ext_gradients", 0)
    generators = [n for n in count if n.startswith("hardness.make_")]
    noise = ("mechanisms.laplace_vector", "mechanisms.gaussian_vector", "mechanisms.audit_mechanism")
    traced_ns = int(s["op_ns"].sum())
    plain_ns = sum(plain.latency_ns)
    metrics = {
        "geometry.as_point_calls": metric(per_op(calls("geometry.as_point")), "count"),
        "geometry.ball_builds": metric(per_op(calls("geometry.Ball.__post_init__")), "count"),
        "geometry.project_calls": metric(per_op(calls("geometry.project_onto_ball")), "count"),
        "geometry.self_ms": metric(self_ms("geometry"), "ms"),
        "interpolation.epochs": metric(per_op(tracer.epochs), "count"),
        "interpolation.self_ms": metric(self_ms("interpolation"), "ms"),
        "base_solvers.phases": metric(per_op(phases), "count"),
        "base_solvers.grad_evals_per_phase": metric(in_phase / phases if phases else 0.0, "ratio"),
        "base_solvers.phase_us": metric(
            incl.get("base_solvers.solve_regularized_erm", 0) / phases / 1e3 if phases else 0.0, "us"
        ),
        "base_solvers.self_ms": metric(self_ms("base_solvers"), "ms"),
        "losses.ext_grad_calls": metric(per_op(calls("losses.batch_ext_gradients")), "count"),
        "losses.ext_grad_rows": metric(per_op(tracer.rows), "count"),
        "losses.clip_ratio": metric(tracer.clipped / tracer.rows if tracer.rows else 0.0, "ratio"),
        "losses.ns_per_row": metric(ext_ns / tracer.rows if tracer.rows else 0.0, "ns"),
        "losses.self_ms": metric(self_ms("losses"), "ms"),
        "hardness.generate_calls": metric(per_op(sum(calls(n) for n in generators)), "count"),
        "hardness.self_ms": metric(self_ms("hardness"), "ms"),
        "problems.instance_builds": metric(per_op(calls("problems.Instance.__post_init__")), "count"),
        "problems.excess_risk_calls": metric(per_op(calls("problems.excess_risk")), "count"),
        "problems.self_ms": metric(self_ms("problems"), "ms"),
        "mechanisms.noise_draws": metric(per_op(sum(calls(n) for n in noise)), "count"),
        "mechanisms.generator_builds": metric(per_op(calls("mechanisms.RngStream.generator")), "count"),
        "mechanisms.mechanism_calls": metric(per_op(calls("mechanisms.audit_mechanism")), "count"),
        "mechanisms.self_ms": metric(self_ms("mechanisms"), "ms"),
        "bench.self_ms": metric(self_ms("bench"), "ms"),
        "harness.self_ms": metric(self_ms(HARNESS), "ms"),
        "trace.self_ms": metric(self_ms(HOOKS), "ms"),
        "traced_op_ms": metric(per_op(traced_ns) / 1e6, "ms"),
        "trace_overhead_frac": metric(traced_ns / plain_ns - 1.0 if plain_ns else 0.0, "ratio"),
    }
    os.makedirs(RESULTS, exist_ok=True)
    spans_path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-spans.npz")
    tracer.save(spans_path)
    extra = {
        "trace_rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "traced_ops": s["ops"],
        "spans": s["spans"],
        "spans_file": os.path.relpath(spans_path, ROOT),
        "layer_self_ms_per_op": {k: v / ops / 1e6 for k, v in s["layer_self_ns"].items()},
        "calls_per_op": {k: v / ops for k, v in sorted(count.items()) if v},
    }
    return metrics, extra


def run_one(args) -> int:
    loadavg = os.getloadavg()
    src = args.src
    dp = import_dpsco(src)
    wl = WORKLOADS[args.workload](dp)
    machine = machine_record(args.seed, loadavg)
    log = OpLog()
    digest, digest_problem = check_digest(wl, log, args.workload)
    if digest_problem:
        log.problems.append(f"digest: {digest_problem}")
    if args.trace:
        metrics, extra = per_layer(args, wl, log, dp)
    else:
        metrics, extra = end_to_end(args, wl, log)
    correct = log.failed == 0 and digest_problem is None
    result = {"correct": correct, "attempted": log.attempted, "failed": log.failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, default_seed_digest=digest, failures=log.problems,
                  machine=machine, **extra)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{log.attempted} ops attempted, {log.failed} failed")
    for name, m in metrics.items():
        note = ""
        if name == "op_ms_tail":
            note = f"  (p{extra['tail_percentile']:.2f} of {extra['timed_ops']} ops)"
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  default-seed digest {digest} ({digest_problem or 'matches'})")
    for problem in log.problems:
        print(f"  FAILED {problem}", file=sys.stderr)
    print(f"  record {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


def probe(args) -> int:
    dp = import_dpsco(args.src)
    WORKLOADS[args.workload](dp)
    print("ready", flush=True)
    return 0


# -- repeat mode ---------------------------------------------------------


def child_run(workload: str, seed: int, seconds: int, src: str) -> tuple[int, dict | None, str]:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--src", src]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def spread_table(values: list[float], bound: float) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"median {med:.6g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
    return (f"median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f} "
            f"(bound {bound}, {flag})")


def repeat(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    k = args.repeat or 1
    sides = [("this", args.src)] + ([("against", args.against)] if args.against else [])
    status = 0
    print(json.dumps(machine_record(args.seed, os.getloadavg())))
    for workload in names:
        runs = {side: [] for side, _ in sides}
        for i in range(k):
            order = sides if i % 2 == 0 else sides[::-1]
            for side, src in order:
                code, result, out = child_run(workload, args.seed + i, args.seconds, src)
                if k == 1 and len(sides) == 1:
                    print(out, end="")
                if code != 0 or result is None or not result["correct"]:
                    status = 1
                    print(f"{workload} {side} seed {args.seed + i}: run failed (exit {code})\n{out}")
                    continue
                runs[side].append(result["metrics"])
        print(f"== {workload}: {k} run(s) of {args.seconds} s, seeds {args.seed}..{args.seed + k - 1}")
        for m in spec["end_to_end"]:
            for side, _ in sides:
                values = [r[m["name"]]["value"] for r in runs[side]]
                if values:
                    print(f"  {m['name']:12s} {m['unit']:5s} {side:7s} "
                          f"{spread_table(values, m['bound'])}")
            if len(sides) == 2 and runs["this"] and runs["against"]:
                pairs = list(zip(runs["this"], runs["against"]))
                sign = 1 if m["better"] == "higher" else -1
                wins = sum(sign * (a[m["name"]]["value"] - b[m["name"]]["value"]) > 0 for a, b in pairs)
                print(f"  {m['name']:12s} this wins {wins} of {len(pairs)} pairs")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="source tree to import dpsco from (default: this checkout's src)")
    parser.add_argument("--repeat", type=int, default=None,
                        help="run K times on seeds seed..seed+K-1 and print the spreads")
    parser.add_argument("--against", default=None,
                        help="with --repeat, pair each run with one importing dpsco from this src")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.probe_setup:
        if args.workload == "all":
            parser.error("name one workload")
        return probe(args)
    if args.seconds is None:
        try:
            with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
                args.seconds = int(json.load(fh)["run_seconds"])
        except (OSError, ValueError, KeyError):
            parser.error("--seconds is needed when BENCHMARK.json is missing")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all" or args.repeat is not None or args.against is not None:
        if args.trace:
            parser.error("--workload all, --repeat and --against run untraced child runs only")
        return repeat(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
