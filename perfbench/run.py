"""combcurv benchmark: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload local_surfaces --seed 1 --seconds 40 --trace 0

The seed makes the inputs (see ``workloads.py``); each run imports
``combcurv`` from ``src/``, writes its inputs under ``perfbench/_work/`` and
removes them at exit.  A run sets up (imports, then loads every input with
``formats.load_path``, several times), then makes a pass over the
workload's checks, one call at a time in this process, each on its own
newly loaded copy of its input, and judges every result.  With ``--trace 0``
the checks then run again, in rounds, until ``--seconds`` have passed, and
the run reports the end-to-end metrics; with ``--trace 1`` a traced pass
follows and the run reports the per-layer metrics.  End-to-end times are
scaled to a reference speed (see ``PROBE_REF_S``).  The last line of
standard output is the JSON result.  Without ``src/combcurv`` and
``tests/oracles.py`` the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("local_surfaces", "cover_balls", "manifold_cli")
# After the first pass the checks run again, in rounds, for the rest of
# --seconds: first whole passes, as many as fit, so that long checks too have
# several samples; then the time left is shared evenly, so a short check gets
# many samples (at most MAX_SAMPLES).  PLAN_SHARE of the time left is
# planned; the rest absorbs slow samples.
MAX_SAMPLES = 20
PLAN_SHARE = 0.9
SETUP_ROUNDS = 11
IMPORT_ROUNDS = 11
# End-to-end times are scaled to a reference speed.  On a shared host a
# process runs at its usual speed with bursts of seconds up to 1.5x faster,
# and the mix drifts over minutes, so raw times of the same code spread by a
# quarter from run to run.  A fixed piece of work that does not call
# combcurv, the probe, is timed just before and just after every timed
# region, and the region's time is multiplied by PROBE_REF_S / (mean of the
# two probe times): the time it would take at the speed where the probe takes
# PROBE_REF_S (about its usual time on the host the benchmark was tuned on).
# Per-layer (traced) times stay raw.
PROBE_REF_S = 0.0015
PROBE_SIDE = 16
PROBE_STEPS = ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1))
PROBE_GRAPH = {  # the triangulated PROBE_SIDE x PROBE_SIDE torus, as neighbour sets
    i * PROBE_SIDE + j: frozenset(((i + di) % PROBE_SIDE) * PROBE_SIDE + (j + dj) % PROBE_SIDE
                                  for di, dj in PROBE_STEPS)
    for i in range(PROBE_SIDE) for j in range(PROBE_SIDE)}
CHECK_LIMIT_S = 60        # a check running longer counts as wrong
DEADLINE_S = 150          # no check starts after this many seconds of a run
# Per check, the self times of its spans must sum to its wall time within this.
SELF_SUM_TOL = (0.001, 0.01)  # seconds, share of the check's wall time

E2E = [("setup_s", "s"), ("wall_s", "s"), ("verdict_ms_p50", "ms"),
       ("verdict_ms_tail", "ms"), ("scaling_exp", "1"), ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("complexes.link.calls", "count", "lower"),
    ("complexes.link.s", "s", "lower"),
    ("complexes.link.self_s", "s", "lower"),
    ("complexes.build.calls", "count", "lower"),
    ("complexes.build.s", "s", "lower"),
    ("complexes.span.calls", "count", "lower"),
    ("complexes.span.s", "s", "lower"),
    ("complexes.span.self_s", "s", "lower"),
    ("complexes.full_cycles.calls", "count", "lower"),
    ("complexes.full_cycles.s", "s", "lower"),
    ("complexes.full_cycles.found", "count", "higher"),
    ("complexes.is_flag.s", "s", "lower"),
    ("complexes.maximal_simplices.calls", "count", "lower"),
    ("complexes.maximal_simplices.s", "s", "lower"),
    ("curvature.is_locally_k_large.s", "s", "lower"),
    ("curvature.is_locally_k_large.self_s", "s", "lower"),
    ("curvature.is_locally_k_large.links_checked", "count", "lower"),
    ("curvature.wheels.s", "s", "lower"),
    ("curvature.wheels.self_s", "s", "lower"),
    ("curvature.wheels.found", "count", "higher"),
    ("curvature.dwheels.s", "s", "lower"),
    ("curvature.dwheels.self_s", "s", "lower"),
    ("curvature.dwheels.found", "count", "higher"),
    ("curvature.dwheels.found_per_wheel", "1", "higher"),
    ("curvature.in_one_ball.calls", "count", "lower"),
    ("curvature.in_one_ball.s", "s", "lower"),
    ("curvature.is_m_located.s", "s", "lower"),
    ("curvature.check_covering_map.calls", "count", "lower"),
    ("curvature.check_covering_map.s", "s", "lower"),
    ("curvature.check_covering_map.self_s", "s", "lower"),
    ("metric.distances_from.calls", "count", "lower"),
    ("metric.distances_from.s", "s", "lower"),
    ("metric.distances_from.repeat_ratio", "1", "lower"),
    ("metric.interval.calls", "count", "lower"),
    ("metric.interval.s", "s", "lower"),
    ("metric.interval_thinness.s", "s", "lower"),
    ("metric.check_sd_prime.calls", "count", "lower"),
    ("metric.check_sd_prime.s", "s", "lower"),
    ("metric.delta_four_point.s", "s", "lower"),
    ("metric.delta_four_point.self_s", "s", "lower"),
    ("cover.init_cover.s", "s", "lower"),
    ("cover.expand_ball.calls", "count", "lower"),
    ("cover.expand_ball.s", "s", "lower"),
    ("cover.expand_ball.self_s", "s", "lower"),
    ("cover.verify_equiv_shortcut.s", "s", "lower"),
    ("cover.final_verify.s", "s", "lower"),
    ("cover.classes", "count", "higher"),
    ("cover.classes.stage2", "count", "higher"),
    ("cover.classes.stage3", "count", "higher"),
    ("cover.classes.stage4", "count", "higher"),
    ("cover.classes.stage5", "count", "higher"),
    ("cover.ball_vertices", "count", "higher"),
    ("manifold.validate_closed_3manifold.s", "s", "lower"),
    ("manifold.validate_closed_3manifold.self_s", "s", "lower"),
    ("manifold.vertex_link_sphere.calls", "count", "lower"),
    ("manifold.vertex_link_sphere.s", "s", "lower"),
    ("manifold.is_5_6_star_sphere.calls", "count", "lower"),
    ("manifold.is_5_6_star_sphere.s", "s", "lower"),
    ("manifold.sphere_lemmas.s", "s", "lower"),
    ("manifold.verify_theorem_b.s", "s", "lower"),
    ("manifold.theorem_b.stage_reached", "stage", "higher"),
    ("formats.load_path.calls", "count", "lower"),
    ("formats.load_path.s", "s", "lower"),
    ("formats.bytes_read", "B", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.stdout_bytes", "B", "lower"),
    ("parallel.parallel_map.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_sum_max_err_s", "s", "lower"),
    ("output.digest", "id", "higher"),
]


class CheckTimeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise CheckTimeout(f"check ran past {CHECK_LIMIT_S} s")


@dataclass
class Result:
    check: object
    out: object
    error: str | None
    seconds: float           # raw
    scaled: float = 0.0      # at the reference speed
    self_sum: float = 0.0


def probe() -> float:
    """Seconds the probe takes now: breadth-first searches and a triangle
    count on PROBE_GRAPH, the dict and set work combcurv's checks are made
    of.  It tracks their speed better than an arithmetic loop does."""
    t0 = perf_counter()
    for root in (0, PROBE_SIDE * PROBE_SIDE // 2):
        dist = {root: 0}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for u in PROBE_GRAPH[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        sum(1 for v, nb in PROBE_GRAPH.items() for u in nb if u > v
            for w in nb & PROBE_GRAPH[u] if w > u)
    return perf_counter() - t0


def scale(seconds, before, after) -> float:
    """A raw time at the reference speed, from the probes around it."""
    return seconds * 2 * PROBE_REF_S / (before + after)


def import_seconds() -> float:
    """Median time, scaled, to import combcurv (package and CLI) from
    scratch.  The modules of the previous round are collected first, as a
    new process would not have them."""
    times = []
    for _ in range(IMPORT_ROUNDS):
        for name in [n for n in sys.modules if n == "combcurv" or n.startswith("combcurv.")]:
            del sys.modules[name]
        gc.collect()
        before = probe()
        t0 = perf_counter()
        importlib.import_module("combcurv")
        importlib.import_module("combcurv.cli")
        times.append(scale(perf_counter() - t0, before, probe()))
    importlib.import_module("combcurv.generators")
    return statistics.median(times)


def load_all(files, seconds=None) -> dict:
    """Every input, loaded; with ``seconds``, each load's time is appended
    to ``seconds[name]``."""
    formats = sys.modules["combcurv.formats"]
    loaded = {}
    for name, path in files.items():
        t0 = perf_counter()
        loaded[name] = formats.load_path(path).complex
        if seconds is not None:
            seconds.setdefault(name, []).append(perf_counter() - t0)
    return loaded


def fresh_inputs(files, checks) -> list:
    """A newly loaded copy of each check's input, so that no call runs on
    what an earlier one left in a complex (such as its distance cache)."""
    formats = sys.modules["combcurv.formats"]
    return [formats.load_path(files[c.input]).complex if c.input else None for c in checks]


def run_pass(checks, inputs, started, tracer=None, fits=None) -> tuple:
    """Run the checks one after another on their inputs, with a probe
    between two checks; ``fits(check)`` false skips one."""
    results = []
    gc.collect()
    t_pass = perf_counter()
    before = probe()
    for c, X in zip(checks, inputs):
        if fits is not None and not fits(c):
            continue
        if perf_counter() - started > DEADLINE_S:
            results.append(Result(c, None, f"not started: run past {DEADLINE_S} s", 0.0))
            continue
        if tracer is not None:
            tracer.begin_check()
        signal.setitimer(signal.ITIMER_REAL, CHECK_LIMIT_S)
        t0 = perf_counter()
        try:
            out, error = c.run(X), None
        except CheckTimeout as exc:
            out, error = None, str(exc)
        except Exception as exc:  # any exception is a wrong answer, reported
            out, error = None, f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        after = probe()
        results.append(Result(c, out, error, dt, scale(dt, before, after),
                              tracer.check_self if tracer else 0.0))
        before = after
    return results, perf_counter() - t_pass


def plan_repeats(first, load_s, budget) -> dict:
    """Repeats per check label within ``budget`` seconds, a repeat costing
    the check's first-pass time plus the loading of its input.  Longest
    first, checks whose single repeat would not fit get none.  The others
    get as many repeats as whole passes over them fit, and then the most
    ``n`` with ``n * cost <= share``, for the largest even ``share`` that
    keeps the total within ``budget``."""
    cost = {r.check.label: r.seconds + load_s.get(r.check.input, 0.0)
            for r in first if not r.error}
    labels = sorted(cost, key=cost.get)
    while labels and sum(cost[x] for x in labels) > budget:
        labels.pop()
    if not labels:
        return {}
    rounds = int(budget / sum(cost[x] for x in labels))

    def counts(share):
        return {x: min(MAX_SAMPLES - 1, max(rounds, int(share / cost[x]))) for x in labels}

    lo, hi = 0.0, budget
    for _ in range(50):
        mid = (lo + hi) / 2
        if sum(n * cost[x] for x, n in counts(mid).items()) <= budget:
            lo = mid
        else:
            hi = mid
    return counts(lo)


def canon_of(results) -> list:
    return [[r.check.label, r.error if r.error else r.check.canon(r.out)] for r in results]


def digest(canon) -> str:
    text = json.dumps(canon, sort_keys=True, default=str, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def judge(results, reference=None, canon=True) -> list:
    """Problems of each result.  A result whose canonical JSON equals that of
    the judged first pass shares its judgement (``canon=False``: the outputs
    are canonical JSON already)."""
    out = []
    for r in results:
        if r.error:
            out.append([r.error])
        elif reference is not None:
            same = (r.check.canon(r.out) if canon else r.out) == reference[r.check.label]
            out.append([] if same else ["output differs from the first pass"])
        else:
            out.append(r.check.judge(r.out))
    return out


def tail(values) -> tuple:
    """Value at the highest percentile with at least ten samples beyond it
    (the maximum when there are fewer than eleven samples), with that
    percentile."""
    xs = sorted(values)
    i = max(len(xs) - 11, 0) if len(xs) > 10 else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs)


def slope(points) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def latency(samples) -> float:
    """A check's latency: the median of its scaled samples."""
    return statistics.median(samples)


def end_to_end(setup_s, checks, samples) -> tuple:
    """Each check's latency comes from its samples; the pass time is their
    sum, and the percentiles are taken over the checks."""
    lat = [latency(samples[c.label]) for c in checks]
    t, pct = tail(lat)
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(lat),
        "verdict_ms_p50": 1000 * statistics.median(lat),
        "verdict_ms_tail": 1000 * t,
        "scaling_exp": slope([(c.size, x) for c, x in zip(checks, lat) if c.size]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    n = sum(len(v) for v in samples.values())
    return metrics, f"{n} samples, tail at p{pct:.1f} of {len(lat)} checks"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = perf_counter()

    if not (ROOT / "src" / "combcurv" / "__init__.py").is_file() \
            or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} holds no src/combcurv and tests/oracles.py", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        doc = json.loads(spec.read_text(encoding="utf-8"))
        if ([m["name"] for m in doc["end_to_end"]] != [n for n, _ in E2E]
                or [m["name"] for m in doc["per_layer"]] != [n for n, _, _ in PER_LAYER]):
            print("error: BENCHMARK.json names other metrics than run.py reports", file=sys.stderr)
            return 2
    os.environ.pop("COMBCURV_JOBS", None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import_s = import_seconds()

    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # still remove the inputs
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, started, import_s, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it


def measure(args, started, import_s, work) -> int:
    import spans      # these need src/ and tests/ on sys.path
    import workloads

    rng = random.Random(args.seed)
    if args.workload == "manifold_cli":
        ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        wl = workloads.manifold_cli(rng, ROOT, work, ref["gs3_delta"])
    else:
        wl = getattr(workloads, args.workload)(rng, ROOT, work)
    problems = [f"input: {p}" for p in wl.notes]

    load_times, per_input = [], {}
    for _ in range(SETUP_ROUNDS):
        before = probe()
        t0 = perf_counter()
        load_all(wl.files, per_input)
        load_times.append(scale(perf_counter() - t0, before, probe()))
    setup_s = import_s + statistics.median(load_times)
    load_s = {name: statistics.median(ts) for name, ts in per_input.items()}
    checks = wl.checks

    t_start = perf_counter()
    passes = [run_pass(checks, fresh_inputs(wl.files, checks), started)]
    first_canon = canon_of(passes[0][0])
    first = dict(first_canon)
    hexdigest = digest(first_canon)
    if not args.trace:
        first_s = {r.check.label: r.seconds for r in passes[0][0]}
        plan = plan_repeats(passes[0][0], load_s,
                            PLAN_SHARE * (args.seconds - (perf_counter() - t_start)))

        def fits(c):
            return perf_counter() - t_start + first_s[c.label] <= args.seconds

        for rnd in range(1, max(plan.values(), default=0) + 1):
            todo = [c for c in checks if plan.get(c.label, 0) >= rnd]
            passes.append(run_pass(todo, fresh_inputs(wl.files, todo), started, fits=fits))
            for r in passes[-1][0]:  # outputs of repeats are only compared, then dropped
                r.out = r.check.canon(r.out) if r.error is None else None
    verdicts = judge(passes[0][0])
    verdicts += [ps for results, _ in passes[1:] for ps in judge(results, first, canon=False)]

    if args.trace:
        inputs = fresh_inputs(wl.files, checks)
        tracer = spans.Tracer()
        tracer.install()
        try:
            load_all(wl.files)  # one traced load of every input, as in set-up
            traced, traced_wall = run_pass(checks, inputs, started, tracer)
        finally:
            tracer.uninstall()
        verdicts += judge(traced, first)
        passes.append((traced, traced_wall))
        tracer.counts["trace.overhead_s"] = traced_wall - passes[0][1]
        tracer.counts["cli.stdout_bytes"] = sum(len(r.out[1].encode()) for r in traced
                                                if isinstance(r.out, tuple))  # CLI checks
        errs = [abs(r.self_sum - r.seconds) for r in traced]
        tracer.counts["trace.self_sum_max_err_s"] = max(errs)
        for r, e in zip(traced, errs):
            if e > SELF_SUM_TOL[0] + SELF_SUM_TOL[1] * r.seconds:
                problems.append(f"{r.check.label}: span self times sum to {r.self_sum:.6f} s "
                                f"but the check took {r.seconds:.6f} s")
        tracer.counts["output.digest"] = int(hexdigest[:12], 16)
        metrics = {name: {"value": tracer.value(name), "unit": unit}
                   for name, unit, _ in PER_LAYER}
        note = f"trace overhead {tracer.counts['trace.overhead_s']:.3f} s"
    else:
        samples = {c.label: [] for c in checks}
        for results, _ in passes:
            for r in results:
                samples[r.check.label].append(r.scaled)
        values, note = end_to_end(setup_s, checks, samples)
        speed = statistics.median(r.seconds / r.scaled for rs, _ in passes for r in rs if r.scaled)
        note += f", raw times {speed:.3f}x the scaled ones (median)"
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E}

    results = [r for rs, _ in passes for r in rs]
    problems += [f"{r.check.label}: {p}" for r, ps in zip(results, verdicts) for p in ps]
    failed = sum(1 for ps in verdicts if ps)
    attempted = len(results)
    for line in problems:
        print(f"problem: {line}")
    print(f"{args.workload} seed={args.seed}: {len(passes)} pass(es), {len(checks)} checks, "
          f"{note}, error_rate {failed / attempted:.4f}, digest {hexdigest[:16]}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
