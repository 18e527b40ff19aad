"""The workloads: their inputs, their checks and the expected answers.

A workload builder writes its seeded inputs to a directory and returns a
:class:`Workload`.  A check is called with a complex ``formats.load_path``
made from its input (or ``None``, for a CLI check, which reads its files
itself), and it judges its own result: a
verdict differing from the expected one, or a witness the benchmark's own
code rejects, is a problem.  Every validated witness is also altered and
re-validated, and must then be rejected.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import inputs
import referee as ref
from refcomplex import RefComplex, edge_degrees, flag_problem


@dataclass
class Check:
    label: str
    run: Callable[[Any], Any]          # the timed call, given the loaded input
    judge: Callable[[Any], list]       # problems with its result
    canon: Callable[[Any], Any]        # JSON form of the result, timings excluded
    size: int = 0                      # vertices, when on the scaling ladder
    input: str | None = None           # name of the input it is given loaded


@dataclass
class Workload:
    files: dict                        # input name -> .cplx path
    checks: list
    notes: list = field(default_factory=list)  # problems found while building inputs


def lib(name):
    return sys.modules["combcurv." + name]


def witnessed(validate, w, X) -> list:
    probs = validate(w)
    if not probs and not validate(ref.tamper(w, X)):
        probs = ["validator accepted a tampered witness"]
    return probs


def verdict_json(v):
    return v.to_json()


def expect_verdict(passes, validate=None, X=None, **stats):
    """Judge of a library Verdict: its status, its witness, some stats."""
    def judge(v):
        if v.passed != passes:
            return [f"{v.status}, expected {'pass' if passes else 'fail'}: {v.detail}"]
        doc = v.to_json()
        probs = [f"stats {k}={doc['stats'].get(k)!r}, expected {val!r}"
                 for k, val in stats.items() if doc["stats"].get(k) != val]
        if not passes and validate is not None:
            probs += witnessed(validate, doc["witness"], X)
        return probs
    return judge


# -- local_surfaces ------------------------------------------------------------


RANDOM_INPUTS = 8
# The 16x16 torus and the 8-location check on gs6 are left out: together
# they took 3 s of a 10.5 s pass, and without them a 40 s run gives every
# check at least five samples instead of three.
TORI = (8, 12)
LOCATED_SPHERES = (3, 4, 5)


def local_surfaces(rng, root: Path, work: Path) -> Workload:
    gen = lib("generators")
    entries = []  # (name, kind, maximal, m8 expected or None for no 8-location check)
    for k in (3, 4, 5, 6):
        m = inputs.maximal_of(gen.geodesic_sphere(k))
        deg5 = [v for v, nb in RefComplex(m).adj.items() if len(nb) == 5]
        entries.append((f"gs{k}", "sphere", inputs.relabel(m, rng, rng.choice(deg5)),
                        False if k in LOCATED_SPHERES else None))
    for n in TORI:
        entries.append((f"torus{n}", "torus",
                        inputs.relabel(inputs.maximal_of(gen.tri_torus(n, n)), rng), False))
    for name in ("disk37_r3", "surf37_psl2_7"):
        m = inputs.read_cplx(root / "fixtures" / f"{name}.cplx")
        entries.append((name, "fixture", inputs.relabel(m, rng), True))
    for i in range(RANDOM_INPUTS):
        # Drawn until flag with a vertex whose link is not 5-large, which
        # then gets label 0: the check fails at its first link.
        while True:
            X = gen.random_flag(rng.randint(40, 60), 0.15, rng.randrange(1 << 30))
            m = inputs.maximal_of(X)
            R = RefComplex(m)
            bad = ref.failing_vertices(R, 5) if flag_problem(R) is None else []
            if bad:
                break
        m = inputs.relabel(m, rng, rng.choice(bad))
        entries.append((f"random{i}", "random", m, ref.ref_m_located(RefComplex(m), 8)))

    files, refs = {}, {}
    for name, _kind, m, _ in entries:
        files[name] = work / f"{name}.cplx"
        inputs.write_cplx(files[name], m)
        refs[name] = RefComplex(m)

    curv, cx = lib("curvature"), lib("complexes")
    checks = []
    for name, kind, _m, m8 in entries:
        R = refs[name]
        k = {"sphere": 5, "torus": 6, "fixture": 7, "random": 5}[kind]
        checks.append(Check(f"{name}/is_flag", lambda X: cx.is_flag(X),
                            expect_verdict(True), verdict_json, input=name))
        if kind == "random":
            lk = expect_verdict(False, lambda w, R=R: ref.cycle_in_link_problems(R, w, 5), R)
        else:
            lk = expect_verdict(True)
        checks.append(Check(f"{name}/locally_{k}_large",
                            lambda X, k=k: curv.is_locally_k_large(X, k), lk, verdict_json,
                            size=len(R.vertices) if kind == "sphere" else 0, input=name))
        if kind == "sphere":
            checks.append(Check(
                f"{name}/locally_6_large", lambda X: curv.is_locally_k_large(X, 6),
                expect_verdict(False, lambda w, R=R: sphere_link_problems(R, w), R),
                verdict_json, input=name))
        if m8 is None:
            continue
        m8_judge = (expect_verdict(True, dwheels=0) if kind == "fixture" else
                    expect_verdict(m8, lambda w, R=R: ref.unlocated_problems(R, w, 8), R))
        checks.append(Check(f"{name}/8_located", lambda X: curv.is_m_located(X, 8),
                            m8_judge, verdict_json, input=name))
    return Workload(files, checks)


def sphere_link_problems(R, w) -> list:
    """Locally 6-large fails on a geodesic sphere with a chordless 5-cycle
    in the link of a degree-5 vertex."""
    probs = ref.cycle_in_link_problems(R, w, 6, length=5)
    if not probs and (len(w["simplex"]) != 1 or len(R.neighbors(w["simplex"][0])) != 5):
        probs = [f"simplex {w['simplex']} is not a degree-5 vertex"]
    return probs


# -- cover_balls ----------------------------------------------------------------


COVER_RADII = (2, 3, 4, 5)
# Sphere sizes of the universal-cover balls: the {3,7} tiling covers the
# PSL(2,7) surface (a_{i+1} = 3 a_i - a_{i-1}), the {3,6} lattice the torus.
COVER_SPHERES = {"surf37": (1, 7, 21, 56, 147, 385), "torus8": (1, 6, 12, 18, 24, 30)}
# The torus is not 8-located, so the interior of a ball with a radius-2
# interior holds an unlocated dwheel.
INTERIOR_LOCATED = {"surf37": lambda r: True, "torus8": lambda r: r < 3}
LADDER_TARGET = "surf37"
LADDER_RADII = (3, 4, 5)


def cover_balls(rng, root: Path, work: Path) -> Workload:
    gen = lib("generators")
    targets = {
        "surf37": inputs.relabel(inputs.read_cplx(root / "fixtures" / "surf37_psl2_7.cplx"), rng),
        "torus8": inputs.relabel(inputs.maximal_of(gen.tri_torus(8, 8)), rng),
    }
    files, refs, bases = {}, {}, {}
    for name, m in targets.items():
        files[name] = work / f"{name}.cplx"
        inputs.write_cplx(files[name], m)
        refs[name] = RefComplex(m)
        bases[name] = rng.choice(refs[name].vertices)

    cov = lib("cover")
    checks = []
    for name in targets:
        for r in COVER_RADII:
            size = sum(COVER_SPHERES[name][:r + 1])
            checks.append(Check(
                f"{name}/build_cover(r={r})",
                lambda X, b=bases[name], r=r: cov.build_cover(X, b, r),
                lambda rep, name=name, r=r: cover_problems(rep, refs[name], name, r),
                lambda rep: rep.to_json(),
                size=size if name == LADDER_TARGET and r in LADDER_RADII else 0,
                input=name))
    return Workload(files, checks)


def cover_problems(rep, target: RefComplex, name, r) -> list:
    """Expected answers plus an independent check of the ball: its metric
    spheres, the sheet map as a local isomorphism (onto the full 1-ball of
    the image at interior vertices) and its interval thinness."""
    spheres = COVER_SPHERES[name][:r + 1]
    expect_stats = [(i, sum(spheres[:i + 1]), spheres[i] if i > 1 else 0) for i in range(1, r + 1)]
    got_stats = [(s[0], s[1], s[3]) for s in rep.stage_stats]
    probs = []
    if got_stats != expect_stats:
        probs.append(f"stages (stage, vertices, classes) {got_stats}, expected {expect_stats}")
    doc = rep.to_json()
    for key in ("sd", "covering", "shortcut", "interior_large"):
        if doc[key]["status"] != "pass":
            probs.append(f"{key} failed: {doc[key].get('detail')}")
    if not rep.passed or rep.state.warnings:
        probs.append(f"report status {doc['status']} with warnings {doc['warnings']}")
    if probs:
        return probs

    state = rep.state
    ball = RefComplex([s for d in range(4) for s in state.ball.simplices(d)])
    f = state.sheet_map
    dist = ball.distances(state.base)
    layers = [sum(1 for d in dist.values() if d == i) for i in range(r + 1)]
    if layers != list(spheres) or len(dist) != len(ball.vertices):
        return [f"ball layers {layers}, expected {list(spheres)}"]
    if any(not target.has_simplex([f[u] for u in s]) for s in ball.faces):
        return ["a simplex of the ball maps to a non-simplex"]
    for v in ball.vertices:
        star = {v} | ball.neighbors(v)
        image = {f[u] for u in star}
        if len(image) != len(star):
            return [f"sheet map not injective on the 1-ball of {v}"]
        if dist[v] < r and image != {f[v]} | target.neighbors(f[v]):
            return [f"interior vertex {v} does not cover the 1-ball of {f[v]}"]

    interior = [v for v in ball.vertices if dist[v] < r]
    located = INTERIOR_LOCATED[name](r)
    if (doc["interior_located"]["status"] == "pass") != located:
        probs.append(f"interior_located {doc['interior_located']['status']}, expected "
                     f"{'pass' if located else 'fail'}")
    elif not located:
        inner = ball.span(interior)
        probs += witnessed(lambda w: ref.unlocated_problems(inner, w, 8),
                           doc["interior_located"]["witness"], inner)
    thin = thinness(ball, state.base, interior)
    if rep.max_interior_thinness != thin:
        probs.append(f"interior thinness {rep.max_interior_thinness}, recomputed {thin}")
    return probs


def thinness(ball: RefComplex, base, interior) -> int:
    """Largest distance between two vertices of one layer of a geodesic
    interval from ``base`` to an interior vertex."""
    dist = {v: ball.distances(v) for v in interior}
    best = 0
    for v in interior:
        n = dist[base][v]
        for k in range(1, n):
            layer = [u for u in interior if dist[base][u] == k and dist[v][u] == n - k]
            for i, a in enumerate(layer):
                for b in layer[i + 1:]:
                    best = max(best, dist[a][b])
    return best


# -- manifold_cli ------------------------------------------------------------------


def manifold_cli(rng, root: Path, work: Path, delta_gs3: str) -> Workload:
    gen = lib("generators")
    tets = inputs.cell600()
    notes = inputs.cell600_problems(tets)
    spheres = {k: inputs.maximal_of(gen.geodesic_sphere(k)) for k in (3, 4)}
    maximal = {
        "cell600": inputs.relabel(tets, rng),
        "bd4": inputs.relabel(inputs.maximal_of(gen.boundary_4_simplex()), rng),
        "gs3": inputs.relabel(spheres[3], rng),
        "gs4": inputs.relabel(spheres[4], rng),
    }
    files = {}
    for name, m in maximal.items():
        files[name] = work / f"{name}.cplx"
        inputs.write_cplx(files[name], m)
    c600, bd4 = RefComplex(maximal["cell600"]), RefComplex(maximal["bd4"])
    deg600, deg_bd4 = edge_degrees(maximal["cell600"]), edge_degrees(maximal["bd4"])
    sd_base = rng.choice(RefComplex(maximal["gs4"]).vertices)

    def low_triangle(w):
        return ref.low_triangle_problems(c600, deg600, w)

    def validate_judge(out):
        doc = out[1]
        stages = [v["status"] for v in doc["verdicts"]]
        if stages != ["pass", "pass", "pass", "fail"]:
            return [f"validate stages {stages}, expected pass x3 then five_six_star fail"]
        degs = doc["report"]["edge_degrees"]
        if len(degs) != 720 or set(degs.values()) != {5}:
            return ["edge degrees are not 720 edges of degree 5"]
        return witnessed(low_triangle, doc["verdicts"][3]["witness"], c600)

    def links_judge(out):
        verdicts = out[1]["verdicts"]
        if [v["check"] for v in verdicts] != [f"link_{v}" for v in c600.vertices]:
            return ["links does not report one verdict per vertex"]
        probs = []
        for v, vd in zip(c600.vertices, verdicts):
            if vd["status"] != "fail":
                return [f"link of {v} passed the 5/6* sphere check"]
            probs += witnessed(lambda w, v=v: ref.adjacent_low_problems(c600, deg600, v, w),
                               vd["witness"], c600)
        return probs

    def check_judge(out):
        verdicts = out[1]["verdicts"]
        got = [(v["check"], v["status"]) for v in verdicts]
        if got != [("is_locally_k_large", "pass"), ("is_m_located", "fail")]:
            return [f"check verdicts {got}, expected locally 5-large and not 8-located"]
        return witnessed(lambda w: ref.unlocated_problems(c600, w, 8), verdicts[1]["witness"], c600)

    def theorem_b_judge(validate, X):
        def judge(out):
            (v,) = out[1]["verdicts"]
            if v["status"] != "fail" or v["stats"].get("stage") != "five_six_star":
                return [f"theorem-b {v['status']} at {v['stats'].get('stage')}, "
                        "expected to stop at five_six_star"]
            return witnessed(validate, v["witness"], X)
        return judge

    def all_pass_judge(out):
        bad = [v["check"] for v in out[1]["verdicts"] if v["status"] != "pass"]
        return [f"failed: {bad}"] if bad or not out[1]["verdicts"] else []

    def delta_judge(out):
        return [] if out[1].get("delta") == delta_gs3 else \
            [f"delta {out[1].get('delta')}, reference {delta_gs3}"]

    def sd_judge(out):
        return [] if out[1]["report"]["status"] == "pass" else ["descent property failed"]

    plan = [
        ("validate", ["validate", "cell600"], 1, validate_judge, 0),
        ("links", ["links", "cell600"], 1, links_judge, 0),
        ("check", ["check", "--k", "5", "--m", "8", "cell600"], 1, check_judge, 0),
        ("theorem-b", ["theorem-b", "cell600"], 1, theorem_b_judge(low_triangle, c600), 120),
        ("theorem-b", ["theorem-b", "bd4"], 1,
         theorem_b_judge(lambda w: ref.edge_degree_problems(deg_bd4, w), bd4), 5),
        ("lemmas", ["lemmas", "gs4"], 0, all_pass_judge, 0),
        ("metric", ["metric", "--delta", "gs3"], 0, delta_judge, 0),
        ("sd", ["sd", "--base", str(sd_base), "--n", "4", "gs4"], 0, sd_judge, 0),
    ]

    checks = []
    for cmd, argv, code, judge, size in plan:
        argv = ["--json"] + [str(files[a]) if a in files else a for a in argv]
        label = f"{argv[-1].rsplit('/', 1)[-1]}/{cmd}"
        checks.append(Check(label, lambda _X, argv=argv: run_cli(argv),
                            cli_judge(code, judge), cli_canon, size=size))
    return Workload(files, checks, notes)


def run_cli(argv):
    """One in-process ``combcurv`` command: (exit code, standard output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = lib("cli").main(argv)
    return code, out.getvalue()


def cli_canon(out):
    """(exit code, parsed JSON output) of a CLI check."""
    try:
        return [out[0], json.loads(out[1])]
    except json.JSONDecodeError:
        return [out[0], {"stdout": out[1]}]


def cli_judge(code, judge):
    def check(out):
        out = cli_canon(out)
        if out[0] != code:
            return [f"exit code {out[0]}, expected {code}: {str(out[1])[:200]}"]
        return judge(out)
    return check
