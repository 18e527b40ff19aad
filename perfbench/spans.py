"""Spans recorded by the benchmark around calls into combcurv's modules.

``Tracer.install`` replaces every binding of each traced function, in
every loaded ``combcurv`` module and on ``SimplicialComplex``, with one
wrapper that records a span; ``Tracer.uninstall`` puts the originals back.
A function the program no longer has is skipped, so its metrics read zero.

A span's self time is its duration minus the durations of its direct
children.  Spans nest strictly (one thread, no generators traced), so the
self times of the spans inside one check sum to the duration of its
outermost spans.
"""

from __future__ import annotations

import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

# metric prefix -> (module, attribute path) of the traced function
SPANS = {
    "complexes.build": ("complexes", "SimplicialComplex.__init__"),
    "complexes.link": ("complexes", "SimplicialComplex.link"),
    "complexes.span": ("complexes", "SimplicialComplex.span"),
    "complexes.maximal_simplices": ("complexes", "SimplicialComplex.maximal_simplices"),
    "complexes.full_cycles": ("complexes", "full_cycles"),
    "complexes.is_flag": ("complexes", "is_flag"),
    "curvature.is_locally_k_large": ("curvature", "is_locally_k_large"),
    "curvature.wheels": ("curvature", "wheels"),
    "curvature.dwheels": ("curvature", "dwheels"),
    "curvature.in_one_ball": ("curvature", "in_one_ball"),
    "curvature.is_m_located": ("curvature", "is_m_located"),
    "curvature.check_covering_map": ("curvature", "check_covering_map"),
    "metric.distances_from": ("metric", "distances_from"),
    "metric.interval": ("metric", "interval"),
    "metric.interval_thinness": ("metric", "interval_thinness"),
    "metric.check_sd_prime": ("metric", "check_sd_prime"),
    "metric.delta_four_point": ("metric", "delta_four_point"),
    "cover.init_cover": ("cover", "init_cover"),
    "cover.expand_ball": ("cover", "expand_ball"),
    "cover.verify_equiv_shortcut": ("cover", "verify_equiv_shortcut"),
    "cover.build_cover": ("cover", "build_cover"),
    "manifold.validate_closed_3manifold": ("manifold", "validate_closed_3manifold"),
    "manifold.vertex_link_sphere": ("manifold", "vertex_link_sphere"),
    "manifold.is_5_6_star_sphere": ("manifold", "is_5_6_star_sphere"),
    "manifold.check_sphere_cycle_lemma": ("manifold", "check_sphere_cycle_lemma"),
    "manifold.check_7cycle_fillings": ("manifold", "check_7cycle_fillings"),
    "manifold.verify_theorem_b": ("manifold", "verify_theorem_b"),
    "formats.load_path": ("formats", "load_path"),
    "cli.main": ("cli", "main"),
    "parallel.parallel_map": ("parallel", "parallel_map"),
}

THEOREM_B_STAGES = ("validate", "five_six_star", "is_flag", "locally_5_large",
                    "8_located", "dwheel_types")


class Tracer:
    def __init__(self):
        self.stack = []          # child time of each open span
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.check_self = 0.0    # self time summed over the current check
        self.dist_seen = {}      # id(complex) -> (complex, bases seen)
        self.expand_end = None
        self.restore = []

    # -- spans -----------------------------------------------------------

    def wrap(self, name, fn):
        stack = self.stack
        hook = getattr(self, "on_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                child = stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1] += dt
                self.calls[name] += 1
                self.incl[name] += dt
                self.self_s[name] += dt - child
                self.check_self += dt - child
            if hook is not None:
                hook(args, out, t0, t1)
            return out

        return traced

    def begin_check(self):
        self.check_self = 0.0

    # -- counters read from arguments and results --------------------------

    def on_complexes_full_cycles(self, args, out, t0, t1):
        self.counts["complexes.full_cycles.found"] += len(out)

    def on_curvature_wheels(self, args, out, t0, t1):
        self.counts["curvature.wheels.found"] += len(out)

    def on_curvature_dwheels(self, args, out, t0, t1):
        self.counts["curvature.dwheels.found"] += len(out)

    def on_curvature_is_locally_k_large(self, args, out, t0, t1):
        self.counts["curvature.is_locally_k_large.links_checked"] += out.stats.get("links_checked", 0)

    def on_metric_distances_from(self, args, out, t0, t1):
        X, base = args[0], args[1]
        _, bases = self.dist_seen.setdefault(id(X), (X, set()))
        if base in bases:
            self.counts["metric.distances_from.repeats"] += 1
        bases.add(base)

    def on_cover_build_cover(self, args, out, t0, t1):
        self.counts["cover.ball_vertices"] += out.state.ball.vertex_count
        start = self.expand_end if self.expand_end is not None and self.expand_end > t0 else None
        if start is not None:
            self.counts["cover.final_verify.s"] += t1 - start

    def on_cover_init_cover(self, args, out, t0, t1):
        self.expand_end = t1

    def on_cover_expand_ball(self, args, out, t0, t1):
        self.expand_end = t1
        self.counts["cover.classes"] += len(out.last_classes)
        self.counts[f"cover.classes.stage{out.stage}"] += len(out.last_classes)

    def on_manifold_verify_theorem_b(self, args, out, t0, t1):
        stage = out.stats.get("stage")
        reached = THEOREM_B_STAGES.index(stage) + 1 if stage in THEOREM_B_STAGES else \
            len(THEOREM_B_STAGES) + 1
        key = "manifold.theorem_b.stage_reached"
        self.counts[key] = max(self.counts[key], reached)

    def on_formats_load_path(self, args, out, t0, t1):
        self.counts["formats.bytes_read"] += os.path.getsize(args[0])

    # -- patching ------------------------------------------------------------

    def install(self, package="combcurv"):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for name, (mod_name, path) in SPANS.items():
            mod = sys.modules.get(f"{package}.{mod_name}")
            owner, attr = mod, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(mod, cls_name, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                continue
            w = self.wrap(name, orig)
            if owner is not mod:
                setattr(owner, attr, w)
                self.restore.append((owner, attr, orig))
                continue
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, w)
                        self.restore.append((m, key, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self.restore):
            setattr(owner, attr, orig)
        self.restore.clear()

    # -- report ----------------------------------------------------------------

    def value(self, metric):
        """Value of one per-layer metric name."""
        if metric in self.counts:
            return self.counts[metric]
        prefix, _, field = metric.rpartition(".")
        if field == "calls":
            return self.calls[prefix]
        if field == "s":
            if prefix == "manifold.sphere_lemmas":
                return (self.incl["manifold.check_sphere_cycle_lemma"]
                        + self.incl["manifold.check_7cycle_fillings"])
            return self.incl[prefix]
        if field == "self_s":
            return self.self_s[prefix]
        if metric == "curvature.dwheels.found_per_wheel":
            wheels = self.counts["curvature.wheels.found"]
            return self.counts["curvature.dwheels.found"] / wheels if wheels else 0.0
        if metric == "metric.distances_from.repeat_ratio":
            calls = self.calls["metric.distances_from"]
            return self.counts["metric.distances_from.repeats"] / calls if calls else 0.0
        return 0
