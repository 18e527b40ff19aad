#!/usr/bin/env python3
"""Best-of-N times, in ms, of the chordless-cycle kernel and of the
four-point constant on fixed cases.

The cycle cases are the guard cases of ROADMAP item 2, where a change to
``chordless_cycles`` has been slower before, and the surfaces where a
distance bound prunes:

- the 120 vertex links of the 600-cell at lengths 4-5 (the rims of
  ``check --k 5 --m 8``);
- the vertex links of ``random_flag(40, 0.3, s)``, s = 0..5, at 4-8, and
  those of ``random_flag(50, 0.15, s)`` at 6-8;
- ``full_cycles`` on the 1-skeletons of ``random_flag(40, 0.3, s)`` at
  4-7 and 4-8 and of ``random_flag(60, 0.15, s)`` at 4-7, s = 0..5;
- ``full_cycles(gs4, 4, 7)`` (the ``lemmas gs4`` search), with the
  generated ids and with ids shuffled by ``random.Random(1)``;
- ``full_cycles(tri_torus(12, 12), 9, 12, cap=12)``.

The link cases call ``chordless_cycles`` on each link's ``link_masks``.
Then ``delta_four_point`` on gs3 and on the universal-cover ball of radius
3 about vertex 0 of the surf37 fixture (85 vertices).  Each case is set up
once, then timed ``--repeat`` times with the garbage collector off; the
table gives the least time.  A case name on the command line runs that case
alone.

Run from the repository root:  python3 tools/kernel_times.py [--repeat N] [CASE ...]
Comparing two trees means running each tree's copy, alternately, on one
idle machine.
"""

import argparse
import gc
import random
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from combcurv import (  # noqa: E402
    GeneratorSpec, build_complex, build_cover, delta_four_point, full_cycles, generate)
from combcurv.complexes import chordless_cycles  # noqa: E402
from combcurv.formats import load_path  # noqa: E402


def gen(name, *params):
    return generate(GeneratorSpec(name, params))


def shuffled(X, seed=1):
    """X with its vertex ids permuted by ``random.Random(seed)``."""
    old = list(X.vertices)
    new = old[:]
    random.Random(seed).shuffle(new)
    perm = dict(zip(old, new))
    return build_complex([perm[v] for v in s] for s in X.maximal_simplices())


def links(complexes, lo, hi):
    masks = [X.link_masks(v)[1] for X in complexes for v in X.vertices]
    return lambda: [chordless_cycles(m, lo, hi) for m in masks]


def skeletons(complexes, lo, hi, cap=8):
    return lambda: [full_cycles(X, lo, hi, cap=cap) for X in complexes]


def draws(n, p):
    return [gen("random_flag", n, p, s) for s in range(6)]


def delta(X):
    return lambda: delta_four_point(X)


CASES = {
    "cell600-links-4-5": lambda: links([gen("cell600")], 4, 5),
    "rf40-links-4-8": lambda: links(draws(40, 0.3), 4, 8),
    "rf50-links-6-8": lambda: links(draws(50, 0.15), 6, 8),
    "rf40-skeleton-4-7": lambda: skeletons(draws(40, 0.3), 4, 7),
    "rf40-skeleton-4-8": lambda: skeletons(draws(40, 0.3), 4, 8),
    "rf60-skeleton-4-7": lambda: skeletons(draws(60, 0.15), 4, 7),
    "gs4-4-7": lambda: skeletons([gen("geodesic_sphere", 4)], 4, 7),
    "gs4-shuffled-4-7": lambda: skeletons([shuffled(gen("geodesic_sphere", 4))], 4, 7),
    "torus12-9-12": lambda: skeletons([gen("tri_torus", 12, 12)], 9, 12, cap=12),
    "delta-gs3": lambda: delta(gen("geodesic_sphere", 3)),
    "delta-surf37-r3": lambda: delta(build_cover(
        load_path(ROOT / "fixtures" / "surf37_psl2_7.cplx").complex, 0, 3).state.ball),
}


def best_ms(run, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        gc.collect()
        gc.disable()
        try:
            start = perf_counter()
            run()
            best = min(best, perf_counter() - start)
        finally:
            gc.enable()
    return best * 1e3


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("cases", nargs="*", choices=[[], *CASES], metavar="CASE")
    args = parser.parse_args(argv)
    for name in args.cases or CASES:
        print(f"{name:20s} {best_ms(CASES[name](), args.repeat):10.2f} ms", flush=True)


if __name__ == "__main__":
    main()
