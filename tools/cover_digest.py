#!/usr/bin/env python3
"""Differential digest of the cover builder over a fixed corpus.

Runs ``build_cover`` on every (complex, base, radius) of the corpus and
prints one SHA-256 over everything the runs produce, then the number of
runs, of runs with warnings, of refused runs and of each covering-check
(R) reason among the warnings.  A change that must leave the builder's
output byte-identical prints the same digest before and after.

Corpus: the degree-7 surface and disk fixtures, the 8x8 triangular torus,
the icosahedron, the octahedron, the 600-cell (to radius 3 only) and 400
seeded ``random_flag`` draws, each at bases 0-2 and radii 1-4.  The draws
start with the three whose reports carry both "collides" and "has no
preimage" warnings.  Each run hashes the report and state JSON, the sheet
map, the birth stages, the faces of every dimension, the last classes and
the warnings as ``str`` and ``repr``; a refused run hashes its error type
and message.

Then it prints a second digest and its counts, each line prefixed
"wedges", over the wedges of the degree-7 surface, at its vertex 0, with
the apex of a cone: over the icosahedron and over the identified (5, 5)
and (7, 5) dwheels, each at bases 0-2 and radii 1-5, with the same
records.  They meet the entry hypotheses and carry located dwheels.

Run from the repository root:  python3 tools/cover_digest.py
On this corpus it prints 49f0b7d80cf154a2ae98a6d1c5c513756ebce55d1749f23c9038fbd8d520aeb3
and, for the wedges, 7995268c93df1b68c33fe789ba324745a9710d0eabe75be85ce0ba55b1cc12a3
"""

import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from combcurv import GeneratorSpec, build_cover, generate  # noqa: E402
from combcurv.errors import CombCurvError  # noqa: E402
from combcurv.formats import load_path  # noqa: E402
from conftest import cone, dwheel_complex, wedge  # noqa: E402

BASES = (0, 1, 2)
RADII = (1, 2, 3, 4)
# random_flag draws whose cover reports carry warnings
WARNED = ((13, 0.35, 7), (15, 0.35, 11), (15, 0.35, 12))
DRAWS = 400
REASONS = ("is not a vertex of the base", "collides", "maps to a non-simplex",
           "has no preimage", "does not cover the full 1-ball")


def complexes():
    """(complex, largest radius) of the corpus, in a fixed order."""
    rng = random.Random(2013)
    draws = list(WARNED)
    while len(draws) < DRAWS:
        draws.append((rng.randint(10, 16), rng.choice((0.3, 0.35, 0.4)), rng.randrange(10_000)))
    for params in draws:
        yield generate(GeneratorSpec("random_flag", params)), RADII[-1]
    for name in ("surf37_psl2_7", "disk37_r3"):
        yield load_path(ROOT / "fixtures" / f"{name}.cplx").complex, RADII[-1]
    for name, params in (("tri_torus", (8, 8)), ("icosahedron", ()), ("octahedron", ())):
        yield generate(GeneratorSpec(name, params)), RADII[-1]
    yield generate(GeneratorSpec("cell600", ())), 3


def corpus():
    """Every (complex, base, radius) run, in a fixed order."""
    for X, top in complexes():
        for base in BASES:
            for radius in RADII:
                if radius <= top:
                    yield X, base, radius


def wedge_corpus():
    """Every wedge run, in a fixed order."""
    surf37 = load_path(ROOT / "fixtures" / "surf37_psl2_7.cplx").complex
    cones = [cone(generate(GeneratorSpec("icosahedron", ())))]
    cones += [cone(dwheel_complex(k, l, "identified")[0]) for k, l in ((5, 5), (7, 5))]
    for Y in cones:
        W = wedge(surf37, 0, Y, Y.vertex_count - 1)
        for base in BASES:
            for radius in range(1, 6):
                yield W, base, radius


def record(X, base: int, radius: int):
    """Everything one run produces, as JSON-ready data, and its warnings."""
    out = {"run": [X.name, base, radius]}
    try:
        report = build_cover(X, base, radius)
    except (CombCurvError, ValueError) as exc:
        out["error"] = [type(exc).__name__, str(exc)]
        return out, ()
    state = report.state
    out.update(
        report=report.to_json(),
        state=state.to_json(),
        sheet_map=state.sheet_map,
        birth=state.birth,
        faces=[sorted(state.ball.simplices(d)) for d in range(4)],
        last_classes=[[cls.z, cls.members] for cls in state.last_classes],
        warnings=[[str(w), repr(w)] for w in state.warnings],
    )
    return out, state.warnings


def reason_of(detail: str) -> str:
    return next((kind for kind in REASONS if kind in detail), detail)


def digest(runs):
    """SHA-256 over the records of ``runs`` and the counts of runs, of
    warned and refused runs and of each (R) reason among the warnings."""
    h = hashlib.sha256()
    counts = Counter()
    for X, base, radius in runs:
        rec, warnings = record(X, base, radius)
        h.update(json.dumps(rec, sort_keys=True, separators=(",", ":")).encode())
        counts["runs"] += 1
        counts["refused"] += "error" in rec
        counts["warned"] += bool(warnings)
        counts.update(f"R: {reason_of(str(w))}" for w in warnings if w.which == "R")
    return h.hexdigest(), counts


def main() -> int:
    for prefix, runs in (("", corpus()), ("wedges ", wedge_corpus())):
        hexdigest, counts = digest(runs)
        print(prefix + hexdigest)
        for key in ("runs", "warned", "refused"):
            print(f"{prefix}{key} {counts.pop(key)}")
        for key, n in sorted(counts.items()):
            print(f"{prefix}{key} {n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
