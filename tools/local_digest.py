#!/usr/bin/env python3
"""Differential digest of the local checkers over a fixed corpus.

Runs the wheel layer and the checks built on it on every complex of the
corpus and prints one SHA-256 over their outputs in ``--json`` form, then
the number of complexes, of calls, of passing and failing verdicts, of
refused calls, of the cycles, wheels and dwheels listed and of the empty
cliques ``is_flag`` names, by size.  A change that must leave these outputs
byte-identical prints the same digest before and after.  Last come the
calls of the pair closure ``chordless_cycles`` that the local checkers
make, one line per length range as they pass it (``4`` for one length,
``6-8`` for a range), counted by a spy on ``curvature.chordless_cycles``;
they measure work, not output, and are not hashed.

The calls, per complex: ``is_flag``, ``wheels`` for lengths 4-8 and 5-6,
``dwheels`` of boundary at most 8, ``is_m_located`` for m = 6, 7, 8,
``is_locally_k_large`` for k = 5, 6, 7, the sphere checks
``is_5_6_star_sphere``, ``check_sphere_cycle_lemma`` and
``check_7cycle_fillings``, and ``located_and_large(X, is_flag(X), m, 5)``
for m = 6, 7, 8, with its two verdicts and its dwheel types sorted.  A
call that raises on a failed precondition hashes its error type and
message.  On the sparse corpus below the calls are the long ones instead:
``full_cycles(X, 9, 10, cap=10)``, ``wheels(X, 9, 10)`` and
``is_locally_k_large(X, 10)``, which read chordless cycles and rims of 9
and 10 vertices.

Corpus: the named generators, the degree-7 surface and disk fixtures, the
cones over one identified dwheel of each type (5, 5), (6, 5), (6, 6) and
(7, 5), which are 8-located with two dwheels each, the vertex links of the
600-cell (built by the test referee ``oracles.naive_link``), 1000 seeded
``random_flag`` draws, and 200 more draws that are mostly not flag: each
less about an eighth of its triangles (and the tetrahedra on them, as
``test_curvature.without_some_triangles`` does) or of its tetrahedra.
The first leave empty triangles and the second empty tetrahedra, and a
draw whose graph has a 5-clique fails on it, so ``is_flag`` names
witnesses of 3, 4 and 5 vertices.  Then the sparse corpus: 60 seeded
``random_flag(n, 3 / n)`` draws, n = 16 .. 40, whose graphs have average
degree about 3 and so long chordless cycles, each followed by the cone
over its 2-skeleton, whose apex link is that 2-skeleton.

Run from the repository root:  python3 tools/local_digest.py
On this corpus it prints 1fcd164869172ba8b95364a9ff0d0d9bf9f8cd92b0f4cfd7a0f76364bdf415d3
(1461 complexes, 21816 calls).
"""

import hashlib
import json
import random
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from combcurv import GeneratorSpec, build_complex, curvature, generate  # noqa: E402
from combcurv.complexes import SimplicialComplex, full_cycles, is_flag  # noqa: E402
from combcurv.curvature import (  # noqa: E402
    dwheels,
    is_locally_k_large,
    is_m_located,
    located_and_large,
    wheels,
)
from combcurv.errors import CombCurvError  # noqa: E402
from combcurv.formats import load_path  # noqa: E402
from combcurv.manifold import (  # noqa: E402
    check_7cycle_fillings,
    check_sphere_cycle_lemma,
    is_5_6_star_sphere,
)
from oracles import naive_link  # noqa: E402

NAMED = (("triangle", ()), ("tetrahedron", ()), ("c_n", (5,)), ("c_n", (7,)),
         ("octahedron", ()), ("icosahedron", ()), ("boundary_4_simplex", ()),
         ("geodesic_sphere", (1,)), ("geodesic_sphere", (2,)), ("geodesic_sphere", (3,)),
         ("geodesic_sphere", (4,)), ("tri_torus", (4, 4)), ("tri_torus", (6, 6)),
         ("tri_torus", (8, 8)), ("cell600", ()))
CONE_TYPES = ((5, 5), (6, 5), (6, 6), (7, 5))
DRAWS = 1000
NON_FLAG_DRAWS = 200
SPARSE_DRAWS = 60
SPHERE_CHECKS = (is_5_6_star_sphere, check_sphere_cycle_lemma, check_7cycle_fillings)


def located_cone(k: int, l: int):
    """The cone over one identified (k, l)-dwheel: apexes 0 and 1, shared
    vertex 2, free arcs (3, ..., k) and (3, k + 1, ..., k + l - 3); the
    cone apex is the last vertex, and its 1-ball holds every dwheel."""
    arc1 = tuple(range(3, k + 1))
    arc2 = (3,) + tuple(range(k + 1, k + l - 2))
    rims = ((0, arc1 + (2, 1)), (1, arc2 + (2, 0)))
    apex = k + l - 2
    return build_complex([(c, rim[i - 1], rim[i], apex) for c, rim in rims
                          for i in range(len(rim))])


def complexes():
    """(label, complex) of the corpus, in a fixed order."""
    for name, params in NAMED:
        yield f"{name}{list(params)}", generate(GeneratorSpec(name, params))
    for name in ("surf37_psl2_7", "disk37_r3"):
        yield name, load_path(ROOT / "fixtures" / f"{name}.cplx").complex
    for k, l in CONE_TYPES:
        yield f"cone({k},{l})", located_cone(k, l)
    cell = generate(GeneratorSpec("cell600", ()))
    for v in cell.vertices:
        yield f"cell600 link {v}", naive_link(cell, (v,))[0]
    rng = random.Random(2013)
    for _ in range(DRAWS):
        params = (rng.randint(8, 20), rng.choice((0.3, 0.4, 0.5)), rng.randrange(10_000))
        yield f"random_flag{list(params)}", generate(GeneratorSpec("random_flag", params))
    yield from non_flag_draws()


def less_some(X, dim: int, rng, share=1 / 8):
    """X less about ``share`` of its ``dim``-simplices (2 or 3) and the
    tetrahedra on them; the faces below stay, so each dropped simplex is
    an empty clique."""
    dropped = {s for s in sorted(X.simplices(dim)) if rng.random() < share}
    faces = {d: X.simplices(d) for d in range(4)}
    faces[dim] = faces[dim] - dropped
    if dim == 2:
        faces[3] = [t for t in faces[3] if dropped.isdisjoint(combinations(t, 3))]
    return SimplicialComplex(X.vertex_count, faces, name=X.name)


def non_flag_draws():
    """(label, complex) of the draws less some triangles or tetrahedra."""
    rng = random.Random(2039)
    for _ in range(NON_FLAG_DRAWS):
        params = (rng.randint(8, 20), rng.choice((0.3, 0.4, 0.5)), rng.randrange(10_000))
        dim = rng.choice((2, 3))
        X = less_some(generate(GeneratorSpec("random_flag", params)), dim, rng)
        yield f"random_flag{list(params)} less some {dim}-simplices", X


def sparse_draws():
    """(label, complex) of the sparse draws, each followed by the cone over
    its 2-skeleton from the apex ``vertex_count``."""
    rng = random.Random(2071)
    for _ in range(SPARSE_DRAWS):
        n = rng.randint(16, 40)
        params = (n, 3 / n, rng.randrange(10_000))
        X = generate(GeneratorSpec("random_flag", params))
        yield f"random_flag{list(params)}", X
        apex = X.vertex_count
        faces = (s + (apex,) for d in range(3) for s in X.simplices(d))
        yield f"cone over random_flag{list(params)}", build_complex(faces)


def corpus():
    """(label, complex, calls) of the whole corpus, in a fixed order: the
    complexes with :func:`calls`, then the sparse draws with
    :func:`long_calls`."""
    for label, X in complexes():
        yield label, X, calls
    for label, X in sparse_draws():
        yield label, X, long_calls


def long_calls(X):
    """(label, thunk) of the calls that read cycles of 9 and 10 vertices."""
    yield "full_cycles 9-10", lambda: full_cycles(X, 9, 10, cap=10)
    yield "wheels 9-10", lambda: wheels(X, 9, 10)
    yield "is_locally_k_large 10", lambda: is_locally_k_large(X, 10)


def calls(X):
    """(label, thunk) of every call made on ``X``, in a fixed order."""
    yield "is_flag", lambda: is_flag(X)
    yield "wheels 4-8", lambda: wheels(X, 4, 8)
    yield "wheels 5-6", lambda: wheels(X, 5, 6)
    yield "dwheels 8", lambda: dwheels(X, 8)
    for m in (6, 7, 8):
        yield f"is_m_located {m}", lambda m=m: is_m_located(X, m)
    for k in (5, 6, 7):
        yield f"is_locally_k_large {k}", lambda k=k: is_locally_k_large(X, k)
    for check in SPHERE_CHECKS:
        yield check.__name__, lambda check=check: check(X)
    for m in (6, 7, 8):
        yield f"located_and_large {m} 5", lambda m=m: both_hypotheses(X, m)


def both_hypotheses(X, m: int) -> dict:
    """``located_and_large(X, is_flag(X), m, 5)`` as JSON-ready data, its
    dwheel types sorted."""
    located, large, types = located_and_large(X, is_flag(X), m, 5)
    return {"located": located.to_json(), "large": large.to_json(), "types": sorted(types)}


def record(X, calls_of, counts: Counter) -> list:
    """The outputs of the calls ``calls_of(X)`` as JSON-ready data;
    ``counts`` gathers the calls, verdicts, refusals, and the cycles,
    wheels and dwheels listed."""
    out = []
    for label, call in calls_of(X):
        counts["calls"] += 1
        try:
            result = call()
        except CombCurvError as exc:
            counts["refused"] += 1
            out.append([label, "error", type(exc).__name__, str(exc)])
            continue
        if isinstance(result, dict):
            out.append([label, result])
        elif isinstance(result, list):
            kind = label.split()[0]
            counts["cycles" if kind == "full_cycles" else kind] += len(result)
            out.append([label, [item.to_json() for item in result]])
        else:
            counts["passed" if result.passed else "failed"] += 1
            if label == "is_flag" and not result.passed:
                counts[f"empty {len(result.witness['vertices'])}-cliques"] += 1
            out.append([label, result.to_json()])
    return out


def digest(items):
    """SHA-256 over the records of the (label, complex, calls) ``items``,
    and the counts of complexes, calls, verdicts, refusals, cycles, wheels
    and dwheels, then of the ``curvature.chordless_cycles`` calls by length
    range, as ``chordless_cycles 4`` or ``chordless_cycles 6-8``, sorted."""
    h = hashlib.sha256()
    counts = Counter()
    closures = Counter()  # length range -> pair closures of the local checkers
    close = curvature.chordless_cycles
    curvature.chordless_cycles = lambda masks, *lengths: (
        closures.update([lengths]) or close(masks, *lengths))
    try:
        for label, X, calls_of in items:
            counts["complexes"] += 1
            rec = {"complex": label, "calls": record(X, calls_of, counts)}
            h.update(json.dumps(rec, sort_keys=True, separators=(",", ":")).encode())
    finally:
        curvature.chordless_cycles = close
    for lengths, n in sorted(closures.items()):
        counts["chordless_cycles " + "-".join(map(str, lengths))] = n
    return h.hexdigest(), counts


def main() -> int:
    hexdigest, counts = digest(corpus())
    print(hexdigest)
    for key in ("complexes", "calls", "passed", "failed", "refused", "cycles", "wheels", "dwheels",
                "empty 3-cliques", "empty 4-cliques", "empty 5-cliques"):
        print(f"{key} {counts[key]}")
    for key in counts:
        if key.startswith("chordless_cycles "):
            print(f"{key} {counts[key]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
