"""Deterministic generators for the test corpus.

Every generator is a pure function of its parameters: identical parameters
give byte-identical complexes after canonical serialization.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations, permutations, product

from .complexes import SimplicialComplex, build_complex, flag_completion

# Standard icosahedron combinatorics: 12 vertices, 30 edges, 20 faces,
# every vertex of degree 5.
ICOSAHEDRON_FACES = (
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (5, 4, 9), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
)

OCTAHEDRON_FACES = (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
    (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4),
)


def triangle() -> SimplicialComplex:
    return build_complex([[0, 1, 2]], name="triangle")


def tetrahedron() -> SimplicialComplex:
    return build_complex([[0, 1, 2, 3]], name="tetrahedron")


def cycle_complex(n: int) -> SimplicialComplex:
    if n < 3:
        raise ValueError("cycle length must be at least 3")
    return build_complex([[i, (i + 1) % n] for i in range(n)], name=f"c{n}")


def octahedron() -> SimplicialComplex:
    return build_complex(OCTAHEDRON_FACES, name="octahedron")


def icosahedron() -> SimplicialComplex:
    return build_complex(ICOSAHEDRON_FACES, name="icosahedron")


def boundary_4_simplex() -> SimplicialComplex:
    return build_complex(list(combinations(range(5), 4)), name="boundary_4_simplex")


def geodesic_sphere(k: int) -> SimplicialComplex:
    """Icosahedron with each face subdivided into k^2 triangles.

    Each point is named by its barycentric weights on the 12 icosahedron
    vertices, read as the digits of one number in base k + 1.  Faces that
    share a point give it equal weights, and each weight is at most k, so
    the number names that point and no other.  The result has exactly
    10k^2 + 2 vertices: the 12 originals of degree 5, with ids 0-11, and
    the rest of degree 6, numbered in order of first appearance.
    """
    if k < 1:
        raise ValueError("subdivision parameter must be at least 1")
    place = [(k + 1) ** v for v in range(12)]
    ids = {k * p: v for v, p in enumerate(place)}
    faces = []
    for a, b, c in ICOSAHEDRON_FACES:
        def pt(i, j):
            # barycentric point (k-i-j, i, j) on face (a, b, c)
            return ids.setdefault((k - i - j) * place[a] + i * place[b] + j * place[c], len(ids))

        for i in range(k):
            for j in range(k - i):
                faces.append((pt(i, j), pt(i + 1, j), pt(i, j + 1)))
                if i + j < k - 1:
                    faces.append((pt(i + 1, j), pt(i + 1, j + 1), pt(i, j + 1)))
    return build_complex(faces, name=f"geodesic_sphere_{k}")


def tri_torus(m: int, n: int) -> SimplicialComplex:
    """Equilateral-triangle lattice quotient with m*n vertices, all of
    degree 6: neighbors differ by (1,0), (0,1) or (1,1) modulo (m, n)."""
    if m < 4 or n < 4:
        raise ValueError("torus dimensions must be at least 4")

    def v(i, j):
        return (i % m) * n + (j % n)

    faces = []
    for i in range(m):
        for j in range(n):
            faces.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            faces.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    return build_complex(faces, name=f"tri_torus_{m}_{n}")


def cell600() -> SimplicialComplex:
    """Boundary of the 600-cell: 120 vertices, 600 tetrahedra, every edge
    of degree 5 and every vertex link an icosahedron.

    Vertices are the 120 unit icosians: the 8 permutations of (+-1, 0, 0, 0),
    the 16 points (+-1/2, +-1/2, +-1/2, +-1/2) and the 96 even permutations of
    (0, +-1/2, +-phi/2, +-1/(2 phi)).  Two are joined when their inner product
    is phi/2; the complex is the flag completion of that graph.  Vertex ids
    follow the sorted coordinates.
    """
    phi = (1 + math.sqrt(5)) / 2
    pts = set()
    for i in range(4):
        for s in (1.0, -1.0):
            pts.add(tuple(s if j == i else 0.0 for j in range(4)))
    pts.update(product((0.5, -0.5), repeat=4))
    even = [p for p in permutations(range(4))
            if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0]
    for p in even:
        for sa, sb, sc in product((1, -1), repeat=3):
            vals = (0.0, sa * 0.5, sb * phi / 2, sc / (2 * phi))
            v = [0.0] * 4
            for i in range(4):
                v[p[i]] = round(vals[i], 12) + 0.0
            pts.add(tuple(v))
    pts = sorted(pts)
    edges = [(i, j) for i, j in combinations(range(len(pts)), 2)
             if abs(sum(a * b for a, b in zip(pts[i], pts[j])) - phi / 2) < 1e-9]
    return flag_completion(len(pts), edges, name="cell600")


def random_flag(n: int, p: float, seed: int) -> SimplicialComplex:
    """Flag completion (cliques up to size 4) of a seeded random graph.

    Reproducible across platforms: edges are drawn in fixed (u, v) order
    from ``random.Random(seed)``.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if not 0 <= p <= 1:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return flag_completion(n, edges, name=f"random_flag_{n}_{p}_{seed}")


# name -> (function, parameter kinds: "i" integer, "f" number)
GENERATORS = {
    "triangle": (triangle, ""),
    "tetrahedron": (tetrahedron, ""),
    "c_n": (cycle_complex, "i"),
    "octahedron": (octahedron, ""),
    "icosahedron": (icosahedron, ""),
    "boundary_4_simplex": (boundary_4_simplex, ""),
    "geodesic_sphere": (geodesic_sphere, "i"),
    "tri_torus": (tri_torus, "ii"),
    "random_flag": (random_flag, "ifi"),
    "cell600": (cell600, ""),
}


@dataclass(frozen=True)
class GeneratorSpec:
    name: str
    params: tuple = ()


def generate(spec: GeneratorSpec) -> SimplicialComplex:
    if spec.name not in GENERATORS:
        raise ValueError(f"unknown generator {spec.name!r}; known: {sorted(GENERATORS)}")
    fn, kinds = GENERATORS[spec.name]
    if len(spec.params) != len(kinds):
        raise ValueError(f"{spec.name} takes {len(kinds)} parameter(s), got {len(spec.params)}")
    for i, (kind, x) in enumerate(zip(kinds, spec.params), 1):
        if isinstance(x, bool) or not isinstance(x, int if kind == "i" else (int, float)):
            what = "an integer" if kind == "i" else "a number"
            raise ValueError(f"{spec.name} parameter {i} must be {what}, got {x!r}")
    return fn(*spec.params)


def parse_generator_args(name: str, raw_params) -> GeneratorSpec:
    """CLI helper: coerce string parameters to the expected types."""
    if name not in GENERATORS:
        raise ValueError(f"unknown generator {name!r}; known: {sorted(GENERATORS)}")
    coerced = []
    for s in raw_params:
        try:
            coerced.append(int(s))
        except ValueError:
            coerced.append(float(s))
    return GeneratorSpec(name, tuple(coerced))
