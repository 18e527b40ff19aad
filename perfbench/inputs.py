"""Seeded benchmark inputs, written as ``.cplx`` files.

Every input gets a random vertex relabelling drawn from the workload seed.
Where a check stops at the first failing link, the relabelling also puts a
vertex whose link fails at label 0.  The checker scans vertices in label
order, so such a check then does the same work (one link) on every seed
instead of a seed-dependent share of the scan.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

from refcomplex import RefComplex, edge_degrees


def relabel(maximal, rng, first=None):
    """Maximal simplices with their vertices mapped at random onto
    0..n-1; ``first`` (an old id), when given, becomes 0."""
    labels = sorted({v for s in maximal for v in s})
    new = list(range(len(labels)))
    rng.shuffle(new)
    perm = dict(zip(labels, new))
    if first is not None:
        other = labels[new.index(0)]
        perm[first], perm[other] = 0, perm[first]
    return [sorted(perm[v] for v in s) for s in maximal]


def write_cplx(path: Path, maximal) -> None:
    path.write_text("".join(" ".join(map(str, s)) + "\n" for s in sorted(maximal)),
                    encoding="utf-8")


def read_cplx(path: Path) -> list:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].split()
        if line:
            rows.append([int(x) for x in line])
    return rows


def maximal_of(X) -> list:
    """Maximal simplices of a generated combcurv complex, read from its
    stored faces."""
    faces = [set(X.simplices(d)) for d in range(4)]
    out = []
    for d in range(4):
        covered = set()
        if d < 3:
            covered = {sub for f in faces[d + 1] for sub in itertools.combinations(f, d + 1)}
        out.extend(list(f) for f in faces[d] if f not in covered)
    return out


def cell600() -> list:
    """Tetrahedra of the boundary of the 600-cell.

    Vertices are the 120 unit icosians: the 8 permutations of (+-1, 0, 0, 0),
    the 16 points (+-1/2, +-1/2, +-1/2, +-1/2) and the 96 even permutations of
    (0, +-1/2, +-phi/2, +-1/(2 phi)).  Two are joined when their inner product
    is phi/2; the tetrahedra are the 4-cliques of that graph.
    """
    phi = (1 + math.sqrt(5)) / 2
    pts = set()
    for i in range(4):
        for s in (1.0, -1.0):
            pts.add(tuple(s if j == i else 0.0 for j in range(4)))
    pts.update(itertools.product((0.5, -0.5), repeat=4))
    even = [p for p in itertools.permutations(range(4))
            if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0]
    for p in even:
        for sa, sb, sc in itertools.product((1, -1), repeat=3):
            vals = (0.0, sa * 0.5, sb * phi / 2, sc / (2 * phi))
            v = [0.0] * 4
            for i in range(4):
                v[p[i]] = round(vals[i], 12) + 0.0
            pts.add(tuple(v))
    pts = sorted(pts)
    adj = {i: set() for i in range(len(pts))}
    for i, j in itertools.combinations(range(len(pts)), 2):
        if abs(sum(a * b for a, b in zip(pts[i], pts[j])) - phi / 2) < 1e-9:
            adj[i].add(j)
            adj[j].add(i)
    tets = []
    for a in adj:
        for b in adj[a]:
            if b > a:
                for c in adj[a] & adj[b]:
                    if c > b:
                        tets.extend([a, b, c, d] for d in adj[a] & adj[b] & adj[c] if d > c)
    return tets


def cell600_problems(tets) -> list:
    """Independent check of the 600-cell boundary: face counts, every
    triangle in 2 tetrahedra, every edge in 5, every vertex link an
    icosahedron (12 vertices of degree 5, 30 edges, 20 triangles, each
    edge in 2 triangles)."""
    X = RefComplex(tets)
    probs = []
    if X.counts() != (120, 720, 1200, 600):
        probs.append(f"face counts {X.counts()}")
    per_tri = {}
    for t in tets:
        for tri in itertools.combinations(sorted(t), 3):
            per_tri[tri] = per_tri.get(tri, 0) + 1
    if set(per_tri.values()) != {2}:
        probs.append("a triangle not in exactly 2 tetrahedra")
    if set(edge_degrees(tets).values()) != {5}:
        probs.append("an edge not of degree 5")
    for v in X.vertices:
        L = X.link((v,))
        per_edge = {}
        for tri in L.simplices(2):
            for e in itertools.combinations(tri, 2):
                per_edge[e] = per_edge.get(e, 0) + 1
        if (L.counts()[:3] != (12, 30, 20) or any(len(L.adj[u]) != 5 for u in L.vertices)
                or set(per_edge.values()) != {2}):
            probs.append(f"link of {v} is not an icosahedron")
            break
    return probs
