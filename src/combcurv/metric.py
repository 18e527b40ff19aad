"""Path-metric machinery on the 1-skeleton.

Distances are hop counts in the 1-skeleton, one BFS per call (a complex
keeps none).  On top of BFS this module provides combinatorial balls and
spheres, geodesic intervals sliced into layers, the layered descent
checker with its triangle (T) and vertex (V) conditions, the projection
cross-check that consumes it, and an exact four-point hyperbolicity
constant for small complexes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .complexes import SimplicialComplex
from .curvature import located_and_large
from .errors import DisconnectedError, PreconditionNotMet, TooLarge
from .verdicts import Verdict, failed, passed

INF = float("inf")

DELTA_VERTEX_CAP = 200


def distances_from(X: SimplicialComplex, base: int) -> tuple:
    """Hop distances from ``base``, one per vertex id; unreachable vertices
    get inf."""
    if not X.has_vertex(base):
        raise ValueError(f"vertex {base} not in complex")
    dist = [INF] * X.vertex_count
    dist[base] = 0
    q = deque([base])
    while q:
        v = q.popleft()
        for u in X.neighbors(v):
            if dist[u] > dist[v] + 1:
                dist[u] = dist[v] + 1
                q.append(u)
    return tuple(dist)


def distance(X: SimplicialComplex, u: int, v: int):
    return distances_from(X, u)[v]


def ball(X: SimplicialComplex, v: int, i: int) -> frozenset:
    """Vertices at distance at most ``i`` from ``v``."""
    if i < 0:
        raise ValueError("radius must be non-negative")
    d = distances_from(X, v)
    return frozenset(u for u in range(X.vertex_count) if d[u] <= i)


def sphere(X: SimplicialComplex, v: int, i: int) -> frozenset:
    """Vertices at distance exactly ``i`` from ``v``."""
    if i < 0:
        raise ValueError("radius must be non-negative")
    d = distances_from(X, v)
    return frozenset(u for u in range(X.vertex_count) if d[u] == i)


# -- geodesic intervals ------------------------------------------------------


@dataclass(frozen=True)
class LayeredInterval:
    """Vertices on geodesics between two endpoints, sliced by distance from
    the first endpoint: ``layers[k]`` is the slice at distance k."""

    endpoints: tuple
    n: int
    layers: tuple


def geodesic_layers(X: SimplicialComplex, o: int, o2: int, dist) -> list:
    """Geodesic layers between ``o`` and ``o2`` in vertex order, on
    ``dist``, the BFS row of ``o`` that the caller holds: layer k - 1 is
    the neighbours of layer k at distance k - 1 from o."""
    if not X.has_vertex(o2):
        raise ValueError(f"vertex {o2} not in complex")
    n = dist[o2]
    if n == INF:
        raise DisconnectedError(f"vertices {o} and {o2} are not connected")
    layers = [[o2]]
    for k in range(n - 1, -1, -1):
        layers.append(sorted({u for v in layers[-1] for u in X.neighbors(v) if dist[u] == k}))
    return layers[::-1]


def interval(X: SimplicialComplex, o: int, o2: int) -> LayeredInterval:
    layers = geodesic_layers(X, o, o2, distances_from(X, o))
    return LayeredInterval((o, o2), len(layers) - 1, tuple(map(frozenset, layers)))


def interval_thinness(X: SimplicialComplex, layers):
    """Maximum distance between two vertices of one of the sorted
    ``layers``, measured in X, and the first pair that reaches it, in
    layer and sorted-pair order (None when no layer has two vertices).

    No full distance row is computed: each layer vertex u keeps one BFS for
    this call, grown a level at a time only until the queried vertex is
    reached, and resumed from there by u's later pairs.  Its levels are
    exact, so every distance is."""
    searches = {}  # u -> (distances found so far, last level, its depth)
    best, witness = 0, None
    for layer in layers:
        for u, v in combinations(layer, 2):
            if u not in searches:
                searches[u] = ({u: 0}, [u], 0)
            seen, level, depth = searches[u]
            while v not in seen and level:
                depth += 1
                nxt = []
                for x in level:
                    for y in X.neighbors(x):
                        if y not in seen:
                            seen[y] = depth
                            nxt.append(y)
                level = nxt
                searches[u] = seen, level, depth
            d = seen.get(v, INF)
            if d > best:
                best, witness = d, (u, v)
    return best, witness


# -- layered descent property ------------------------------------------------


@dataclass(frozen=True)
class SDReport:
    """Per-radius outcome of the descent conditions around a base vertex.

    ``results[i]`` holds the verdicts of the triangle condition (T) and the
    vertex condition (V) at radius i, for i = 1..max_radius.
    """

    base: int
    max_radius: int
    results: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(t.passed and v.passed for (t, v) in self.results.values())

    def first_failure(self):
        for i in sorted(self.results):
            t, v = self.results[i]
            if not t.passed:
                return t
            if not v.passed:
                return v
        return None

    def to_json(self):
        return {
            "check": "sd_prime",
            "base": self.base,
            "max_radius": self.max_radius,
            "status": "pass" if self.passed else "fail",
            "radii": {
                str(i): {"T": t.to_json(), "V": v.to_json()}
                for i, (t, v) in self.results.items()
            },
        }


def _triangle_condition(X, dist, i) -> Verdict:
    """(T): every edge with both endpoints at distance i+1 has a link vertex
    at distance <= i.

    Only the edges of sphere i+1 are read, in sorted order: its vertices in
    order, each with its larger neighbours in the sphere, sorted."""
    checked = 0
    for u in range(X.vertex_count):
        if dist[u] != i + 1:
            continue
        for v in sorted(w for w in X.neighbors(u) if w > u and dist[w] == i + 1):
            checked += 1
            if not any(
                dist[t] <= i and X.has_simplex((u, v, t))
                for t in X.neighbors(u) & X.neighbors(v)
            ):
                return failed("sd_T", {"kind": "edge", "edge": [u, v], "radius": i},
                              detail=f"edge ({u},{v}) in sphere {i + 1} sees nothing in ball {i}",
                              edges_checked=checked)
    return passed("sd_T", edges_checked=checked)


def vertex_condition(X: SimplicialComplex, dist, i: int) -> Verdict:
    """(V): for v at distance i+1 and neighbors u,w of v at distance <= i,
    some neighbor t of v at distance <= i is adjacent to both.

    Adjacent pairs u ~ w satisfy the condition degenerately (t may coincide
    with one of them); only non-adjacent pairs require a genuine t.
    """
    pairs = 0
    for v in range(X.vertex_count):
        if dist[v] != i + 1:
            continue
        down = sorted(u for u in X.neighbors(v) if dist[u] <= i)
        for u, w in combinations(down, 2):
            pairs += 1
            if X.adjacent(u, w):
                continue
            if not any(t != u and t != w and X.adjacent(t, u) and X.adjacent(t, w)
                       for t in down):
                return failed("sd_V", {"kind": "vertex", "vertex": v, "pair": [u, w], "radius": i},
                              detail=f"no common neighbor below radius {i + 1} for ({u},{w}) in link of {v}",
                              pairs_checked=pairs)
    return passed("sd_V", pairs_checked=pairs)


def check_sd_prime(X: SimplicialComplex, o: int, n: int, dist=None) -> SDReport:
    """Descent property around ``o`` up to radius ``n``: conditions (T) and
    (V) at every i = 1..n.

    ``dist`` is the BFS row of ``o`` when the caller holds it; else one BFS
    computes it.  The cover builder does not call this: it reads (T) and
    (V) at each radius off the expansion that adds it."""
    if dist is None:
        dist = distances_from(X, o)
    results = {i: (_triangle_condition(X, dist, i), vertex_condition(X, dist, i))
               for i in range(1, n + 1)}
    return SDReport(base=o, max_radius=n, results=results)


def check_projection_lemma(X: SimplicialComplex, o: int, n: int) -> Verdict:
    """Downward-projection cross-check.

    Requires 8-location, local 5-largeness, and the descent property up to
    radius ``n``.  Then for every radius i <= n and every configuration
    (v in sphere i+1; non-adjacent y,z below; common neighbor x below;
    y',z' two steps down closing triangles with x), asserts that y' and z'
    are distinct, mutually adjacent, and not adjacent across to z resp. y.
    """
    located, large, _ = located_and_large(X, 8, 5)
    for name, verdict in (("is_m_located(X, 8)", located), ("is_locally_k_large(X, 5)", large)):
        if not verdict.passed:
            raise PreconditionNotMet(name, verdict.detail, verdict.witness)
    dist = distances_from(X, o)
    sd = check_sd_prime(X, o, n, dist)
    if not sd.passed:
        first = sd.first_failure()
        raise PreconditionNotMet(f"check_sd_prime(X, {o}, {n})", first.detail, first.witness)

    instances = 0
    for i in range(1, n + 1):
        for v in range(X.vertex_count):
            if dist[v] != i + 1:
                continue
            down = sorted(u for u in X.neighbors(v) if dist[u] <= i)
            for y, z in combinations(down, 2):
                if X.adjacent(y, z):
                    continue
                for x in (x for x in down if X.adjacent(x, y) and X.adjacent(x, z)):
                    # X is flag (8-located), so xyt and xzt are triangles
                    ys = sorted(t for t in X.neighbors(x) & X.neighbors(y) if dist[t] <= i - 1)
                    zs = sorted(t for t in X.neighbors(x) & X.neighbors(z) if dist[t] <= i - 1)
                    for yp in ys:
                        for zp in zs:
                            instances += 1
                            if not (yp != zp and not X.adjacent(yp, z)
                                    and not X.adjacent(y, zp) and X.adjacent(yp, zp)):
                                return failed(
                                    "projection_lemma",
                                    {"kind": "projection_instance", "radius": i,
                                     "v": v, "y": y, "z": z, "x": x,
                                     "y_prime": yp, "z_prime": zp},
                                    detail="projected pair violates the expected relations",
                                    instances=instances)
    return passed("projection_lemma", detail=f"{instances} instances verified",
                  instances=instances)


# -- four-point hyperbolicity -------------------------------------------------


def delta_four_point(X: SimplicialComplex, cap: int = DELTA_VERTEX_CAP) -> Fraction:
    """Minimal delta so that every vertex 4-tuple satisfies the four-point
    condition; exact over half-integers.

    Pruned as in N. Cohen, D. Coudert and A. Lancin, *On computing the
    Gromov hyperbolicity*, ACM JEA 20 (2015).  Let d(x, y) + d(v, w) be the
    largest of a quadruple's three pair sums; its 2 delta is that sum less
    the larger of the other two, which is at most min(d(x, y), d(v, w)).
    Moving x to a neighbour farther from y (or y, v, w likewise) keeps that
    sum the largest and never lowers 2 delta, so some worst quadruple has
    two far-apart pairs: no neighbour of either end is farther from the
    other end.  Far-apart pairs are taken by decreasing distance, each
    paired with the earlier ones, until d(x, y) is at most the best 2 delta
    so far.  It still needs one BFS per vertex, hence the cap.
    """
    verts = X.vertices
    if len(verts) > cap:
        raise TooLarge(f"{len(verts)} vertices exceeds delta cap {cap}")
    if not verts:
        return Fraction(0)
    dist = {v: distances_from(X, v) for v in verts}
    if INF in (dist[verts[0]][v] for v in verts):
        raise DisconnectedError("four-point constant needs a connected complex")
    if len(verts) < 4:
        return Fraction(0)
    pairs = sorted(((dist[x][y], x, y) for x, y in combinations(verts, 2)), reverse=True)
    worst = 0
    kept = []
    for dxy, x, y in pairs:
        if dxy <= worst:
            break
        dx, dy = dist[x], dist[y]
        if any(dy[u] > dxy for u in X.neighbors(x)) or \
           any(dx[u] > dxy for u in X.neighbors(y)):
            continue
        for v, w, dvw in kept:
            gap = dxy + dvw - max(dx[v] + dy[w], dx[w] + dy[v])
            if gap > worst:
                worst = gap
        kept.append((x, y, dxy))
    return Fraction(worst, 2)
