"""Validation pipeline for edge-degree-constrained 3-manifold triangulations.

A closed triangulation qualifies when every edge has degree 5 or 6 (degree
counted in tetrahedra) and no triangle carries two degree-5 edges; vertex
links are then triangulated 2-spheres whose degrees repeat the edge degrees.
This module validates the manifold structure, checks the sphere-level degree
conditions, builds the pentagon/hexagon dual cellulation, and checks on every
chordless cycle the cycle-filling facts the main pipeline relies on.

The closed-surface and 5/6* degree tests read a surface as the rims (link
graphs) of its vertices: the rim of u in a 2-complex is its link, and the
rim of u in the link of a vertex v of a 3-complex is Lk(vu).  On a
3-complex the edge links come off one pass over the tetrahedra, which also
counts the tetrahedra on each triangle.  Two lemmas then decide the
manifold stages by counts: an edge link whose triangles all lie on two
tetrahedra is one cycle when one walk covers it (Lemma A), and a vertex
link whose edge links are all cycles is a 2-sphere when it is connected
with Euler characteristic 2 (Lemma B).  So vertex links are decided with
no link complex built.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Optional

from .complexes import SimplicialComplex, build_complex, full_cycles, is_flag
from .curvature import located_and_large, wheels
from .errors import NoFillingPair, NotASphere, NotPure, PreconditionNotMet
from .verdicts import Verdict, failed, passed

ALLOWED_DWHEEL_TYPES = {(5, 5), (6, 5), (6, 6), (7, 5)}


@dataclass(frozen=True)
class ManifoldReport:
    """Structural census of a pure 3-dimensional complex."""

    is_pseudomanifold: Verdict
    edge_link_cycles: Verdict
    vertex_links_spheres: Verdict
    edge_degrees: dict  # edge -> number of incident tetrahedra
    five_six_star: Verdict

    @property
    def is_closed_manifold(self) -> bool:
        return (self.is_pseudomanifold.passed and self.edge_link_cycles.passed
                and self.vertex_links_spheres.passed)

    @property
    def passed(self) -> bool:
        return self.is_closed_manifold and self.five_six_star.passed

    def to_json(self):
        return {
            "check": "validate_closed_3manifold",
            "status": "pass" if self.passed else "fail",
            "stages": {
                "pseudomanifold": self.is_pseudomanifold.to_json(),
                "edge_link_cycles": self.edge_link_cycles.to_json(),
                "vertex_links_spheres": self.vertex_links_spheres.to_json(),
                "five_six_star": self.five_six_star.to_json(),
            },
            "edge_degrees": {f"{u}-{v}": d for (u, v), d in sorted(self.edge_degrees.items())},
        }


def five_six_star_verdict(X: SimplicialComplex, degrees: Optional[dict] = None) -> Verdict:
    """Every edge degree in {5, 6} and at most one degree-5 edge per triangle.
    The degrees are read off :func:`_edge_links` unless given."""
    degrees = degrees or {e: len(pairs) for e, pairs in _edge_links(X)[0].items()}
    for e, d in sorted(degrees.items()):
        if d not in (5, 6):
            return failed("five_six_star", {"kind": "edge_degree", "edge": list(e), "degree": d},
                          detail=f"edge {e} has degree {d}")
    for tri in sorted(X.simplices(2)):
        lows = [e for e in combinations(tri, 2) if degrees[e] == 5]
        if len(lows) > 1:
            return failed("five_six_star",
                          {"kind": "triangle_two_low_edges", "triangle": list(tri),
                           "edges": [list(e) for e in lows]},
                          detail=f"triangle {tri} carries {len(lows)} degree-5 edges")
    return passed("five_six_star", edges=len(degrees))


def _surface_failure(rims: dict, name):
    """Reason a complex of dimension at most 2 is not a closed triangulated
    2-sphere, or None.

    ``rims[u]`` is the link graph of its vertex u, as neighbour -> link
    neighbours, so the edge ab lies on ``len(rims[a][b])`` triangles.
    Vertices are named by ``name``, an increasing map, in the reasons.
    """
    if not any(t for rim in rims.values() for t in rim.values()):
        dim = 1 if any(rims.values()) else 0 if rims else -1
        return f"dimension {dim} != 2"
    off = [(a, b) for a in rims for b in rims[a] if a < b and len(rims[a][b]) != 2]
    # maximal simplices other than triangles: vertices on no edge, edges on none
    low = [(u,) for u, rim in rims.items() if not rim]
    low += [(a, b) for a, b in off if not rims[a][b]]
    if low:
        return f"maximal simplex {tuple(map(name, min(low)))} is not a triangle"
    if off:
        a, b = min(off)
        return f"edge {(name(a), name(b))} lies in {len(rims[a][b])} triangles"
    # two spheres pinched at vertices pass the counts of _count_failure; a
    # surface has each vertex's triangles close into one cycle.  As every
    # edge lies on two triangles, the rim of u is a union of cycles of
    # length >= 3 through all its neighbours: one cycle below degree 6, and
    # one cycle exactly when it is connected.
    pinch = [u for u in rims if len(rims[u]) >= 6 and not _is_connected(rims[u])]
    return _count_failure(rims) or (
        f"triangles at vertex {name(min(pinch))} do not close into one cycle" if pinch else None)


def _count_failure(nbrs: dict):
    """Reason a non-empty complex whose every edge lies on two triangles is
    no 2-sphere by its connectivity or Euler characteristic, or None.
    ``nbrs[u]`` holds the neighbours of u, so their sizes sum to 2E."""
    if not _is_connected(nbrs):
        return "not connected"
    # every edge lies on two triangles, so 3F = 2E and chi = V - E / 3
    chi = len(nbrs) - sum(map(len, nbrs.values())) // 6
    return f"Euler characteristic {chi} != 2" if chi != 2 else None


def _is_connected(nbrs) -> bool:
    """Whether a non-empty graph, given as vertex -> neighbours, is connected."""
    seen, todo = set(), [next(iter(nbrs))]
    while todo:
        if (u := todo.pop()) not in seen:
            seen.add(u)
            todo += nbrs[u]
    return len(seen) == len(nbrs)


def _graph(vertices, edges) -> dict:
    """The graph on ``vertices`` with ``edges``, as vertex -> neighbours."""
    nbrs = {x: [] for x in vertices}
    for x, y in edges:
        nbrs[x].append(y)
        nbrs[y].append(x)
    return nbrs


def _edge_links(X: SimplicialComplex):
    """The link of every edge, read in one pass over the tetrahedra; the
    one edge-link reader of ``validate``, ``links`` and ``lemmas``.

    It returns three things.  First, each edge's list of opposite edges,
    one per tetrahedron on the edge: the edges of its link, so the list's
    length is the edge's degree.  Second, the triangles that do not lie on
    exactly two tetrahedra, as (triangle, count) pairs, counted in the same
    pass.  Third, the link of each edge as one cycle, its vertex sequence,
    or None when it is no cycle, by Lemma A.

    Lemma A.  If every triangle at e lies on exactly two tetrahedra, Lk(e)
    is a simple 2-regular graph with deg(e) vertices and deg(e) edges, the
    pairs of opposite edges: each triangle ec is a link vertex on two of
    them, and two tetrahedra at e have two opposite edges.  So Lk(e) is one
    cycle exactly when one walk covers all its deg(e) edges.  An edge on a
    triangle that does not lie on two tetrahedra has a link vertex of
    another degree, and an edge on no tetrahedron a link with no edge:
    both get None, with no walk.
    """
    opp = {e: [] for e in X.simplices(1)}
    faces = []
    for a, b, c, d in X.simplices(3):
        for e, f in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
            opp[e].append(f)
            opp[f].append(e)
        faces += ((a, b, c), (a, b, d), (a, c, d), (b, c, d))
    on = Counter(faces)
    off = [(t, c) for t in X.simplices(2) if (c := on[t]) != 2]
    at_off = {e for t, _ in off for e in combinations(t, 2)}
    step = [0] * X.vertex_count  # a link vertex -> the XOR of its two neighbours
    cycles = dict.fromkeys(opp)
    for e, pairs in opp.items():
        if pairs and e not in at_off:
            for x, y in pairs:
                step[x] ^= y
                step[y] ^= x
            cycle, (prev, cur) = [pairs[0][0]], pairs[0]
            while cur != cycle[0]:
                cycle.append(cur)
                prev, cur = cur, step[cur] ^ prev
            for x, y in pairs:
                step[x] = step[y] = 0
            cycles[e] = cycle if len(cycle) == len(pairs) else None
    return opp, off, cycles


def _link_rims(X: SimplicialComplex, v: int, links):
    """The rims of the link of ``v`` and the reason it is no closed
    2-sphere, or None; ``links`` is what :func:`_edge_links` reads.

    Lemma B.  If every edge vu has a cycle for its link, every triangle at
    v lies on two tetrahedra, and :func:`_surface_failure` on the rims of v
    can fail only as :func:`_count_failure` does: every link edge lies on
    two triangles and every rim is one cycle.  So the rim of u is read as
    the cycle of vu, and the count test is a BFS over N(v) through the rims
    and chi = deg(v) - t(v) / 3, with t(v) triangles at v.  Any other vertex
    runs :func:`_surface_failure` on its full rims: the rim of u is the
    link graph of vu, on the triangles vuc and the opposite edges of vu.
    Link vertices are then named by rank in sorted N(v).
    """
    opp, _, cycles = links
    rims = {u: cycles[(v, u) if v < u else (u, v)] for u in X.neighbors(v)}
    if rims and all(rims.values()):
        return rims, _count_failure(rims)
    lk = _graph(X.neighbors(v), X.link_edges(v))
    rims = {u: _graph(nbrs, opp[(v, u) if v < u else (u, v)]) for u, nbrs in lk.items()}
    return rims, _surface_failure(rims, sorted(rims).index)


def validate_closed_3manifold(X: SimplicialComplex) -> ManifoldReport:
    """Pseudomanifold, edge-link and vertex-link checks plus the edge-degree
    census.  Raises :class:`NotPure` when a maximal simplex has dimension
    below 3.

    Every stage reads :func:`_edge_links`, one pass over the tetrahedra.
    Purity is read off the same pass.  The maximal simplices below
    dimension 3 are the vertices with no neighbour, the triangles on no
    tetrahedron, and the edges on no triangle: the edges on no tetrahedron
    that are no edge of such a triangle.  :class:`NotPure` names the first
    of them.  The edge stage is Lemma A of :func:`_edge_links`, one walk
    per edge link, and the vertex stage Lemma B of :func:`_link_rims`, a
    BFS and chi per vertex link; no link complex is built.
    """
    links = opp, off, cycles = _edge_links(X)
    zero = [t for t, c in off if c == 0]
    bad = [s for s in X.simplices(0) if not X.neighbors(s[0])] + zero
    bad += {e for e, p in opp.items() if not p}.difference(*(combinations(t, 2) for t in zero))
    if bad or not X.simplices(3):
        raise NotPure(min(bad, default=None))

    pseudo = passed("pseudomanifold", triangles=len(X.simplices(2)))
    if off:
        tri, c = min(off)
        pseudo = failed("pseudomanifold",
                        {"kind": "triangle_tetra_count", "triangle": list(tri), "count": c},
                        detail=f"triangle {tri} lies in {c} tetrahedra")

    link_cycles = passed("edge_link_cycles", edges=len(opp))
    e = min((e for e, cycle in cycles.items() if cycle is None), default=None)
    if e is not None:
        link_cycles = failed("edge_link_cycles", {"kind": "edge_link", "edge": list(e)},
                             detail=f"link of edge {e} is not a single cycle")

    sphere_links = passed("vertex_links_spheres", vertices=len(X.simplices(0)))
    failures = ((v, r) for v in X.vertices if (r := _link_rims(X, v, links)[1]) is not None)
    v, reason = next(failures, (None, None))
    if reason is not None:
        sphere_links = failed("vertex_links_spheres", {"kind": "vertex_link", "vertex": v},
                              detail=f"link of vertex {v}: {reason}")

    degrees = {e: len(pairs) for e, pairs in opp.items()}
    return ManifoldReport(pseudo, link_cycles, sphere_links, degrees,
                          five_six_star_verdict(X, degrees))


def is_5_6_star_sphere(Y: SimplicialComplex) -> Verdict:
    """Degrees all 5 or 6 and no two degree-5 vertices adjacent.

    Raises :class:`NotASphere` when the input is not a closed triangulated
    2-sphere.  The rim of u is its link, read off the triangles at u by
    ``Y.link_edges``.
    """
    if Y.dimension() == 3:
        raise NotASphere("dimension 3 != 2")
    rims = {u: _graph(Y.neighbors(u), Y.link_edges(u)) for u in Y.vertices}
    # int: the identity on vertex ids
    return _star_sphere(rims, int, _surface_failure(rims, int))


def _link_verdict(X: SimplicialComplex, v: int, links) -> Verdict:
    """:func:`is_5_6_star_sphere` of the link of ``v``, read by
    :func:`_link_rims` off ``links``, what :func:`_edge_links` reads, with
    link vertices named by rank in sorted N(v).  The :class:`NotASphere`
    reason names ``v``."""
    rims, reason = _link_rims(X, v, links)
    return _star_sphere(rims, sorted(rims).index, reason, f"link of vertex {v}: ")


def _star_sphere(rims: dict, name, reason, where: str = "") -> Verdict:
    """The 5/6* sphere verdict of the surface with rims ``rims``, named as
    in :func:`_surface_failure`: the degree of u is the size of its rim, and
    u, w are adjacent when w is in the rim of u.  Raises :class:`NotASphere`
    with ``where`` before ``reason`` when that is not None."""
    if reason is not None:
        raise NotASphere(where + reason)
    order = sorted(rims)
    for u in order:
        if len(rims[u]) not in (5, 6):
            return failed("is_5_6_star_sphere",
                          {"kind": "vertex_degree", "vertex": name(u), "degree": len(rims[u])},
                          detail=f"vertex {name(u)} has degree {len(rims[u])}")
    fives = [u for u in order if len(rims[u]) == 5]
    for u in fives:
        low = [w for w in rims[u] if w > u and len(rims[w]) == 5]
        if low:
            a, b = name(u), name(min(low))
            return failed("is_5_6_star_sphere", {"kind": "adjacent_low_degree", "edge": [a, b]},
                          detail=f"adjacent degree-5 vertices {a} and {b}")
    return passed("is_5_6_star_sphere", degree5=len(fives), degree6=len(order) - len(fives))


def link_verdicts(X: SimplicialComplex) -> list:
    """The 5/6* sphere verdict of the link of every vertex v of ``X``, in
    vertex order, reported as ``link_<v>``; a link that is no 2-sphere
    fails as ``link_sphere`` with the reason.  All links are read off one
    :func:`_edge_links` pass."""
    links = _edge_links(X)
    verdicts = []
    for v in X.vertices:
        try:
            r = _link_verdict(X, v, links)
        except NotASphere as exc:
            r = failed("link_sphere", {"kind": "vertex_link", "vertex": v}, detail=str(exc))
        verdicts.append(replace(r, check=f"link_{v}"))
    return verdicts


@dataclass(frozen=True)
class SoccerDual:
    """Pentagon/hexagon cellulation dual to a 2-sphere triangulation:
    one cell per vertex (gonality = degree), one dual vertex per triangle,
    one dual edge per edge."""

    cells: tuple        # (sphere vertex, gonality)
    dual_vertices: tuple  # triangles of the sphere
    dual_edges: tuple   # (sphere edge, (triangle index, triangle index))
    cell_faces: dict    # sphere vertex -> sorted tuple of triangle indices

    @property
    def pentagon_count(self) -> int:
        return sum(1 for (_v, g) in self.cells if g == 5)

    @property
    def hexagon_count(self) -> int:
        return sum(1 for (_v, g) in self.cells if g == 6)

    def to_json(self):
        return {
            "kind": "soccer_dual",
            "cells": [[v, g] for (v, g) in self.cells],
            "pentagons": self.pentagon_count,
            "hexagons": self.hexagon_count,
            "dual_vertices": len(self.dual_vertices),
            "dual_edges": len(self.dual_edges),
        }


def soccer_dual(Y: SimplicialComplex) -> SoccerDual:
    """Dual cellulation of a valid degree-5/6 sphere."""
    _require(is_5_6_star_sphere(Y))
    tris = sorted(Y.simplices(2))
    edge_tris = defaultdict(list)
    vertex_tris = {v: [] for v in Y.vertices}
    for i, t in enumerate(tris):
        for e in combinations(t, 2):
            edge_tris[e].append(i)
        for v in t:
            vertex_tris[v].append(i)
    dual_edges = tuple((e, tuple(idxs)) for e, idxs in sorted(edge_tris.items()))
    cell_faces = {v: tuple(idxs) for v, idxs in vertex_tris.items()}
    cells = tuple((v, Y.degree(v)) for v in Y.vertices)
    return SoccerDual(cells=cells, dual_vertices=tuple(tris),
                      dual_edges=dual_edges, cell_faces=cell_faces)


@dataclass(frozen=True)
class FillingPair:
    """Two adjacent vertices splitting a chordless 7-cycle: after rotating
    the cycle, the first is adjacent to its first four vertices and the
    second to the remaining four plus the first."""

    y: int
    z: int
    cycle: tuple  # rotated so y covers cycle[0:4] and z covers cycle[3:7] + cycle[0]

    def to_json(self):
        return {"kind": "filling_pair", "y": self.y, "z": self.z, "cycle": list(self.cycle)}


def find_7cycle_filling(Y: SimplicialComplex, cycle) -> FillingPair:
    """Search for the splitting pair of a chordless 7-cycle.

    For each rotation of either orientation, y is a common neighbour of
    ``rot[0:4]`` and z one of ``rot[3:7] + rot[0]``; of the adjacent pairs,
    the one returned comes first in sorted-edge order, each edge read both
    ways.  Raises :class:`NoFillingPair` when no adjacent pair matches; on
    inputs that passed the sphere checks this would falsify the expected
    filling property and is treated as a failure by callers.
    """
    c = tuple(cycle)
    if len(c) != 7:
        raise ValueError("expected a 7-cycle")
    for base in (c, c[::-1]):
        for r in range(7):
            rot = base[r:] + base[:r]
            ys = frozenset.intersection(*map(Y.neighbors, rot[0:4]))
            zs = frozenset.intersection(*map(Y.neighbors, rot[3:] + rot[:1]))
            pairs = [(y, z) for y in ys for z in zs & Y.neighbors(y)]
            if pairs:
                y, z = min(pairs, key=lambda p: (min(p), max(p), p[0] > p[1]))
                return FillingPair(y, z, rot)
    raise NoFillingPair(f"no filling pair for 7-cycle {c}")


def _require(verdict: Verdict) -> None:
    """Raise :class:`PreconditionNotMet` naming ``verdict``'s check, with its
    detail and witness, when it failed."""
    if not verdict.passed:
        raise PreconditionNotMet(verdict.check, verdict.detail, verdict.witness)


def _sphere_lemmas(Y: SimplicialComplex) -> list:
    """The verdicts of :func:`check_sphere_cycle_lemma` and
    :func:`check_7cycle_fillings` on ``Y``, whose 5/6* verdict the caller
    has required once for both.  One search finds the chordless cycles of
    both; it sorts them by length, so lengths 4-6 and 7 are two slices."""
    cycles = full_cycles(Y, 4, 7)
    short = [c for c in cycles if len(c) < 7]
    return [_sphere_cycle_lemma(Y, short), _seven_cycle_fillings(Y, cycles[len(short):])]


def lemma_verdicts(X: SimplicialComplex) -> list:
    """The sphere lemmas of :func:`_sphere_lemmas` on ``X``, a 5/6* sphere,
    or, on a 3-complex, :func:`check_wheel_in_link` and then the sphere
    lemmas on the link of each vertex, once that link passed its 5/6*
    sphere check.  The first unmet precondition ends the list with a
    failed ``lemmas`` verdict.  Its witness names the unmet check and
    carries that check's witness; a vertex link that is no 2-sphere is
    named by its vertex, as in :func:`link_verdicts`.

    A link is given to the lemmas as its 1-skeleton in the ids of ``X``,
    read off its triangles by ``X.link_edges``, with no link complex built
    or renamed.  Lemma: the result is the one on the link complex of v,
    relabelled by rank in sorted N(v), except that the detail names v.  The
    sphere lemmas read only edges, degrees and neighbour sets (``full_cycles``,
    ``Y.degree``, ``Y.neighbors`` and :func:`find_7cycle_filling`), which
    the 1-skeleton shares with the link complex; and the link's renaming
    of N(v) by rank is increasing, so it keeps each canonical cycle
    canonical and the ``(len, c)`` order of the cycles.  So the verdicts
    find the same cycles in the same order, with the same stats and the
    same witnesses."""
    verdicts, v = [], None  # v: the vertex whose link is read
    try:
        if X.dimension() == 3:
            verdicts.append(check_wheel_in_link(X))
            links = _edge_links(X)
            for v in X.vertices:
                _require(_link_verdict(X, v, links))
                Y = build_complex(X.link_edges(v))
                where = f"link of vertex {v}"
                verdicts += [replace(r, detail=f"{where}: {r.detail}" if r.detail else where)
                             for r in _sphere_lemmas(Y)]
        else:
            _require(is_5_6_star_sphere(X))
            verdicts += _sphere_lemmas(X)
    except (PreconditionNotMet, NotASphere) as exc:
        if isinstance(exc, PreconditionNotMet):
            unmet = {"check": exc.name, "witness": exc.witness}
        elif v is not None:  # the link of v is no 2-sphere
            unmet = {"check": "link_sphere", "witness": {"kind": "vertex_link", "vertex": v}}
        else:  # X is no 2-sphere
            unmet = {"check": "is_5_6_star_sphere", "witness": {"kind": "not_a_sphere"}}
        verdicts.append(failed("lemmas", {"kind": "precondition", **unmet}, detail=str(exc)))
    return verdicts


def check_sphere_cycle_lemma(Y: SimplicialComplex) -> Verdict:
    """No chordless 4-cycles, and every chordless 5- or 6-cycle is the rim
    of a wheel: a cycle is filled when it is the link of a vertex outside
    it, which :func:`_sphere_cycle_lemma` reads off the degrees."""
    _require(is_5_6_star_sphere(Y))
    return _sphere_cycle_lemma(Y, full_cycles(Y, 4, 6))


def _sphere_cycle_lemma(Y: SimplicialComplex, cycles: list) -> Verdict:
    """:func:`check_sphere_cycle_lemma` on ``cycles``, the chordless 4- to
    6-cycles of ``Y`` in ``full_cycles`` order, where the caller has found
    ``Y`` a closed surface.

    Lemma: on a closed surface, a chordless cycle C is the rim of a wheel
    exactly when some common neighbour x of all its vertices has degree
    |C|.  The link of x is one cycle through N(x).  If deg x = |C| and x is
    adjacent to all of C, then N(x) = V(C), whose induced graph is C as C
    is chordless; so the Hamiltonian cycle Lk(x) of it is C, and x is the
    centre of a wheel with rim C.  Conversely, a rim at x is a chordless
    cycle of the cycle Lk(x), so it is all of Lk(x), and deg x = |C|.
    Flagness is not needed, and no vertex link is read."""
    if cycles and len(cycles[0]) == 4:
        return failed("sphere_cycle_lemma", cycles[0],
                      detail="chordless 4-cycle present")
    filled = 0
    for cyc in cycles:
        if not any(Y.degree(x) == len(cyc)
                   for x in frozenset.intersection(*map(Y.neighbors, cyc.vertices))):
            return failed("sphere_cycle_lemma", cyc,
                          detail=f"chordless {len(cyc)}-cycle is the rim of no wheel",
                          filled=filled)
        filled += 1
    return passed("sphere_cycle_lemma", filled=filled, quads=0)


def check_7cycle_fillings(Y: SimplicialComplex) -> Verdict:
    """Run the filling-pair search over every chordless 7-cycle."""
    _require(is_5_6_star_sphere(Y))
    return _seven_cycle_fillings(Y, full_cycles(Y, 7, 7))


def _seven_cycle_fillings(Y: SimplicialComplex, sevens: list) -> Verdict:
    """:func:`check_7cycle_fillings` on ``sevens``, the chordless 7-cycles
    of ``Y``."""
    for cyc in sevens:
        try:
            find_7cycle_filling(Y, cyc.vertices)
        except NoFillingPair:
            return failed("seven_cycle_fillings", cyc,
                          detail="7-cycle admits no filling pair", cycles=len(sevens))
    return passed("seven_cycle_fillings", cycles=len(sevens))


def check_wheel_in_link(X: SimplicialComplex) -> Verdict:
    """Every 5- and 6-wheel lies inside the link of some vertex outside it."""
    _require(five_six_star_verdict(X))
    count = 0
    for whl in wheels(X, 5, 6):
        count += 1
        rim = whl.rim
        k = len(rim)
        if not any(all(X.has_simplex((x, whl.center, rim[j], rim[(j + 1) % k]))
                       for j in range(k))
                   for x in frozenset.intersection(*map(X.neighbors, whl.vertex_set))):
            return failed("wheel_in_link", whl,
                          detail=f"{k}-wheel at {whl.center} lies in no vertex link",
                          wheels=count)
    return passed("wheel_in_link", wheels=count)


def _theorem_b_stages(X: SimplicialComplex, report: ManifoldReport, types: set):
    """The stages of :func:`verify_theorem_b`, as (stage, verdict) pairs in
    order: the three manifold verdicts of ``report`` as stage ``validate``,
    then its 5/6* verdict, flagness, local 5-largeness and 8-location.
    Each verdict up to flagness is computed only when the caller asks for
    it, once every stage before it has passed.  The last two come from one
    :func:`~combcurv.curvature.located_and_large` call, which reads each
    vertex link once for both and tests flagness no more: ``is_flag``
    keeps the flagness stage's witness on ``X``.  The dwheel types it
    reads are added to ``types``."""
    for verdict in (report.is_pseudomanifold, report.edge_link_cycles,
                    report.vertex_links_spheres):
        yield "validate", verdict
    yield "five_six_star", report.five_six_star
    yield "is_flag", is_flag(X)
    located, large, found = located_and_large(X, 8, 5)
    types |= found
    yield "locally_5_large", large
    yield "8_located", located


def verify_theorem_b(X: SimplicialComplex) -> Verdict:
    """Full pipeline: manifold validation, edge-degree condition, flagness,
    local 5-largeness and 8-location; a pass reports the types and the
    number of the dwheels of boundary at most 8.

    The pipeline reports the first failing stage; on inputs passing the
    degree condition and flagness, the later stages are expected to pass
    and any counterexample is surfaced with its witness.  The dwheel types
    are read off the 8-location join, and no stage checks them, as none can
    be disallowed once ``locally_5_large`` has passed: every wheel rim then
    has length at least 5, so a dwheel of boundary at most 8 has l >= 5 and
    k + l <= 12, which leaves exactly ``ALLOWED_DWHEEL_TYPES``.  The test
    ``test_dwheel_types_stage_cannot_fail_after_local_5_largeness`` referees
    this lemma.
    """
    try:
        report = validate_closed_3manifold(X)
    except NotPure as exc:
        return failed("theorem_b", exc.witness,
                      detail="stage validate: not a pure 3-complex", stage="validate")
    types = set()
    for stage, verdict in _theorem_b_stages(X, report, types):
        if not verdict.passed:
            return failed("theorem_b", verdict.witness, detail=f"stage {stage}: {verdict.detail}",
                          stage=stage)
    # the last stage, 8-location, counts the dwheels
    return passed("theorem_b", detail="all stages passed",
                  dwheel_types=sorted(types), dwheels=verdict.stats["dwheels"])
