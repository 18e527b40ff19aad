"""Independent brute-force reference implementations.

These deliberately avoid the library's optimized code paths: links, spans
and maximal simplices come from full scans of every stored face, flagness
tests every pairwise-adjacent vertex set by size and lexicographic order,
local largeness tests the link of every simplex with that flagness test and
the path-enumerating cycle search, the tetrahedra on each triangle
and edge are counted by a scan of every tetrahedron, edge links are
complexes tested for one cycle by a BFS, vertex links are complexes put
through every closed-surface check, each a plain scan, sphere degrees
come from a scan of every edge, cycles are found by
plain DFS over simple paths or over induced paths from their least vertex,
wheel pairs are matched by trying every rotation,
dwheels are sorted all at once and located by trying every centre,
the wheels at one vertex by testing every set of its neighbours,
wheel centres, the vertex whose link holds a wheel and 7-cycle filling
pairs by scanning candidate vertices and every edge, distances come from
Floyd-Warshall, interval thinness runs one BFS per layer pair, the
descent conditions scan every edge and vertex, the projection lemma's
configurations are tried in sorted order, and the four-point
constant is computed from basepoint Gromov products or from every vertex quadruple, and the classes of a cover
stage come from merging uncovered directions pairwise until none merge.
Tests compare library output against these on small inputs.

Three helpers that no library module calls live here too: the chordless
test of one cycle (``is_full``), the smallest 1-ball centre of a vertex set
(``in_one_ball``) and the stage-1 cover state (``init_cover``); and so
does the error ``naive_link`` raises on a simplex not stored
(``SimplexNotPresent``).
"""

from fractions import Fraction
from itertools import combinations, permutations

from combcurv.complexes import MAX_DIM, Cycle, SimplicialComplex, canonical_cycle, chords
from combcurv.cover import _base_state, expand_ball
from combcurv.curvature import DWheel, Wheel
from combcurv.errors import (
    CombCurvError,
    DisconnectedError,
    NoFillingPair,
    NotACovering,
    PreconditionNotMet,
)
from combcurv.manifold import FillingPair
from combcurv.metric import SDReport, distances_from, interval
from combcurv.verdicts import failed, passed


class SimplexNotPresent(CombCurvError):
    """A queried simplex is not stored in the complex."""


def naive_maximal_simplices(X):
    """Simplices not properly contained in any stored simplex, by testing
    every simplex against every simplex one dimension up."""
    out = []
    for d in range(MAX_DIM + 1):
        higher = X.simplices(d + 1) if d < MAX_DIM else frozenset()
        for s in X.simplices(d):
            sset = set(s)
            if not any(sset < set(t) for t in higher):
                out.append(s)
    return sorted(out, key=lambda s: (s, len(s)))


def naive_span(X, vertex_set):
    """Full subcomplex induced by a vertex set, by a scan of every face."""
    keep = set(vertex_set)
    faces = {
        d: [s for s in X.simplices(d) if keep.issuperset(s)]
        for d in range(MAX_DIM + 1)
    }
    return SimplicialComplex(X.vertex_count, faces, name=X.name)


def naive_link(X, simplex):
    """Link of a stored simplex as ``(link_complex, vertex_map)``, by
    testing every face for disjointness and a joint simplex."""
    sigma = tuple(sorted(simplex))
    if not X.has_simplex(sigma):
        raise SimplexNotPresent(f"simplex {sigma} not in complex")
    sset = set(sigma)
    members = []
    for d in range(MAX_DIM + 1 - len(sigma)):
        for tau in X.simplices(d):
            if sset.isdisjoint(tau) and X.has_simplex(tau + sigma):
                members.append(tau)
    vertex_map = sorted({v for tau in members for v in tau})
    back = {v: i for i, v in enumerate(vertex_map)}
    faces = {d: [] for d in range(MAX_DIM + 1)}
    for tau in members:
        faces[len(tau) - 1].append(tuple(back[v] for v in tau))
    return SimplicialComplex(len(vertex_map), faces), vertex_map


def naive_link_graph(X, v):
    """The 1-skeleton of the link of vertex ``v`` in the ids of ``X``, as
    neighbour of v -> set of link neighbours, read off ``naive_link``."""
    link, vmap = naive_link(X, (v,))
    graph = {u: set() for u in vmap}
    for a, b in link.simplices(1):
        graph[vmap[a]].add(vmap[b])
        graph[vmap[b]].add(vmap[a])
    return graph


def _tetrahedra_on(X, face):
    return sum(1 for t in X.simplices(3) if set(face) <= set(t))


def naive_pseudomanifold(X):
    """The pseudomanifold stage of ``validate_closed_3manifold``: the first
    triangle, in sorted order, that does not lie on exactly two tetrahedra,
    each count a scan of every tetrahedron."""
    for tri in sorted(X.simplices(2)):
        c = _tetrahedra_on(X, tri)
        if c != 2:
            return failed("pseudomanifold",
                          {"kind": "triangle_tetra_count", "triangle": list(tri), "count": c},
                          detail=f"triangle {tri} lies in {c} tetrahedra")
    return passed("pseudomanifold", triangles=len(X.simplices(2)))


def naive_edge_degrees(X):
    """The number of tetrahedra on each edge, each a scan of every
    tetrahedron."""
    return {e: _tetrahedra_on(X, e) for e in X.simplices(1)}


def naive_edge_link_cycles(X):
    """The edge-link stage of ``validate_closed_3manifold`` as first
    written: one link complex per edge, in sorted edge order, tested for a
    single cycle by its counts and degrees and one BFS."""
    for e in sorted(X.simplices(1)):
        if not naive_link_is_one_cycle(X, e):
            return failed("edge_link_cycles", {"kind": "edge_link", "edge": list(e)},
                          detail=f"link of edge {e} is not a single cycle")
    return passed("edge_link_cycles", edges=len(X.simplices(1)))


def naive_link_is_one_cycle(X, e):
    """Whether the link complex of the edge ``e`` is one cycle, by its
    counts and degrees and one BFS."""
    link, _ = naive_link(X, e)
    n = link.vertex_count
    return (n >= 3 and len(link.simplices(1)) == n
            and all(link.degree(v) == 2 for v in range(n))
            and float("inf") not in distances_from(link, 0))


def naive_closed_surface_failure(Y):
    """The closed-surface test of the sphere condition as first written, on
    plain scans: the reason ``Y`` is not a closed triangulated 2-sphere, or
    None.  The triangles on each edge are counted by a scan of every
    triangle, connectivity is a BFS over a scan of every edge, the Euler
    characteristic comes from the face counts, and the rim of every vertex
    is walked edge by edge from its triangles."""
    if Y.dimension() != 2:
        return f"dimension {Y.dimension()} != 2"
    for s in naive_maximal_simplices(Y):
        if len(s) != 3:
            return f"maximal simplex {s} is not a triangle"
    tris = Y.simplices(2)
    for e in sorted(Y.simplices(1)):
        c = sum(1 for t in tris if set(e) <= set(t))
        if c != 2:
            return f"edge {e} lies in {c} triangles"
    seen, todo = {Y.vertices[0]}, [Y.vertices[0]]
    while todo:
        u = todo.pop()
        for e in Y.simplices(1):
            if u in e and e[0] + e[1] - u not in seen:
                seen.add(e[0] + e[1] - u)
                todo.append(e[0] + e[1] - u)
    if len(seen) != len(Y.vertices):
        return "not connected"
    if Y.euler_characteristic() != 2:
        return f"Euler characteristic {Y.euler_characteristic()} != 2"
    for v in Y.vertices:
        # every rim vertex has two rim edges, so the walk from one of them
        # closes up; the rim is one cycle when the walk used every edge
        rim = [tuple(u for u in t if u != v) for t in tris if v in t]
        start = cur = rim[0][0]
        used = set()
        while not used or cur != start:
            e = next(e for e in rim if cur in e and e not in used)
            used.add(e)
            cur = e[0] + e[1] - cur
        if len(used) != len(rim):
            return f"triangles at vertex {v} do not close into one cycle"
    return None


def naive_five_six_star_degrees(Y):
    """The degree half of ``is_5_6_star_sphere`` on a closed surface, as
    first written: degrees counted by a scan of every edge, the first vertex
    of degree other than 5 or 6, then the first edge of two degree-5
    vertices in sorted edge order."""
    deg = {v: sum(1 for e in Y.simplices(1) if v in e) for v in Y.vertices}
    for v in Y.vertices:
        if deg[v] not in (5, 6):
            return failed("is_5_6_star_sphere",
                          {"kind": "vertex_degree", "vertex": v, "degree": deg[v]},
                          detail=f"vertex {v} has degree {deg[v]}")
    for (u, v) in sorted(Y.simplices(1)):
        if deg[u] == deg[v] == 5:
            return failed("is_5_6_star_sphere", {"kind": "adjacent_low_degree", "edge": [u, v]},
                          detail=f"adjacent degree-5 vertices {u} and {v}")
    return passed("is_5_6_star_sphere", degree5=list(deg.values()).count(5),
                  degree6=list(deg.values()).count(6))


def naive_vertex_links_spheres(X):
    """The vertex-link stage of ``validate_closed_3manifold`` as first
    written: one link complex per vertex, in vertex order, put through
    every closed-surface check of the sphere condition."""
    for v in X.vertices:
        link, _ = naive_link(X, (v,))
        reason = naive_closed_surface_failure(link)
        if reason is not None:
            return failed("vertex_links_spheres", {"kind": "vertex_link", "vertex": v},
                          detail=f"link of vertex {v}: {reason}")
    return passed("vertex_links_spheres", vertices=len(X.simplices(0)))


def naive_flag_witness(X):
    """The first vertex set of 3 to 5 vertices, by size and then in
    lexicographic order, that is pairwise adjacent and not a stored simplex,
    or None.  Sets grow one sorted vertex at a time, each tested against
    every vertex already in it; a set that is not pairwise adjacent is not
    grown, as no superset of it is."""
    verts = X.vertices

    def cliques(prefix, size):
        if len(prefix) == size:
            yield prefix
            return
        for x in verts:
            if (not prefix or x > prefix[-1]) and all(X.adjacent(a, x) for a in prefix):
                yield from cliques(prefix + (x,), size)

    for size in range(3, MAX_DIM + 3):
        for c in cliques((), size):
            if not X.has_simplex(c):
                return c
    return None


def naive_is_k_large(X, k):
    """k-largeness on the plain scans: the empty clique of
    ``naive_flag_witness``, then the shortest chordless cycle below k from
    ``naive_full_cycles``, in the verdict form of ``is_k_large``."""
    if k < 4:
        raise ValueError("largeness starts at k = 4")
    w = naive_flag_witness(X)
    if w is not None:
        return failed("is_k_large", {"kind": "empty_clique", "vertices": list(w)},
                      detail=f"not flag: clique {w} spans no simplex", k=k)
    if k > 4:
        cycles = naive_full_cycles(X, 4, k - 1)
        if cycles:
            return failed("is_k_large", Cycle(cycles[0]),
                          detail=f"full {len(cycles[0])}-cycle present", k=k,
                          cycles=len(cycles))
    return passed("is_k_large", k=k)


def naive_is_locally_k_large(X, k):
    """Local k-largeness as first written: the link of every simplex, not
    only of every vertex, built by a full face scan and tested for
    k-largeness on the plain scans.  Its verdict must match the library's
    byte for byte."""
    links = 0
    for sigma in (s for d in range(4) for s in sorted(X.simplices(d))):
        link, vmap = naive_link(X, sigma)
        links += 1
        inner = naive_is_k_large(link, k)
        if not inner.passed:
            witness = inner.witness
            if isinstance(witness, Cycle):
                mapped = {"kind": "cycle_in_link", "simplex": list(sigma),
                          "cycle": [vmap[u] for u in witness.vertices]}
            else:
                mapped = {"kind": "clique_in_link", "simplex": list(sigma),
                          "vertices": [vmap[u] for u in witness["vertices"]]}
            return failed("is_locally_k_large", mapped,
                          detail=f"link of {sigma} is not {k}-large: {inner.detail}",
                          k=k, links_checked=links)
    return passed("is_locally_k_large", k=k, links_checked=links)


def is_full(X, cycle):
    """Chordlessness of a cyclic vertex sequence.

    The input is read in cyclic order; consecutive vertices must be adjacent.
    A failing verdict carries a chord as witness.
    """
    vs = tuple(cycle)
    k = len(vs)
    if k < 3 or len(set(vs)) != k or not all(X.adjacent(vs[i], vs[(i + 1) % k])
                                             for i in range(k)):
        return failed("is_full", {"kind": "not_a_cycle", "vertices": list(vs)},
                      detail="input is not a cycle of the complex")
    ch = chords(X, vs)
    if ch:
        return failed("is_full", {"kind": "chord", "edge": list(ch[0]), "cycle": list(vs)},
                      detail=f"chord {ch[0]} inside cycle", chords=len(ch))
    return passed("is_full", detail=f"cycle of length {len(vs)} has no chords")


def naive_full_cycles(X, min_len, max_len):
    """Chordless cycles by DFS over all simple paths of the 1-skeleton."""
    found = set()

    def extend(path):
        k = len(path)
        if k >= 4 and X.adjacent(path[-1], path[0]):
            ok = True
            for i in range(k):
                for j in range(i + 1, k):
                    adjacent = X.adjacent(path[i], path[j])
                    consecutive = j - i == 1 or (i == 0 and j == k - 1)
                    if adjacent != consecutive:
                        ok = False
            if ok and min_len <= k <= max_len:
                found.add(canonical_cycle(path))
        if k < max_len:
            for u in X.neighbors(path[-1]):
                if u not in path:
                    extend(path + (u,))

    for v in X.vertices:
        extend((v,))
    return sorted(found, key=lambda c: (len(c), c))


def induced_path_cycles(X, min_len, max_len):
    """Chordless cycles by a DFS over induced paths from each cycle's least
    vertex s.  A path s, v1, ..., t grows by a neighbour u of its tip t
    that lies above s, off the path, and adjacent to no path vertex but t
    and s.  When u is adjacent to s the path closes into a cycle, kept if
    it has 4 vertices or more, and is not grown further: any longer cycle
    through it would have the chord su.  Each cycle comes twice, once per
    direction, and is kept in canonical form."""
    found = set()

    def extend(path):
        s, tip = path[0], path[-1]
        for u in X.neighbors(tip):
            if u <= s or u in path or any(X.adjacent(u, a) for a in path[1:-1]):
                continue
            if len(path) > 1 and X.adjacent(u, s):
                if max(4, min_len) <= len(path) + 1:
                    found.add(canonical_cycle(path + (u,)))
            elif len(path) + 1 < max_len:
                extend(path + (u,))

    for v in X.vertices:
        extend((v,))
    return sorted(found, key=lambda c: (len(c), c))


def naive_wheels(X, k_min, k_max):
    """(center, canonical rim) pairs found by testing every candidate rim."""
    out = set()
    for rim in naive_full_cycles(X, k_min, k_max):
        k = len(rim)
        for center in X.vertices:
            if center in rim:
                continue
            if not all(X.adjacent(center, r) for r in rim):
                continue
            if all(X.has_simplex((center, rim[i], rim[(i + 1) % k])) for i in range(k)):
                out.add((center, rim))
    return sorted(out)


def naive_wheels_at(X, center, k_min, k_max):
    """(center, canonical rim) pairs at one vertex, found by testing every
    set of k_min .. k_max of its neighbours: a rim is a set whose span in
    X is one cycle, walked from its least vertex, with every cone triangle
    present."""
    out = []
    nbrs = sorted(X.neighbors(center))
    for k in range(k_min, k_max + 1):
        for vs in combinations(nbrs, k):
            inside = {v: X.neighbors(v) & set(vs) for v in vs}
            if any(len(adj) != 2 for adj in inside.values()):
                continue
            # every vertex has two neighbours in the span: it is one cycle
            # when the walk from vs[0] meets all k before it closes
            cycle = [vs[0], min(inside[vs[0]])]
            while cycle[-1] != vs[0]:
                cycle += inside[cycle[-1]] - {cycle[-2]}
            cycle.pop()
            if len(cycle) == k and all(X.has_simplex((center, cycle[i - 1], cycle[i]))
                                       for i in range(k)):
                out.append((center, canonical_cycle(cycle)))
    return sorted(out)


def naive_rim_filled(X, cycle):
    """Whether a cycle is the rim of a wheel: some common neighbour of all
    its vertices, outside it, spans every cone triangle."""
    vs = tuple(cycle)
    k = len(vs)
    common = set(X.neighbors(vs[0]))
    for v in vs[1:]:
        common &= X.neighbors(v)
    for cand in sorted(common):
        if cand in vs:
            continue
        if all(X.has_simplex((cand, vs[j], vs[(j + 1) % k])) for j in range(k)):
            return True
    return False


def naive_wheel_in_link(X):
    """``check_wheel_in_link`` past its 5/6* precondition, as first written.

    The 5- and 6-wheels are found per centre v, as the chordless cycles of
    the span of N(v) with every cone triangle, in (centre, length, rim)
    order.  For each wheel the common neighbours of all its vertices are
    tried in sorted order, and the first whose link holds every wheel
    triangle ends the scan."""
    count = 0
    for v in X.vertices:
        rims = [rim for rim in naive_full_cycles(naive_span(X, X.neighbors(v)), 5, 6)
                if all(X.has_simplex((v, rim[i], rim[(i + 1) % len(rim)]))
                       for i in range(len(rim)))]
        for rim in sorted(rims, key=lambda r: (len(r), r)):
            count += 1
            whl = Wheel(v, rim)
            k = len(rim)
            hit = None
            for cand in sorted(frozenset.intersection(*map(X.neighbors, whl.vertex_set))):
                if all(X.has_simplex((cand, v, rim[j], rim[(j + 1) % k])) for j in range(k)):
                    hit = cand
                    break
            if hit is None:
                return failed("wheel_in_link", whl,
                              detail=f"{k}-wheel at {v} lies in no vertex link", wheels=count)
    return passed("wheel_in_link", wheels=count)


def naive_find_7cycle_filling(X, cycle):
    """The 7-cycle filling search as first written: for each rotation of
    each orientation, scan the sorted edges, each read both ways."""
    c = tuple(cycle)
    for base in (c, c[::-1]):
        for r in range(7):
            rot = base[r:] + base[:r]
            need_y = rot[0:4]
            need_z = (rot[3], rot[4], rot[5], rot[6], rot[0])
            for (y, z) in sorted(X.simplices(1)):
                for (yy, zz) in ((y, z), (z, y)):
                    if all(X.adjacent(yy, v) for v in need_y) and \
                       all(X.adjacent(zz, v) for v in need_z):
                        return FillingPair(yy, zz, rot)
    raise NoFillingPair(f"no filling pair for 7-cycle {c}")


def naive_dwheels(X, max_boundary):
    """Dwheel key set by matching every ordered wheel pair and rotation.

    Keys are (apexes, shared, arc1, arc2, junction) normalized exactly like
    the library's canonical form, so the two enumerations are comparable.
    """
    wheel_list = naive_wheels(X, 4, max_boundary)
    keys = set()
    for (v0, rim1) in wheel_list:
        k = len(rim1)
        for (v0p, rim2) in wheel_list:
            l = len(rim2)
            for o1 in (rim1, rim1[::-1]):
                for r1 in range(k):
                    a1 = o1[r1:] + o1[:r1]
                    # read rim1 as (v1 ... v_{k-2}, w, v0p)
                    if a1[-1] != v0p:
                        continue
                    w = a1[-2]
                    for o2 in (rim2, rim2[::-1]):
                        for r2 in range(l):
                            a2 = o2[r2:] + o2[:r2]
                            if a2[-1] != v0 or a2[-2] != w:
                                continue
                            arc1, arc2 = a1[:-2], a2[:-2]
                            v1, v1p = arc1[0], arc2[0]
                            if v1 == v1p:
                                junction, blen = "identified", k + l - 4
                            elif X.adjacent(v1, v1p):
                                junction, blen = "edge", k + l - 3
                            else:
                                continue
                            if blen > max_boundary:
                                continue
                            if k < l or (k == l and (v0p, arc2) < (v0, arc1)):
                                keys.add(((v0p, v0), w, arc2, arc1, junction))
                            else:
                                keys.add(((v0, v0p), w, arc1, arc2, junction))
    return sorted(keys)


def naive_sorted_dwheels(X, max_boundary):
    """``naive_dwheels`` as DWheels in one global sort by
    ``((boundary, type), key)``, the order the library must stream."""
    dws = [DWheel(*key) for key in naive_dwheels(X, max_boundary)]
    return sorted(dws, key=lambda d: ((d.boundary_length, d.type),
                                      (d.apexes, d.shared, d.rim1, d.rim2, d.junction)))


def naive_is_m_located(X, m, sorted_dwheels=None):
    """m-location as first written: every dwheel built and sorted, then
    each tried against every centre among its vertices and their common
    neighbours.  Its verdict must match the library's byte for byte.

    ``sorted_dwheels``, when given, is ``naive_sorted_dwheels(X, m2)`` for
    some m2 >= m; only its dwheels of boundary at most m are used."""
    if m < 6:
        raise ValueError("location starts at m = 6")
    w = naive_flag_witness(X)
    if w is not None:
        return failed("is_m_located", {"kind": "empty_clique", "vertices": list(w)},
                      detail=f"not flag: clique {w} spans no simplex", m=m)
    if sorted_dwheels is None:
        sorted_dwheels = naive_sorted_dwheels(X, m)
    count = 0
    for dw in (d for d in sorted_dwheels if d.boundary_length <= m):
        count += 1
        verts = dw.vertex_set
        common = {y for y in X.vertices if all(X.adjacent(y, a) for a in verts)}
        candidates = sorted(common | verts)
        if not any(all(a == y or X.adjacent(a, y) for a in verts) for y in candidates):
            return failed(
                "is_m_located",
                {"kind": "unlocated_dwheel", "dwheel": dw.to_json(),
                 "candidates_tried": candidates},
                detail=f"({dw.k},{dw.l})-dwheel of boundary length {dw.boundary_length} "
                       "fits in no 1-ball",
                m=m, dwheels=count)
    return passed("is_m_located", m=m, dwheels=count)


def in_one_ball(X, vertex_set):
    """The smallest vertex whose closed neighborhood contains the whole set,
    or None.

    The centers of a set are exactly the common members of the closed
    neighborhoods ``N(a) | {a}`` of its vertices."""
    balls = [X.neighbors(a) | {a} for a in vertex_set]
    if not balls:
        raise ValueError("empty vertex set")
    return min(frozenset.intersection(*balls), default=None)


def naive_four_wheel_free(X):
    """Direct search for a 4-wheel: a vertex plus four neighbors forming a
    chordless 4-cycle with all cone triangles present."""
    for v in X.vertices:
        nbrs = sorted(X.neighbors(v))
        for four in combinations(nbrs, 4):
            for perm in permutations(four[1:]):
                cyc = (four[0],) + perm
                edges_ok = all(X.adjacent(cyc[i], cyc[(i + 1) % 4]) for i in range(4))
                if not edges_ok:
                    continue
                if X.adjacent(cyc[0], cyc[2]) or X.adjacent(cyc[1], cyc[3]):
                    continue
                if all(X.has_simplex((v, cyc[i], cyc[(i + 1) % 4])) for i in range(4)):
                    return (v, cyc)
    return None


def floyd_warshall(X):
    n = X.vertex_count
    inf = float("inf")
    d = [[inf] * n for _ in range(n)]
    for v in X.vertices:
        d[v][v] = 0
    for (u, v) in X.simplices(1):
        d[u][v] = d[v][u] = 1
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == inf:
                continue
            di = d[i]
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return d


def naive_delta(X):
    """Four-point constant from basepoint Gromov products, over all ordered
    4-tuples."""
    d = floyd_warshall(X)
    verts = X.vertices

    def gp(x, y, w):
        return Fraction(d[x][w] + d[y][w] - d[x][y], 2)

    worst = Fraction(0)
    for w in verts:
        for x in verts:
            for y in verts:
                for z in verts:
                    need = min(gp(x, z, w), gp(y, z, w)) - gp(x, y, w)
                    if need > worst:
                        worst = need
    return worst


def naive_delta_quadruples(X):
    """Four-point constant as first written: the three pair sums of every
    vertex quadruple, from one BFS row per vertex."""
    verts = X.vertices
    if len(verts) < 4:
        return Fraction(0)
    dist = {v: distances_from(X, v) for v in verts}
    if any(dist[u][v] == float("inf") for u in verts for v in verts):
        raise DisconnectedError("four-point constant needs a connected complex")
    worst = 0
    for x, y, z, w in combinations(verts, 4):
        s1 = dist[x][y] + dist[z][w]
        s2 = dist[x][z] + dist[y][w]
        s3 = dist[x][w] + dist[y][z]
        smid, smax = sorted((s1, s2, s3))[1:]
        if smax - smid > worst:
            worst = smax - smid
    return Fraction(worst, 2)


def naive_interval_vertices(X, o, o2):
    """Vertices on geodesics, by explicit path enumeration."""
    d = floyd_warshall(X)
    n = d[o][o2]
    hits = set()

    def walk(v, path):
        if v == o2:
            hits.update(path)
            return
        for u in X.neighbors(v):
            if d[o][u] == len(path) and d[u][o2] == n - len(path):
                walk(u, path + (u,))

    walk(o, (o,))
    return hits


def naive_interval_thinness(X, o, o2):
    """Interval thinness as first written: the layers of one interval, then
    a fresh BFS for every pair inside a layer.  The witness is the first
    pair reaching the maximum, in layer and sorted-pair order."""
    best, witness = 0, None
    for layer in interval(X, o, o2).layers:
        for u, v in combinations(sorted(layer), 2):
            d = distances_from(X, u)[v]
            if d > best:
                best, witness = d, (u, v)
    return best, witness


def naive_check_sd_prime(X, o, n):
    """The descent property as first written: at every radius i = 1..n,
    (T) scans every edge of X in sorted order and keeps those in sphere
    i + 1, and (V) every vertex in sphere i + 1.  The report must equal
    ``check_sd_prime``'s, witnesses and counts included."""
    dist = distances_from(X, o)
    results = {}
    for i in range(1, n + 1):
        results[i] = (_naive_triangle_condition(X, dist, i), _naive_vertex_condition(X, dist, i))
    return SDReport(base=o, max_radius=n, results=results)


def _naive_triangle_condition(X, dist, i):
    checked = 0
    for (u, v) in sorted(X.simplices(1)):
        if dist[u] != i + 1 or dist[v] != i + 1:
            continue
        checked += 1
        if not any(dist[t] <= i and X.has_simplex((u, v, t)) for t in X.vertices):
            return failed("sd_T", {"kind": "edge", "edge": [u, v], "radius": i},
                          detail=f"edge ({u},{v}) in sphere {i + 1} sees nothing in ball {i}",
                          edges_checked=checked)
    return passed("sd_T", edges_checked=checked)


def _naive_vertex_condition(X, dist, i):
    pairs = 0
    for v in X.vertices:
        if dist[v] != i + 1:
            continue
        down = sorted(u for u in X.neighbors(v) if dist[u] <= i)
        for u, w in combinations(down, 2):
            pairs += 1
            if X.adjacent(u, w):
                continue
            if not any(t not in (u, w) and X.adjacent(t, u) and X.adjacent(t, w) for t in down):
                return failed("sd_V", {"kind": "vertex", "vertex": v, "pair": [u, w], "radius": i},
                              detail=f"no common neighbor below radius {i + 1} for ({u},{w}) "
                                     f"in link of {v}",
                              pairs_checked=pairs)
    return passed("sd_V", pairs_checked=pairs)


def naive_projection_lemma(X, o, n):
    """The projection lemma's instance scan as first written, on distances
    from Floyd-Warshall, with every choice made in sorted order: v in
    sphere i + 1, the non-adjacent pair y < z below it, their common
    neighbour x below it, then y' and z' two steps down closing triangles
    with x.  8-location and local 5-largeness are taken as given; the
    descent property is tested by :func:`naive_check_sd_prime`.  The
    library makes every choice in the same order, so a failing witness and
    the instance count at a failure are the same as this one's."""
    sd = naive_check_sd_prime(X, o, n)
    if not sd.passed:
        raise PreconditionNotMet(f"check_sd_prime(X, {o}, {n})", sd.first_failure().detail)
    dist = floyd_warshall(X)[o]
    instances = 0
    for i in range(1, n + 1):
        for v in X.vertices:
            if dist[v] != i + 1:
                continue
            down = [u for u in X.vertices if X.adjacent(u, v) and dist[u] <= i]
            for y, z in combinations(down, 2):
                if X.adjacent(y, z):
                    continue
                for x in (x for x in down if X.adjacent(x, y) and X.adjacent(x, z)):
                    below = [t for t in X.vertices if X.adjacent(t, x) and dist[t] <= i - 1]
                    for yp in (t for t in below if X.adjacent(t, y)):
                        for zp in (t for t in below if X.adjacent(t, z)):
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


def naive_check_covering_map(f, cover, base, full_at=None):
    """The covering condition as first written: six span complexes per
    cover vertex, built inside the per-dimension loops.

    It walks the 1-ball in sorted order and reads each span's faces by
    dimension, each dimension sorted, so it meets offenders in the same
    order as the library and must raise on the same vertex with the same
    reason.
    """
    full_at = set(full_at) if full_at is not None else set()
    for v in cover.vertices:
        bv = sorted({v} | cover.neighbors(v))
        images = {}
        for u in bv:
            fu = f[u]
            if not base.has_vertex(fu):
                raise NotACovering(v, f"image {fu} of {u} is not a vertex of the base")
            if fu in images.values():
                raise NotACovering(v, f"not injective on the 1-ball ({u} collides)")
            images[u] = fu
        image_set = set(images.values())
        for d in range(1, 4):
            for s in sorted(cover.span(bv).simplices(d)):
                if not base.has_simplex(tuple(images[u] for u in s)):
                    raise NotACovering(v, f"simplex {s} maps to a non-simplex")
        inverse = {fu: u for u, fu in images.items()}
        for d in range(1, 4):
            for s in sorted(base.span(image_set).simplices(d)):
                pre = tuple(sorted(inverse[x] for x in s))
                if not cover.has_simplex(pre):
                    raise NotACovering(v, f"image simplex {s} has no preimage in the 1-ball")
        if v in full_at and image_set != {f[v]} | base.neighbors(f[v]):
            raise NotACovering(v, "1-ball does not cover the full 1-ball of the image")


def init_cover(X, base):
    """Stage-1 state: the first expansion of stage 0.  Each neighbour z of
    the base is its own class, and classes sort by z, so the ball is the
    closed star of the base with sheet map ``(base,) + sorted N(base)``.
    The input must be flag."""
    return expand_ball(_base_state(X, base))


def naive_cover_classes(state):
    """The classes of uncovered directions that ``state`` grows by, as
    ``(z, members)`` sorted by least member.

    Every pair (w, z), w on the boundary sphere and z a neighbour of f(w)
    that no neighbour of w maps to, starts as its own class.  Two classes
    merge while a member of one and a member of the other share z and have
    adjacent bases.
    """
    ball, f = state.ball, state.sheet_map
    classes = []
    for w in range(ball.vertex_count):
        if state.birth[w] == state.stage:
            covered = {f[u] for u in ball.neighbors(w)}
            classes += [{(w, z)} for z in state.target.neighbors(f[w]) if z not in covered]
    i = 0
    while i < len(classes):
        for j in range(i + 1, len(classes)):
            if any(z == y and ball.adjacent(w, u)
                   for (w, z) in classes[i] for (u, y) in classes[j]):
                classes[i] |= classes.pop(j)
                break
        else:
            i += 1
    return sorted(((min(c)[1], tuple(sorted(c))) for c in classes), key=lambda c: c[1][0])
