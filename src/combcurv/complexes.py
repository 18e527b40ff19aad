"""Immutable finite simplicial complexes of dimension at most 3.

The complex stores its simplices explicitly per dimension (vertices, edges,
triangles, tetrahedra) together with the adjacency relation of the
1-skeleton and the stored triangles at each vertex.  All queries used by the
curvature checkers live here: spans (induced subcomplexes), vertex link
graphs, chord tests for cycles, flagness, and chordless-cycle enumeration.
The face sets are frozensets, so they iterate in no fixed order; a caller
that names a first offender reads them sorted.

The flagness of a complex is decided by counts of common neighbours
(:func:`flag_witness`).  The two kernels, :func:`empty_clique` (empty
cliques) and :func:`chordless_cycles` (chordless cycles of every length
from 4, by pair closure), run on graphs given as one int bitmask of
neighbours per vertex.  That graph
is a vertex link read by ``link_masks`` on the ranks of the sorted
neighbours of the vertex, or the 1-skeleton of the complex in its own
ids.  On the 1-skeleton, ``empty_clique`` does not decide a pass: it runs
only to name the witness of a complex that is not flag.  The rank map is
increasing, so the kernels' canonical cycles and sorted cliques map back
to ambient ids unchanged.  The closed-surface test reads
its links off the edge links instead, in ``manifold``.

The triangle index and the adjacency make the local queries cost the
size of a vertex star, not the size of the complex: ``link_edges`` (the
edges of a vertex link) and ``link_masks`` (the same graph as bitmasks)
each read the triangles at one vertex off the index, and ``span`` the
neighbours and triangles of the kept vertices.  A per-vertex or
per-simplex loop over a complex therefore costs about the sum of its
vertex stars.

Construction closes the given simplices downward once
(:func:`downward_closure`), into one frozenset per dimension, which
:class:`SimplicialComplex` stores as it is given, with no copy;
:func:`build_complex` and the parsers of ``formats`` share that closure,
each with its own checks first.

A clique complex made by :func:`flag_completion` records that it is flag
when its clique enumeration meets no 5-clique, and :func:`is_flag` then
reads that record with no count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, repeat
from typing import Iterable, Optional, Sequence

from .errors import BoundExceeded, DimensionTooHigh, DuplicateVertexInSimplex
from .verdicts import Verdict, failed, passed

MAX_DIM = 3

# Enumeration guard: chordless-cycle searches refuse lengths above this
# unless the caller raises the cap explicitly.
DEFAULT_CYCLE_CAP = 8


@dataclass(frozen=True)
class Cycle:
    """A full (chordless) cycle of length >= 4, stored in canonical form
    (lexicographically minimal rotation/reflection).  Only full cycles are
    built, so its JSON form marks every one ``"full"``."""

    vertices: tuple

    def __len__(self):
        return len(self.vertices)

    def to_json(self):
        return {"kind": "cycle", "vertices": list(self.vertices), "full": True}


def canonical_cycle(vertices: Sequence[int]) -> tuple:
    """Lexicographically minimal representative among all rotations and the
    two orientations of a cyclic sequence."""
    vs = tuple(vertices)
    k = len(vs)
    best = None
    for seq in (vs, vs[::-1]):
        for r in range(k):
            cand = seq[r:] + seq[:r]
            if best is None or cand < best:
                best = cand
    return best


class SimplicialComplex:
    """A finite simplicial complex, immutable after construction.

    ``vertex_count`` is one more than the largest vertex id mentioned at
    build time; ids without a 0-simplex are simply absent from the complex.
    ``simplices(d)`` returns the stored d-simplices as sorted tuples.

    The face sets must be downward closed: every face of a stored simplex
    is stored.  :func:`downward_closure` (which ``build_complex`` and the
    parsers call), ``flag_completion`` and ``span`` make them so, and the
    flagness count of :func:`flag_witness` relies on it.  A triangle
    stored without one of its edges, for one, would offset an empty
    3-clique in that count, and a complex that is not flag would pass.

    The face sets are stored as given when they are frozensets, as
    :func:`downward_closure` builds them, with no copy; any other
    iterable is copied into one.  Construction also builds the triangle
    index, in O(T) for T triangles: for each vertex, the tuple of stored
    triangles that contain it, in the order of the triangle set.  It
    holds the same tuple objects as that set, so it adds three references
    per triangle.  ``link_edges``, ``link_masks`` and ``span`` read it
    instead of scanning every face.

    Flagness is a fact about the complex: the slot ``_flag`` keeps the
    :func:`flag_witness` of the first :func:`is_flag` call, and every later
    call reads it.  :func:`flag_completion` sets it to None, for flag, on
    each complex it proves flag; otherwise it stays unset until that call.
    """

    __slots__ = ("vertex_count", "name", "_faces", "_adj", "_triangles", "_flag")

    def __init__(self, vertex_count: int, faces: dict, name: Optional[str] = None):
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_faces", {d: frozenset(faces.get(d, ())) for d in range(MAX_DIM + 1)})
        adj = [set() for _ in range(vertex_count)]
        for u, v in self._faces[1]:
            adj[u].add(v)
            adj[v].add(u)
        # triangles[v]: the stored triangles at v, in face-set order (shared tuples)
        triangles = [[] for _ in range(vertex_count)]
        for t in self._faces[2]:
            for v in t:
                triangles[v].append(t)
        object.__setattr__(self, "_adj", tuple(map(frozenset, adj)))
        object.__setattr__(self, "_triangles", tuple(map(tuple, triangles)))

    def __setattr__(self, *args):
        raise AttributeError("SimplicialComplex is immutable")

    # -- basic queries ----------------------------------------------------

    @property
    def vertices(self) -> tuple:
        return tuple(sorted(v for (v,) in self._faces[0]))

    def simplices(self, dim: int) -> frozenset:
        if not 0 <= dim <= MAX_DIM:
            return frozenset()
        return self._faces[dim]

    def has_simplex(self, vertices: Iterable[int]) -> bool:
        vs = tuple(sorted(vertices))
        d = len(vs) - 1
        if not 0 <= d <= MAX_DIM:
            return False
        return vs in self._faces[d]

    def has_vertex(self, v: int) -> bool:
        return 0 <= v < self.vertex_count and (v,) in self._faces[0]

    def adjacent(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def neighbors(self, v: int) -> frozenset:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def dimension(self) -> int:
        for d in range(MAX_DIM, -1, -1):
            if self._faces[d]:
                return d
        return -1

    def counts(self) -> tuple:
        return tuple(len(self._faces[d]) for d in range(MAX_DIM + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(self._faces[d]) for d in range(MAX_DIM + 1))

    def maximal_simplices(self) -> list:
        """Simplices not properly contained in any stored simplex.

        Every tetrahedron is maximal; a d-simplex below that is maximal
        unless it is one of the d-faces of a stored (d + 1)-simplex.  Those
        faces are combinations of sorted tuples, so sorted themselves.
        """
        out = list(self._faces[MAX_DIM])
        for d in range(MAX_DIM):
            out.extend(self._faces[d].difference(
                *(combinations(t, d + 1) for t in self._faces[d + 1])))
        return sorted(out, key=lambda s: (s, len(s)))

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self._faces == other._faces

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"<SimplicialComplex{label} v={len(self._faces[0])} counts={self.counts()}>"

    # -- derived complexes -------------------------------------------------

    def span(self, vertex_set: Iterable[int]) -> "SimplicialComplex":
        """Full subcomplex induced by a vertex set, on the same vertex ids.

        Ids that are not vertices of this complex are ignored.  Each kept
        edge and triangle is read once, from its least vertex: the edges
        off the adjacency, the triangles off the triangle index.  Each kept
        tetrahedron abcd, a < b < c < d, is read once, as its kept triangle
        abc and the kept neighbour d > c of c such that abcd is stored.
        That finds them all, since the face sets are downward closed.
        """
        keep = set(filter(self.has_vertex, vertex_set))
        adj, tetrahedra = self._adj, self._faces[3]
        triangles = [t for v in keep for t in self._triangles[v]
                     if t[0] == v and keep.issuperset(t)]
        faces = {0: [(v,) for v in keep],
                 1: [(v, u) for v in keep for u in adj[v] if u > v and u in keep],
                 2: triangles,
                 3: [t + (d,) for t in triangles for d in adj[t[2]]
                     if d > t[2] and d in keep and t + (d,) in tetrahedra]}
        return SimplicialComplex(self.vertex_count, faces, name=self.name)

    def link_masks(self, v: int):
        """The 1-skeleton of the link of vertex ``v`` as ``(ids, masks)``:
        ``ids`` is the sorted neighbours of v, and bit j of ``masks[i]`` is
        set when ``ids[i]`` and ``ids[j]`` are adjacent in the link.  Each
        triangle at v, read off the triangle index, gives the link edge of
        its other two vertices."""
        ids = sorted(self._adj[v])
        rank = {u: i for i, u in enumerate(ids)}
        masks = [0] * len(ids)
        for a, b, c in self._triangles[v]:
            if a == v:
                a = c
            elif b == v:
                b = c
            i, j = rank[a], rank[b]
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return ids, masks

    def link_edges(self, v: int) -> list:
        """The edges (a, b), a < b, of the link of vertex ``v``: t - v for
        each triangle t at v, read off the triangle index, in the order of
        the triangle set, which is no fixed order."""
        return [(b, c) if a == v else (a, c) if b == v else (a, b)
                for a, b, c in self._triangles[v]]


def downward_closure(given) -> dict:
    """The face sets of the downward closure of the simplices ``given``:
    ``given[d]`` holds d-simplices as sorted tuples of d + 1 distinct
    non-negative ids, d = 0 .. 3, and repeats are allowed.  Nothing is
    checked here; :func:`build_complex` and the parsers check first.

    The face sets are closed one dimension at a time, from the top down:
    the faces of each dimension are the given simplices of that dimension
    and the facets of the faces one dimension up.  Each is built once, as
    a frozenset, which :class:`SimplicialComplex` stores as it is."""
    faces = {MAX_DIM: frozenset(given[MAX_DIM])}
    for d in range(MAX_DIM, 0, -1):
        faces[d - 1] = frozenset(chain(
            given[d - 1], chain.from_iterable(map(combinations, faces[d], repeat(d)))))
    return faces


def build_complex(maximal_simplices: Iterable[Iterable[int]], name: Optional[str] = None) -> SimplicialComplex:
    """Build a complex from maximal simplices, computing the downward closure
    (:func:`downward_closure`).

    Vertex ids must be non-negative; each input list may have 1..4 distinct
    vertices.  ``vertex_count`` becomes ``max id + 1``.
    """
    given = [[] for _ in range(MAX_DIM + 1)]
    for raw in maximal_simplices:
        vs = tuple(sorted(raw))
        if len(vs) > MAX_DIM + 1:
            raise DimensionTooHigh(f"simplex {vs} has {len(vs)} vertices (max {MAX_DIM + 1})")
        if len(set(vs)) != len(vs):
            raise DuplicateVertexInSimplex(f"simplex {tuple(raw)} repeats a vertex")
        if not vs:
            continue
        if vs[0] < 0:
            raise ValueError(f"negative vertex id in {vs}")
        given[len(vs) - 1].append(vs)
    faces = downward_closure(given)
    (top,) = max(faces[0], default=(-1,))
    return SimplicialComplex(top + 1, faces, name=name)


def flag_completion(n: int, edges, name: Optional[str] = None,
                    previous: Optional[SimplicialComplex] = None) -> SimplicialComplex:
    """Complex on vertices ``0..n-1`` whose simplices are the cliques of a
    graph, capped at 4 vertices (the dimension cap).

    Each clique is read once, from its largest vertex c: a triangle is c
    with an edge among its lower neighbours, and a tetrahedron c with a
    triangle among them, so the face sets come out downward closed with no
    separate closure pass.

    The output is flag unless the graph has a 5-clique, which the cap
    leaves unstored.  So it records flagness (:func:`is_flag` reads it, with
    no :func:`flag_witness` call) when no 5-clique turns up.  Each
    tetrahedron x < a < b < c is read as an x in the set Q of common
    neighbours of a, b and c below a, and a 5-clique y < x < a < b < c is
    such a tetrahedron with a neighbour y of x in Q: one disjointness test
    per tetrahedron finds it.  An output with a 5-clique records nothing,
    so :func:`is_flag` names its least witness.

    ``previous``, when given, must be the clique complex of the induced
    graph on its ids ``0..previous.vertex_count - 1``.  Its triangles and
    tetrahedra are carried, and only the cliques whose largest vertex is
    not one of its ids are enumerated.  Lemma: a clique lies in the induced
    graph on an id prefix exactly when its largest vertex does, so the
    cliques of the graph with an old largest vertex are exactly those of
    ``previous``.  The cover builder's stage balls are such a pair, by its
    expansion lemma (P).  So a 5-clique with an old largest vertex is one of
    ``previous``, and flagness is recorded only when ``previous`` has it
    recorded too.
    """
    pairs = {(u, v) if u < v else (v, u) for u, v in edges}
    lower = [set() for _ in range(n)]  # the neighbours below each vertex
    for u, v in pairs:
        lower[v].add(u)
    old = previous._faces if previous is not None else {2: frozenset(), 3: frozenset()}
    # flag unless a 5-clique turns up here, or previous may hold one
    flag = previous is None or getattr(previous, "_flag", ()) is None
    triangles, tetrahedra = [], []
    for c in range(0 if previous is None else previous.vertex_count, n):
        below = lower[c]
        for b in below:
            common = lower[b] & below
            for a in common:
                triangles.append((a, b, c))
                quad = lower[a] & common  # Q: the common neighbours below a
                for x in quad:
                    tetrahedra.append((x, a, b, c))
                    flag = flag and lower[x].isdisjoint(quad)
    faces = {0: {(v,) for v in range(n)}, 1: pairs,
             2: old[2].union(triangles), 3: old[3].union(tetrahedra)}
    X = SimplicialComplex(n, faces, name=name)
    if flag:
        object.__setattr__(X, "_flag", None)
    return X


# -- chords and flagness ----------------------------------------------------


def chords(X: SimplicialComplex, cycle: Sequence[int]) -> list:
    """Edges of X between non-consecutive vertices of a cyclic sequence."""
    vs = tuple(cycle)
    k = len(vs)
    found = []
    for i in range(k):
        for j in range(i + 1, k):
            if j - i == 1 or (i == 0 and j == k - 1):
                continue
            if X.adjacent(vs[i], vs[j]):
                found.append(tuple(sorted((vs[i], vs[j]))))
    return sorted(set(found))


def mask_edges(masks) -> list:
    """The edges (a, b), a < b, of a graph on ranks ``0..len(masks) - 1``,
    in sorted order; bit b of ``masks[a]`` is set when a and b are adjacent."""
    edges = []
    for a, m in enumerate(masks):
        m >>= a  # bit a, now bit 0, is clear: no loops
        while m:
            low = m & -m
            m ^= low
            edges.append((a, a + low.bit_length() - 1))
    return edges


def _edge_masks(X: SimplicialComplex) -> list:
    """The adjacency of X as one bitmask per vertex id."""
    return [sum(1 << u for u in nbrs) for nbrs in X._adj]


def empty_clique(masks, edges, spans, top: int):
    """The first clique of 3 or more vertices that ``spans`` rejects, or None.

    ``masks`` is the adjacency as bitmasks (bit b of ``masks[a]`` is set
    when a and b are adjacent) and ``edges`` its edges (a, b), a < b, in
    sorted order.  Cliques grow one size at a time, each by the common
    neighbours above its last vertex in increasing order, so they come by
    size and then in sorted order.  A clique of more than ``top + 1``
    vertices never spans, so the search ends at ``top + 2`` vertices.
    """
    # each clique with the common neighbours of all but its last vertex
    level = [(e, masks[e[0]]) for e in edges]
    for size in range(3, top + 3):
        grown = []
        for c, common in level:
            last = c[-1]
            common &= masks[last]
            above = common >> last  # bit 0 is last, not a common neighbour
            while above:
                low = above & -above
                above ^= low
                s = c + (last + low.bit_length() - 1,)
                if size > top + 1 or not spans(s):
                    return s
                grown.append((s, common))
        level = grown
    return None


def flag_witness(X: SimplicialComplex):
    """Smallest pairwise-adjacent vertex set spanning no stored simplex.

    Returns None when the complex is flag.  A pass is decided by counts
    of common neighbours, with N(v) the neighbours of v.  The face sets
    are downward closed, so every stored triangle is a 3-clique and every
    stored tetrahedron a 4-clique.

    - The sum over edges ab of |N(a) & N(b)| counts each 3-clique three
      times, so every 3-clique is stored exactly when it is 3 |triangles|.
    - The sum over 3-cliques abc of |N(a) & N(b) & N(c)| counts each
      4-clique four times, so every 4-clique is stored exactly when it is
      4 |tetrahedra|.  Each 3-clique a < b < c is read once, off its edge
      ab as a common neighbour c > b, and its common neighbours are
      those of ab in N(c).
    - Then a 5-clique holds a stored tetrahedron with a common
      neighbour, so there is none exactly when no tetrahedron has one.

    Only when a count fails does the search run, to name the witness:
    empty triangles first, then empty 3-simplices, then 5-cliques (which
    can never span, the dimension being capped at 3).
    """
    adj, faces = X._adj, X._faces
    triples = quads = 0  # 3 x the 3-cliques, 4 x the 4-cliques
    for a, b in faces[1]:
        common = adj[a] & adj[b]
        triples += len(common)
        for c in common:
            if c > b:
                quads += len(common & adj[c])
    if (triples == 3 * len(faces[2]) and quads == 4 * len(faces[3])
            and not any(adj[a] & adj[b] & adj[c] & adj[d] for a, b, c, d in faces[3])):
        return None
    return empty_clique(_edge_masks(X), sorted(faces[1]), X.has_simplex, MAX_DIM)


def is_flag(X: SimplicialComplex) -> Verdict:
    """Every clique of the adjacency relation spans a stored simplex.

    5-cliques always fail because the dimension is capped at 3.  The
    witness is computed at the first call on ``X`` and kept on it, so each
    complex is tested once, and a complex that :func:`flag_completion`
    recorded flag is not tested at all; the checkers that need flagness
    call this rather than take a verdict from their caller.
    """
    if not hasattr(X, "_flag"):
        object.__setattr__(X, "_flag", flag_witness(X))
    w = X._flag
    if w is None:
        return passed("is_flag")
    return failed("is_flag", {"kind": "empty_clique", "vertices": list(w)},
                  detail=f"clique {w} spans no simplex")


# -- chordless cycle enumeration --------------------------------------------


def full_cycles(X: SimplicialComplex, min_len: int = 4, max_len: int = 4,
                cap: int = DEFAULT_CYCLE_CAP) -> list:
    """All chordless cycles with length in ``[min_len, max_len]``.

    Each cycle is reported once, in canonical form.  ``max_len`` above the
    safety cap raises :class:`BoundExceeded`; pass a larger ``cap`` to allow
    longer searches.  The cycles come by pair closure
    (:func:`chordless_cycles`) on the 1-skeleton, at every length.
    """
    if min_len < 4:
        raise ValueError("cycles start at length 4")
    if min_len > max_len:
        raise ValueError("empty length range")
    if max_len > cap:
        raise BoundExceeded(f"max_len {max_len} above safety cap {cap}")

    cycles = chordless_cycles(_edge_masks(X), min_len, max_len)
    return [Cycle(c) for c in sorted(cycles, key=lambda c: (len(c), c))]


def chordless_cycles(masks, min_len: int, max_len: Optional[int] = None) -> list:
    """The chordless cycles of the graph ``masks`` with length in
    ``[min_len, max_len]`` (``max_len`` defaults to ``min_len``), for any
    lengths from 4 on, as tuples (s, v1, ..., vt) with s least and
    v1 < vt, which is their canonical form.  They come ordered by
    (s, v1, vt) but are not sorted.  ``masks`` is the adjacency as
    bitmasks: bit u of ``masks[v]`` is set when u and v are adjacent.
    No length bound is kept here; :func:`full_cycles` keeps the safety cap.

    Pair-closure lemma.  With N(x) the neighbours of x, a chordless
    k-cycle (s, v1, a1, ..., a(k-3), vt) with s least has v1 < vt, two
    neighbours of s above s that are not adjacent, and its inner vertices
    a1 .. a(k-3) lie in F = {x > s : x not in N(s)}.  Conversely, such a
    pair closes into one through each path a1 .. a(k-3) in F with:
    - for k = 4, a1 in N(v1) & N(vt);
    - for k >= 5, a1 in N(v1) less N(vt), a(k-3) in N(vt) less N(v1), and
      every other ai in neither;
    - each ai, i >= 2, in N(a(i-1)) and not in N(aj) for j < i - 1.
    Those non-edges are all the chords.  No vertex repeats: F misses s, v1
    and vt, and an earlier aj is adjacent to its predecessor on the path
    (v1 for j = 1), which ai is not.  The cycle fixes s, its pair and its
    path, so each cycle comes once.

    So the kernel grows the inner path one vertex per level, each by one
    mask AND of the tip's neighbours with the vertices of F adjacent to
    neither end and to no earlier inner vertex but the tip, and closes it
    by one more AND of the tip's neighbours with vt's side, N(vt) & F less
    N(v1), less the same earlier neighbours.  A level closes cycles when
    its length is asked for and grows the path only when a longer one is,
    so no path is built past ``max_len``, and none outlives its pair.
    These are the chordless paths between a fixed pair of Uno and Satoh
    (Discovery Science 2014, LNCS 8777).  The levels of the first four
    inner vertices, which serve the lengths up to 8, are written out; the
    longer paths grow from there on a stack, one level at a time.

    Reach lemma.  Let inner = F less N(v1) and N(vt), lasts = N(vt) & F
    less N(v1) (vt's side), reach_1 = N(lasts) and reach_(j+1) = reach_j
    | N(reach_j & inner).  On a cycle of length k <= ``max_len`` through
    the pair, a(i+1) .. a(k-4) lie in inner and a(k-3) in lasts, so ai,
    i <= k - 4, lies in reach_(k-3-i), which is within
    reach_(max_len-3-i).  A vertex grown at depth i outside that level
    closes no cycle in range, and the kernel cuts it.  A level costs an OR
    of masks per vertex it adds, so each is built at most once per pair,
    deepest first: that of depth i once that of depth i + 1 is built, when
    a path first has two vertices or more to grow at depth i (for depths 3
    and 4, at depth i - 1, so that no test runs at depth i).  A level that
    holds all of inner ends the building, as every later one would too.
    Depths 1 and 2 are not bounded: their levels, of radius max_len - 4 and
    max_len - 5, hold nearly every vertex a path there can reach, and
    bounding them measured slower.
    """
    if max_len is None:
        max_len = min_len
    if min_len < 4:
        raise ValueError("cycles start at length 4")
    if min_len > max_len:
        raise ValueError("empty length range")
    cycles = []
    four = min_len == 4
    past4 = max_len > 4
    five = min_len <= 5
    past5 = max_len > 5
    # the depth of the last grown vertex: one at depth i lies in reach_(deepest + 1 - i)
    deepest = max_len - 4
    reach = frontier = 0  # a pair's last reach level, and the vertices it added
    for s, s_adj in enumerate(masks):
        far = -2 << s & ~s_adj  # F: the vertices above s not adjacent to it
        rest = s_adj & -2 << s
        while rest & (rest - 1):  # some vt > v1 is left
            low = rest & -rest
            rest ^= low
            v1 = low.bit_length() - 1
            m1 = masks[v1]
            near1 = m1 & far
            ends = rest & ~m1  # the vt > v1 not adjacent to v1
            while ends:
                low = ends & -ends
                ends ^= low
                vt = low.bit_length() - 1
                mt = masks[vt]
                if four:
                    mid = near1 & mt
                    while mid:
                        low = mid & -mid
                        mid ^= low
                        cycles.append((s, v1, low.bit_length() - 1, vt))
                    if not past4:
                        continue
                firsts = near1 & ~mt
                if not firsts:
                    continue
                lasts = mt & far & ~m1  # vt's side
                if not past5:
                    # the path ends at its first vertex
                    while firsts:
                        low = firsts & -firsts
                        firsts ^= low
                        a = low.bit_length() - 1
                        mid = masks[a] & lasts
                        while mid:
                            low = mid & -mid
                            mid ^= low
                            cycles.append((s, v1, a, low.bit_length() - 1, vt))
                    continue
                if not lasts:
                    continue
                inner = far & ~m1 & ~mt  # F less both ends' neighbours
                want = deepest  # the depth whose reach level comes next
                inner3 = inner4 = inner  # less what the reach levels of depths 3, 4 cut
                while firsts:
                    low = firsts & -firsts
                    firsts ^= low
                    a = low.bit_length() - 1
                    ma = masks[a]
                    if five:
                        mid = ma & lasts
                        while mid:
                            low = mid & -mid
                            mid ^= low
                            cycles.append((s, v1, a, low.bit_length() - 1, vt))
                    seconds = ma & inner
                    if want == 3 and seconds & (seconds - 1):
                        reach, frontier = _reach_step(masks, inner, lasts, frontier, reach,
                                                      want == deepest)
                        want, inner3 = 2, inner & reach
                        if inner3 == inner:
                            want = 0  # no level cuts any more
                    while seconds:
                        low = seconds & -seconds
                        seconds ^= low
                        b = low.bit_length() - 1
                        mb = masks[b]
                        if min_len <= 6:
                            mid = mb & lasts & ~ma
                            while mid:
                                low = mid & -mid
                                mid ^= low
                                cycles.append((s, v1, a, b, low.bit_length() - 1, vt))
                        if max_len == 6:
                            continue
                        thirds = mb & inner3 & ~ma
                        if want == 4 and thirds & (thirds - 1):
                            reach, frontier = _reach_step(masks, inner, lasts, frontier, reach,
                                                          want == deepest)
                            want, inner4 = 3, inner & reach
                            if inner4 == inner:
                                want = 0
                        near = ma | mb  # the neighbours of the path's inner vertices
                        while thirds:
                            low = thirds & -thirds
                            thirds ^= low
                            c = low.bit_length() - 1
                            mc = masks[c]
                            if min_len <= 7:
                                mid = mc & lasts & ~near
                                while mid:
                                    low = mid & -mid
                                    mid ^= low
                                    cycles.append((s, v1, a, b, c, low.bit_length() - 1, vt))
                            if max_len == 7:
                                continue
                            fourths = mc & inner4 & ~near
                            wider = near | mc
                            while fourths:
                                low = fourths & -fourths
                                fourths ^= low
                                d = low.bit_length() - 1
                                md = masks[d]
                                if min_len <= 8:
                                    mid = md & lasts & ~wider
                                    while mid:
                                        low = mid & -mid
                                        mid ^= low
                                        cycles.append((s, v1, a, b, c, d, low.bit_length() - 1, vt))
                                if max_len == 8:
                                    continue
                                # one level at a time from here: each path with its
                                # next vertices and the neighbours of its inner vertices
                                stack = [((s, v1, a, b, c, d), md, wider)]
                                while stack:
                                    path, tip, around = stack.pop()
                                    depth = len(path) - 1  # of the next vertices
                                    nexts = tip & inner & ~around
                                    if want <= depth:
                                        if want < depth:
                                            nexts &= reaches[depth]
                                        elif nexts & (nexts - 1):
                                            if want == deepest:
                                                reaches = [-1] * max_len
                                            reach, frontier = _reach_step(masks, inner, lasts, frontier,
                                                                          reach, want == deepest)
                                            want, reaches[depth] = depth - 1, reach
                                            nexts &= reach
                                            if not inner & ~reach:
                                                want = 0
                                    around |= tip
                                    size = depth + 4  # the length a next vertex closes
                                    while nexts:
                                        low = nexts & -nexts
                                        nexts ^= low
                                        e = low.bit_length() - 1
                                        me = masks[e]
                                        child = path + (e,)
                                        if min_len <= size:
                                            mid = me & lasts & ~around
                                            while mid:
                                                low = mid & -mid
                                                mid ^= low
                                                cycles.append(child + (low.bit_length() - 1, vt))
                                        if size < max_len:
                                            stack.append((child, me, around))
    return cycles


def _reach_step(masks, inner, lasts, frontier, reach, first):
    """The next reach level of :func:`chordless_cycles` and the vertices of
    ``inner`` it adds, which the step after grows from: N(lasts) when
    ``first``, else ``reach``, the last level, with the neighbours of
    ``frontier``, the vertices that level added."""
    if first:
        reach, frontier = 0, lasts
    grown = reach
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        reach |= masks[low.bit_length() - 1]
    return reach, reach & inner & ~grown
