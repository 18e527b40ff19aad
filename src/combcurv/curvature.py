"""Local curvature checkers: largeness, wheels, dwheels, and dwheel location.

A k-wheel is a cone vertex over a chordless k-cycle; a dwheel glues two
wheels along the pattern (apex, apex', shared) with the first rim vertices
either identified or joined by an edge.  The location checker asks every
small-boundary dwheel to fit inside a single 1-ball.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional

from .complexes import (
    DEFAULT_CYCLE_CAP,
    SimplicialComplex,
    canonical_cycle,
    chordless_cycles,
    chords,
    empty_clique,
    full_cycles,
    is_flag,
    mask_edges,
)
from .errors import NotACovering
from .verdicts import Verdict, failed, passed


@dataclass(frozen=True)
class Wheel:
    """Cone over a chordless cycle: ``center`` adjacent to every rim vertex,
    with all cone triangles present in the host complex."""

    center: int
    rim: tuple  # canonical cyclic order

    @property
    def k(self) -> int:
        return len(self.rim)

    @property
    def vertex_set(self) -> frozenset:
        return frozenset((self.center,) + self.rim)

    def validate(self, X: SimplicialComplex) -> bool:
        r = self.rim
        k = len(r)
        if chords(X, r):
            return False
        for i in range(k):
            if not X.has_simplex((self.center, r[i], r[(i + 1) % k])):
                return False
        return True

    def to_json(self):
        return {"kind": "wheel", "center": self.center, "rim": list(self.rim)}


@dataclass(frozen=True)
class DWheel:
    """Two wheels glued along (apex, apex', shared).

    The first wheel is (apex; rim1..., shared, apex'), the second
    (apex'; rim2..., shared, apex); ``rim1``/``rim2`` hold only the free
    boundary arcs.  ``junction`` records whether the arcs' first vertices
    are identified or joined by an edge.
    """

    apexes: tuple
    shared: int
    rim1: tuple
    rim2: tuple
    junction: str  # "identified" | "edge"

    @property
    def k(self) -> int:
        return len(self.rim1) + 2

    @property
    def l(self) -> int:
        return len(self.rim2) + 2

    @property
    def type(self) -> tuple:
        return (self.k, self.l)

    @property
    def boundary_length(self) -> int:
        base = self.k + self.l
        return base - 4 if self.junction == "identified" else base - 3

    def boundary(self) -> tuple:
        """The boundary cycle: rim1, shared, reversed rim2 (last vertex
        dropped when the junction identifies it with rim1's first)."""
        tail = self.rim2[::-1]
        if self.junction == "identified":
            tail = tail[:-1]
        return self.rim1 + (self.shared,) + tail

    @property
    def wheels(self) -> tuple:
        v0, v0p = self.apexes
        return (
            Wheel(v0, canonical_cycle(self.rim1 + (self.shared, v0p))),
            Wheel(v0p, canonical_cycle(self.rim2 + (self.shared, v0))),
        )

    @property
    def vertex_set(self) -> frozenset:
        return frozenset(self.apexes) | {self.shared} | set(self.rim1) | set(self.rim2)

    def validate(self, X: SimplicialComplex) -> bool:
        w1, w2 = self.wheels
        if not (w1.validate(X) and w2.validate(X)):
            return False
        a, b = self.rim1[0], self.rim2[0]
        if self.junction == "identified":
            return a == b
        return a != b and X.adjacent(a, b)

    def to_json(self):
        return {
            "kind": "dwheel",
            "apexes": list(self.apexes),
            "shared": self.shared,
            "rims": [list(self.rim1), list(self.rim2)],
            "junction": self.junction,
            "type": list(self.type),
            "boundary_length": self.boundary_length,
        }


# -- largeness ---------------------------------------------------------------


def is_k_large(X: SimplicialComplex, k: int) -> Verdict:
    """Flag and no chordless j-cycle for j < k.

    A flagness failure is a failing verdict (with the empty clique as
    witness), not an error.
    """
    if k < 4:
        raise ValueError("largeness starts at k = 4")
    fv = is_flag(X)
    if not fv.passed:
        return failed("is_k_large", fv.witness, detail="not flag: " + fv.detail, k=k)
    if k > 4:
        offenders = full_cycles(X, 4, k - 1, cap=k - 1)
        if offenders:
            shortest = offenders[0]
            return failed("is_k_large", shortest,
                          detail=f"full {len(shortest)}-cycle present", k=k,
                          cycles=len(offenders))
    return passed("is_k_large", k=k)


def is_locally_k_large(X: SimplicialComplex, k: int) -> Verdict:
    """Every link (of every simplex) is k-large, read off the vertex links.

    A k-large complex is flag, and the link of a simplex tau in a flag
    complex L is the full subcomplex of L on the common neighbours of tau,
    so it is k-large whenever L is.  For a vertex v of sigma,
    Lk(sigma, X) = Lk(sigma - v, Lk(v, X)); once every vertex link is
    k-large, every link is.

    No link complex is built: the 1-skeleton of Lk(v) is
    :meth:`~SimplicialComplex.link_masks`, on the ranks of the sorted
    neighbours of v, and its triangles are the tetrahedra at v.  One search
    finds the first empty clique of the link, then one pair closure lists
    its full cycles below k, and the least (length, cycle) among them is
    the witness, both in rank space; the rank map is increasing, so both
    are the same in ambient ids.  The witness names the simplex (a vertex)
    together with that configuration; only the detail names a link clique
    by its ranks.
    ``links_checked`` counts the simplices whose link the verdict covers:
    the vertices up to the failing one, or every simplex of X on a pass.

    A link graph of maximum degree 2 needs no search (:func:`_link_rings`).
    Its components are paths and cycles, so with no triangle component it
    has no clique of 3 or more vertices, and its full cycles are its cycle
    components.  A triangle component goes to the search, which names it
    when it is hollow.
    """
    return _locally_large(X, k, _link_reads(X))


def _link_reads(X: SimplicialComplex):
    """Each vertex v of X in sorted order, as ``(v, ids, masks, rings)``:
    its link graph by :meth:`~SimplicialComplex.link_masks` and the rings
    :func:`_link_rings` reads off it."""
    for v in X.vertices:
        ids, masks = X.link_masks(v)
        yield v, ids, masks, _link_rings(masks)


def _locally_large(X: SimplicialComplex, k: int, reads) -> Verdict:
    """:func:`is_locally_k_large` on the link reads of X (:func:`_link_reads`).

    A searched link is read by one pair closure
    (:func:`~combcurv.complexes.chordless_cycles`) of lengths 4 .. k - 1,
    none when k = 4, and its least (length, cycle) names the witness."""
    check_k_and_m(k, None)
    for links, (v, ids, masks, rings) in enumerate(reads, 1):
        if rings is None:
            clique = empty_clique(masks, mask_edges(masks),
                                  lambda s: X.has_simplex((v,) + tuple(ids[i] for i in s)), 2)
            if clique is not None:
                witness = {"kind": "clique_in_link", "simplex": [v],
                           "vertices": [ids[i] for i in clique]}
                reason = f"not flag: clique {clique} spans no simplex"
                return failed("is_locally_k_large", witness, k=k, links_checked=links,
                              detail=f"link of {(v,)} is not {k}-large: {reason}")
            cycles = chordless_cycles(masks, 4, k - 1) if k > 4 else []
        else:
            cycles = [c for c in rings if len(c) < k]
        if cycles:
            cycle = min(cycles, key=lambda c: (len(c), c))
            return _cycle_in_link(k, v, [ids[i] for i in cycle], links)
    return passed("is_locally_k_large", k=k, links_checked=sum(X.counts()))


def _large_by_wheels(X: SimplicialComplex, k: int, wheels_at) -> Verdict:
    """:func:`is_locally_k_large` on a flag ``X``, read off the wheels of
    lengths 4 .. k - 1 in the lookup ``wheels_at`` of
    :func:`_wheels_by_length`.  The witness is the least (center, length,
    rim) among them, which is the one the link loop of
    :func:`_locally_large` names, as the rank map is increasing."""
    least = min(((v, len(rim), rim) for j in range(4, k) for v, rim in wheels_at(j)), default=None)
    if least is None:
        return passed("is_locally_k_large", k=k, links_checked=sum(X.counts()))
    v, _, rim = least
    return _cycle_in_link(k, v, rim, bisect_left(X.vertices, v) + 1)


def _cycle_in_link(k: int, v: int, cycle, links: int) -> Verdict:
    """The failing verdict of :func:`is_locally_k_large` at the full
    ``cycle``, in ambient ids, of the link of ``v``, the ``links``-th
    vertex link read."""
    return failed("is_locally_k_large",
                  {"kind": "cycle_in_link", "simplex": [v], "cycle": list(cycle)},
                  detail=f"link of {(v,)} is not {k}-large: full {len(cycle)}-cycle present",
                  k=k, links_checked=links)


def _link_rings(masks):
    """The cycle components of a link graph of maximum degree 2, each in the
    form :func:`chordless_cycles` emits a cycle, in sorted order; None when
    a vertex has degree 3 or more or a component is a triangle.

    Lemma: the components of a graph whose vertices have degree at most 2
    are paths and cycles.  So its chordless cycles of length 4 or more are
    exactly its cycle components of that length, and its only cliques of 3
    or more vertices are its triangle components.  Each component is walked
    once, from its least vertex s and first to the smaller neighbour of s,
    so a cycle reads (s, v1, ..., vt) with v1 < vt, and the cycles come
    ordered by s.
    """
    rings, seen = [], 0
    for s, m in enumerate(masks):
        if seen >> s & 1:
            continue
        other = m & (m - 1)  # m less its lowest bit: the larger neighbour of s
        if other & (other - 1):
            return None
        ring, prev, nxt = [s], s, m ^ other
        while nxt:
            cur = nxt.bit_length() - 1
            if cur == s:
                if len(ring) == 3:
                    return None
                rings.append(tuple(ring))
                break
            ring.append(cur)
            seen |= 1 << cur
            nxt = masks[cur] ^ 1 << prev
            if nxt & (nxt - 1):
                return None
            prev = cur
            if not nxt:
                # a path end: the path goes on from s to its other side
                prev, nxt, other = s, other, 0
    return rings


# -- wheels and dwheels --------------------------------------------------------


def wheels(X: SimplicialComplex, k_min: int = 4, k_max: int = DEFAULT_CYCLE_CAP) -> list:
    """All k-wheels with k in range, in (center, length, rim) order.

    Rims are the chordless cycles of each vertex link that stay chordless
    in X; this ambient chord filter runs here, and drops nothing on flag X.
    No rim length below ``k_min`` is read."""
    if k_min < 4:
        raise ValueError("cycles start at length 4")
    if k_min > k_max:
        raise ValueError("empty length range")
    wheels_at = _wheels_by_length(X, k_max, _link_reads(X))
    out = [Wheel(v, rim) for k in range(k_min, k_max + 1)
           for v, rim in wheels_at(k) if not chords(X, rim)]
    return sorted(out, key=lambda w: (w.center, len(w.rim)))


def _wheels_by_length(X: SimplicialComplex, k_max: int, reads):
    """The lookup ``wheels_at(k)``, 4 <= k <= k_max: the k-wheels as
    ``(center, rim)`` pairs; a rim may have a chord in X if X is not flag.
    The links are ``reads``, as :func:`_link_reads` yields them.

    The rims are read off each vertex's
    :meth:`~SimplicialComplex.link_masks`, in rank space, and map back to
    ambient ids through the increasing rank map, which keeps them
    canonical; no link complex is built.  The rims come by pair closure
    (the lemma of :func:`~combcurv.complexes.chordless_cycles`), which
    keeps nothing but the graph between calls.  The lookup fills each
    length at its first read.  Lengths 4 and 5 are closed one at a time,
    as most joins stop there; the first read of any length from 6 closes
    6 .. k_max in one call per link, and the later reads take its cycles.
    So no kernel runs for a length that no caller reads.

    A link graph of maximum degree 2 is not searched: its components are
    paths and cycles, so its rims of length k >= 4 are exactly its cycle
    components of length k, read in one walk by :func:`_link_rings`.  A
    link with a vertex of degree 3 or more, or with a triangle component,
    is searched.

    Each length lists the searched wheels, then the wheels read in one
    walk; each part is in (center, rim) order, and no center is in both.
    So the wheels at one center come in rim order, but the list as a whole
    is not sorted by center: the callers sort by center themselves.
    """
    links = []
    rings_of = [[] for _ in range(k_max + 1)]  # k -> the k-wheels read in one walk
    for v, ids, masks, rings in reads:
        if rings is None:
            links.append((v, ids, masks))
        for ring in rings or ():  # a searched link has no rings
            if len(ring) <= k_max:
                rings_of[len(ring)].append((v, tuple([ids[i] for i in ring])))
    searched = {}  # k -> the searched k-wheels, once read

    def wheels_at(k):
        if k not in searched:
            if k < 6:
                searched[k] = [(v, tuple([ids[i] for i in cyc])) for v, ids, masks in links
                               for cyc in sorted(chordless_cycles(masks, k))]
            else:
                searched.update((j, []) for j in range(6, k_max + 1))
                for v, ids, masks in links:
                    for cyc in sorted(chordless_cycles(masks, 6, k_max)):
                        searched[len(cyc)].append((v, tuple([ids[i] for i in cyc])))
        return searched[k] + rings_of[k]

    return wheels_at


def _apex_pairs(max_boundary: int, wheels_at):
    """The wheel pairs that can form dwheels with boundary length at most
    ``max_boundary``, one (boundary, type) bucket at a time and, in each,
    one apex pair at a time, in the order of :func:`dwheels`.  Each is
    ``(k, l, identified, (v0, v0'), first, second)``: ``first`` is the side
    of the k-wheels at v0 whose rim passes through v0', ``second`` that of
    the l-wheels at v0' through v0.  Each length's wheels are read once,
    from the lookup ``wheels_at`` of :func:`_wheels_by_length`.

    The corner of a wheel at a rim vertex x is x's two rim neighbours, as
    ``(lo, hi, wheel)`` with lo < hi, where ``wheel`` is the wheel's one
    record ``[rim, cap]``: all its corners point to it, and the cap, None
    until :func:`_locate_by_join` first tests the wheel, is kept there.  A
    wheel gives one corner per rim vertex, keyed (center, x); the side of
    a key is ``[corners, arcs]``, whose ``arcs`` :func:`_side_arcs` reads
    off the corners when the side is first listed.  No arc is sliced
    before then.

    A bucket has one junction kind: identified when k + l - 4 is the
    boundary, edge when k + l - 3 is.  It joins only the k-wheels with the
    l-wheels, so a caller that stops early never builds the later buckets.
    A type's apex pairs, (v0, v0') with v0' on a k-wheel at v0 and v0 on an
    l-wheel at v0', v0 < v0' when k = l, are sorted once for both its
    buckets.
    """
    # rim length k -> (center, x) -> the corners at x of the k-wheels at center
    corners = {}
    matched = {}  # (k, l) -> the sorted apex pairs of both its buckets

    def corners_of(k):
        table = corners.get(k)
        if table is None:
            table = corners[k] = {}
            for center, rim in wheels_at(k):
                wheel = [rim, None]  # the wheel's record: its rim and, once tested, its cap
                prev, x = rim[-2], rim[-1]
                for nxt in rim:
                    corner = (prev, nxt, wheel) if prev < nxt else (nxt, prev, wheel)
                    side = table.get((center, x))
                    if side is None:
                        table[center, x] = [[corner], None]
                    else:
                        side[0].append(corner)
                    prev, x = x, nxt
        return table

    for blen in range(4, max_boundary + 1):
        # the types k >= l >= 4 with k + l - 3 or k + l - 4 equal to blen
        types = sorted((k, total - k) for total in (blen + 3, blen + 4)
                       for k in range((total + 1) // 2, total - 3))
        for k, l in types:
            # the shorter rim first: a bucket with no l-wheels never
            # enumerates the k-wheels
            second = corners_of(l)
            if not second:
                continue
            first = corners_of(k)
            pairs = matched.get((k, l))
            if pairs is None:
                pairs = matched[k, l] = sorted(
                    key for key in first if key[::-1] in second and (k != l or key[0] < key[1]))
            identified = k + l - 4 == blen
            for apexes in pairs:
                v0, v0p = apexes
                yield k, l, identified, apexes, first[apexes], second[v0p, v0]


def _listed(X: SimplicialComplex, identified: bool, apexes: tuple, first, second) -> list:
    """The dwheels of one apex pair of :func:`_apex_pairs`, of the junction
    kind ``identified`` says, as ``(w, arc1, arc2)`` in sorted order.

    A k-wheel at v0 and an l-wheel at v0' glue into a dwheel with shared
    vertex w when w is in both corners; with a and b the other vertex of
    each, its free arcs start at a and b, and its junction is identified
    when a = b and an edge when a and b are adjacent (the corner lemma of
    :func:`_locate_by_join`).  Each side's arcs come grouped by w in
    increasing order, and sorted in each group (:func:`_side_arcs`), so
    the pairs, taken first-side-major, need no sort.

    It is also the join's edge test: an apex pair of an edge bucket holds
    an edge junction exactly when its listing is not empty, so
    :func:`_locate_by_join` lists every such pair and fails at the first
    dwheel listed (its Lemma 1).
    """
    v0, v0p = apexes
    partners = _side_arcs(second, v0)
    out = []
    for w, arcs1 in _side_arcs(first, v0p).items():
        arcs2 = partners.get(w)
        if arcs2 is None:
            continue
        # no vertex is its own neighbour, so a != b at an edge
        out += [(w, arc1, arc2) for arc1 in arcs1 for arc2 in arcs2
                if (arc1[0] == arc2[0] if identified else arc2[0] in X.neighbors(arc1[0]))]
    return out


def _side_arcs(side, x) -> dict:
    """The free arcs of the wheels of a side ``[corners, arcs]`` of
    :func:`_apex_pairs`, whose rims pass through ``x``: w -> the sorted
    arcs of the wheels whose corner at x holds w, each from the corner's
    other vertex, away from x, to the vertex before w.  The keys come in
    increasing order.  Built once per side, when first listed, and kept
    in ``arcs``, as a side takes part in several buckets; the memo serves
    both the join's edge buckets, which list every apex pair, and
    :func:`dwheels`.  On one side, w and the arc fix the rim, so no two
    arcs of a group are equal."""
    by_shared = side[1]
    if by_shared is None:
        found = []
        for _, _, (rim, _) in side[0]:
            found += _free_arcs(rim, x)
        found.sort()
        by_shared = side[1] = {}
        for w, arc in found:
            arcs = by_shared.get(w)
            if arcs is None:
                by_shared[w] = [arc]
            else:
                arcs.append(arc)
    return by_shared


def dwheels(X: SimplicialComplex, max_boundary: int) -> list:
    """All dwheels with boundary length at most ``max_boundary``, one per
    unordered wheel pair.

    Types are normalized with k >= l; for equal rim lengths the first wheel
    is the one at the smaller apex.  The list is sorted by boundary length,
    then type, then (apexes, shared, rim1, rim2, junction).  The ambient
    chord filter of :func:`wheels` runs here, on the wheels before the join."""
    wheels_at = _wheels_by_length(X, max_boundary, _link_reads(X))
    pairs = _apex_pairs(max_boundary,
                        lambda k: [(v, rim) for v, rim in wheels_at(k) if not chords(X, rim)])
    return [DWheel(apexes, w, arc1, arc2, "identified" if identified else "edge")
            for _, _, identified, apexes, first, second in pairs
            for w, arc1, arc2 in _listed(X, identified, apexes, first, second)]


def _center_candidates(X: SimplicialComplex, vs) -> list:
    """The only possible 1-ball centers of a vertex set, sorted: its own
    vertices and their common neighbors (the failure witness lists them)."""
    return sorted(frozenset.intersection(*map(X.neighbors, vs)).union(vs))


def is_m_located(X: SimplicialComplex, m: int) -> Verdict:
    """Flag, and every dwheel with boundary length at most ``m`` lies in a
    1-ball.  The witness is the offending dwheel plus the exhausted center
    candidates.  A bad m is reported before any flag test.

    Flagness is :func:`~combcurv.complexes.is_flag`, tested at most once
    per complex.  The links of a flag complex are read once, into a list:
    the degree sums of :func:`_locate_by_degrees` decide it when they can,
    and the join of :func:`_locate_by_join` takes the same reads otherwise."""
    check_k_and_m(None, m)
    fv = is_flag(X)
    if not fv.passed:
        return _not_flag(fv, m)
    reads = list(_link_reads(X))
    located = _locate_by_degrees(X, m, reads)
    if located is not None:
        return located
    return _locate_by_join(X, m, _wheels_by_length(X, m, reads))[0]


def _not_flag(fv: Verdict, m: int) -> Verdict:
    """The failing verdict of :func:`is_m_located` on a complex whose
    flagness verdict ``fv`` failed."""
    return failed("is_m_located", fv.witness, detail="not flag: " + fv.detail, m=m)


def located_and_large(X: SimplicialComplex, m: int, k: int):
    """``(is_m_located(X, m), is_locally_k_large(X, k), types)``, with
    each vertex link read once and searched once, and flagness tested at
    most once per complex, as :func:`is_m_located` tests it.  ``types`` is
    the set of (k, l) types of the dwheel groups (the dwheels with the
    same apexes and shared vertex, which share one type) that the
    location join located before it returned: on a pass, the types of all
    dwheels of boundary at most ``m``; empty when X is not flag or the
    degree sums decide it.  A bad k is reported before a bad m, and both
    before any flag test or link read.

    Lemma (largeness off the wheels).  Let X be flag; its dimension is at
    most 3, as every complex's is.  Then no vertex link of X has an empty
    clique: a clique c of Lk(v) makes c + {v} a clique of X, which spans a
    simplex, and a 4-clique of a link would be a 5-clique of X, which a
    flag complex of dimension at most 3 does not have.  So X is locally
    k-large exactly when no vertex has a wheel whose rim has length
    4 .. k - 1, and the witness of :func:`is_locally_k_large` is the least
    center of such a wheel, then the least (length, rim) at it.

    The links are read once, into a list.  On a complex that is not flag,
    or that the degree sums of :func:`_locate_by_degrees` decide,
    largeness runs the link loop of :func:`is_locally_k_large` on those
    reads.  On any other complex one wheel lookup of the reads
    (:func:`_wheels_by_length`), to length max(m, k - 1), feeds both:
    largeness reads its lengths below k, and the join of
    :func:`_locate_by_join` reads the lengths its buckets need; each
    length is closed once for both.
    """
    check_k_and_m(k, m)
    reads, fv = list(_link_reads(X)), is_flag(X)
    # a complex that is not flag, or that the degree sums decide, reads no wheel
    located = _locate_by_degrees(X, m, reads) if fv.passed else _not_flag(fv, m)
    if located is not None:
        return located, _locally_large(X, k, reads), set()
    wheels_at = _wheels_by_length(X, max(m, k - 1), reads)
    large = _large_by_wheels(X, k, wheels_at)
    located, types = _locate_by_join(X, m, wheels_at)
    return located, large, types


def check_k_and_m(k: Optional[int], m: Optional[int]) -> None:
    """Reject a bad k of local k-largeness, then a bad m of m-location,
    before any work, as the checks called alone would; None skips one."""
    if k is not None and k < 4:
        raise ValueError("largeness starts at k = 4")
    if m is not None and m < 6:
        raise ValueError("location starts at m = 6")


def _locate_by_join(X: SimplicialComplex, m: int, wheels_at):
    """The verdict of :func:`is_m_located` on a flag ``X`` and the types
    of :func:`located_and_large`, by the wheel-to-dwheel join
    (:func:`_apex_pairs`) on the lookup ``wheels_at`` of
    :func:`_wheels_by_length`, read at the lengths its buckets need.

    An identified bucket is decided per apex pair (v0, v0'), on the
    corners of its wheels, and only an apex pair that holds a failure is
    listed (:func:`_listed`) to name the witness and its place.  Each apex
    pair of an edge bucket is listed, and its listing decides it (Lemma
    1).  X is flag, so a rim chordless in a vertex link is chordless in
    X.  Let a dwheel's first wheel W1 at v0 have rim C1 = (a, ..., w,
    v0'), and its second W2 at v0' have rim C2 = (b, ..., w, v0).

    Lemma (corners).  W1 and W2 form an identified dwheel exactly when
    the corner of W1 at v0' (its two rim neighbours) and the corner of W2
    at v0 are the same pair {w, a}.  They then form exactly two: shared w
    with first vertex a, and shared a with first vertex w.  Indeed a and
    w are the rim neighbours of v0' on C1, and a = b and w those of v0 on
    C2; conversely, equal corners {w, a} read C1 from v0' away from w and
    C2 from v0 away from w, and both start at a.  Swapping w and a gives
    the other dwheel, and a rim vertex has one corner, so there are no
    more.  The two are each other's mirror: the same two wheels read from
    the other side, on the same vertex set, so they are located together.
    A matched wheel pair is tested once and counted twice.

    Lemma (caps).  Let cap(W) be the AND of the closed neighbourhoods of
    a wheel's centre and rim vertices, as an int bitmask over vertex ids.
    A vertex x centres a 1-ball holding a set exactly when x is in the
    closed neighbourhood of each member, so the dwheel of W1 and W2,
    whose vertex set is the union of theirs, lies in a 1-ball exactly
    when cap(W1) & cap(W2) is not 0.  Regrouped, cap(W1) & cap(W2) is
    core & N[arc1] & N[arc2], with core the AND over v0, w and v0' and
    N[arc] the AND over an arc's vertices: the centres of the dwheel's
    triangle (v0, w, v0') that also centre both arcs.  A wheel's cap is
    built when the wheel is first tested, and kept on the wheel's record
    (:func:`_apex_pairs`), which all its corners point to: a wheel meets
    other wheels at several apex pairs and buckets, and its cap is built
    once for all of them.

    Lemma 1 (edge junctions).  No edge-junction dwheel lies in a 1-ball.
    Say N[x] holds one.  A vertex of a chordless rim of 4 or more vertices
    is adjacent to only two others on it, so x is on neither rim, and every
    vertex of the dwheel is on one: x is adjacent to v0, v0', a and b.
    Next, a follows v0' on C1, so it is adjacent to v0 and v0', and
    likewise b; and a and b are distinct and adjacent at an edge
    junction.  So {v0, v0', a, b, x} is a 5-clique, which a flag complex
    of dimension at most 3 does not have.  So an edge bucket needs no
    test, only its listing: an apex pair that lists no dwheel holds no edge
    junction, and the join moves on; one that lists any fails at its first,
    which names the witness.

    A type is added to ``types`` once a group of its dwheels (the same
    apexes and shared vertex) is located: after each located apex pair,
    and inside a listed one when the failure's shared vertex is not the
    first one listed."""
    count = 0
    types = set()
    balls = {}  # vertex -> its closed neighborhood as a bitmask, built when first reached

    def meet(found, vertices):
        for a in vertices:
            ball = balls.get(a)
            if ball is None:
                ball = balls[a] = sum(1 << u for u in X.neighbors(a)) | 1 << a
            found &= ball
        return found

    def cap(center, wheel):
        found = wheel[1]
        if found is None:
            found = wheel[1] = meet(-1, (center, *wheel[0]))
        return found

    for k, l, identified, apexes, first, second in _apex_pairs(m, wheels_at):
        v0, v0p = apexes
        if identified:
            matched = [(wheel1, wheel2) for lo, hi, wheel1 in first[0]
                       for lo2, hi2, wheel2 in second[0] if lo == lo2 and hi == hi2]
            for wheel1, wheel2 in matched:
                if not cap(v0, wheel1) & cap(v0p, wheel2):
                    break
            else:
                if matched:
                    count += 2 * len(matched)
                    types.add((k, l))
                continue
        # an unlocated identified match, or an edge bucket's apex pair, which
        # holds an edge junction exactly when it lists a dwheel
        listed = _listed(X, identified, apexes, first, second)
        for i, (w, arc1, arc2) in enumerate(listed, 1):
            if w != listed[0][0]:
                types.add((k, l))
            if not identified or not meet(-1, (v0, v0p, w) + arc1 + arc2):  # lemma 1
                dw = DWheel(apexes, w, arc1, arc2, "identified" if identified else "edge")
                return _unlocated(X, m, dw, count + i), types
    return passed("is_m_located", m=m, dwheels=count), types


def _locate_by_degrees(X: SimplicialComplex, m: int, reads):
    """The verdict of :func:`is_m_located` on a flag ``X`` whose every
    vertex link is a union of paths or one cycle through all the vertex's
    neighbours, read off the degree sums over its edges with no wheel
    read; None on any other ``X``, read at its first other link.  The
    links are ``reads``, as :func:`_link_reads` yields them.

    Lemma (degree sums).  Let X be flag with every vertex link a union of
    paths or one cycle through all the vertex's neighbours.  Let s be the
    least degree sum k + l over the edges v0 v0' joining two cycle-link
    vertices.  Then every dwheel of X has an identified junction and lies
    in no 1-ball, and its boundary is k + l - 4 for its apexes v0, v0' of
    degrees k, l.  So for every m >= 6, X is m-located exactly when
    s > m + 4.

    - The wheels are the cycle-link vertices with their links as rims: a
      rim is a chordless cycle of 4 or more vertices in a vertex link, and
      a link of maximum degree 2 has no other than its cycle components
      (:func:`_link_rings`), which are never triangles.  So the center of
      a k-wheel has degree k >= 4.
    - Let v0, v0' be adjacent cycle-link vertices.  X is flag, so the
      common neighbours of v0 and v0' are the neighbours of v0' on the
      cycle Lk(v0): exactly two, w and x, which are also the neighbours of
      v0 on Lk(v0').  The dwheel with apexes v0, v0' and shared vertex w
      reads its free arcs from the vertex after v0' on Lk(v0) and from the
      vertex after v0 on Lk(v0'), away from w, and both are x.  So each
      (v0, v0', w) carries exactly one dwheel, and it is identified.
    - The centers of 1-balls that could hold it are among v0, v0', w and
      x.  The l - 3 >= 1 vertices of Lk(v0') other than v0, w and x are not
      neighbours of v0, as w and x are the only common neighbours, and
      likewise for v0'.  And w, x are two apart on the chordless cycle
      Lk(v0) of length k >= 4, so they are not adjacent.  No center is
      left.

    No dwheel has an edge junction, so the join's edge-junction buckets
    are empty and one never leads, even where it sorts first (the (6, 5)
    edge bucket before the (6, 6) identified one at boundary 8).  When
    s > m + 4 the pass joins 0 dwheels.  Otherwise the first bucket the
    join fills is boundary s - 4, type (k, l) with k + l = s, k >= l and
    k least; its first group is the least (v0, v0', w) of that type, with
    v0 < v0' when k = l and w the smaller common neighbour.  Its one dwheel
    fails, so the verdict has ``dwheels = 1``, and the join would locate
    no type before it.

    A cycle-link vertex's degree is its number of link vertices, and its
    edges to other vertices are those neighbours, so neither needs its rim.
    No edge sum is below twice the least degree, so when that exceeds
    m + 4 the verdict passes with no edge scanned, and only a failure
    builds rims, those of v0 and v0'.
    """
    links = {}  # cycle-link vertex -> (its neighbours, its link cycle on their ranks)
    for v, ids, masks, rings in reads:
        # a link of two cycles, or of a cycle and a path, has a ring short
        # of its vertices
        if rings is None or rings and len(rings[0]) < len(ids):
            return None
        if rings:
            links[v] = ids, rings[0]
    # the link cycle of a cycle-link vertex runs through all its neighbours
    degree = {v: len(ids) for v, (ids, _) in links.items()}
    # no edge sum is below twice the least degree
    if degree and 2 * min(degree.values()) <= m + 4:
        # the least (k + l, k, v0, v0') over the edges v0 v0' joining two
        # cycle-link vertices, k = deg v0 >= l = deg v0' and v0 < v0' if k = l
        least = min(((k + degree[u], k, v, u) for v, k in degree.items() for u in links[v][0]
                     if u in degree and (degree[u], v) < (k, u)), default=None)
        if least is not None and least[0] <= m + 4:
            _, _, v0, v0p = least
            rim1, rim2 = ([ids[i] for i in ring] for ids, ring in (links[v0], links[v0p]))
            arcs1, arcs2 = dict(_free_arcs(rim1, v0p)), dict(_free_arcs(rim2, v0))
            w = min(arcs1)
            return _unlocated(X, m, DWheel((v0, v0p), w, arcs1[w], arcs2[w], "identified"), 1)
    return passed("is_m_located", m=m, dwheels=0)


def _free_arcs(rim, x):
    """The free arcs of the wheel with cycle ``rim`` at its rim vertex
    ``x``, as ``(w, arc)`` for each rim neighbour w of x, the vertex before
    x first: the arc of a dwheel whose other apex is x and whose shared
    vertex is w, the rim from x's other neighbour, away from x, to the
    vertex before w."""
    n, i = len(rim), rim.index(x)
    twice = rim + rim
    return ((twice[i + n - 1], tuple(twice[i + 1:i + n - 1])),
            (twice[i + 1], tuple(twice[i + n - 1:i + 1:-1])))


def _unlocated(X: SimplicialComplex, m: int, dw: DWheel, count: int) -> Verdict:
    """The failing verdict of :func:`is_m_located` at the unlocated dwheel
    ``dw``, the ``count``-th dwheel joined."""
    return failed(
        "is_m_located",
        {"kind": "unlocated_dwheel", "dwheel": dw.to_json(),
         "candidates_tried": _center_candidates(X, dw.vertex_set)},
        detail=f"({dw.k},{dw.l})-dwheel of boundary length {dw.boundary_length} "
               "fits in no 1-ball",
        m=m, dwheels=count)


# -- covering preservation -----------------------------------------------------


def check_covering_map(f, cover: SimplicialComplex, base: SimplicialComplex,
                       full_at: Optional[Iterable[int]] = None,
                       edges_decide: Optional[bool] = None):
    """Verify that the vertex map ``f`` restricts on every 1-ball to an
    isomorphism onto the span of its image.

    ``full_at`` optionally lists vertices where the restriction must in
    addition be surjective onto the whole 1-ball of the image.  Raises
    :class:`NotACovering` at the first violating 1-ball, in vertex order.

    ``edges_decide`` says whether the span edges alone decide it; when it
    is None, that is flagness of both complexes, by
    :func:`~combcurv.complexes.is_flag`, which tests each complex once
    for all its callers.  If both are
    flag, f is injective on the 1-ball, so once edges match both ways so
    do cliques, the simplices.  The same holds, with the same first
    offender, whenever the simplices of both complexes are their cliques of
    at most 4 vertices, even if a 5-clique makes one of them fail
    ``is_flag``: the cover builder's stage balls and flag base are such a
    pair.  Otherwise the faces of dimensions 1-3 are compared, in the same
    order either way: same offender.

    ``f`` is a sequence indexed by cover vertex id; a cover vertex past its
    end raises :class:`ValueError`.

    One pass over the cover vertices, in sorted order, decides every 1-ball
    N[v].  A 1-ball that the edge count below passes reads no span.  Every
    other one runs the ordered scan: the images in sorted 1-ball order, then
    the faces of each side's span by dimension, each dimension sorted.  So
    the offender named is the least one, and depends on the complexes
    alone, not on the layout of their sets.  Counting never raises, so the
    first 1-ball that raises is the scan's.

    Lemma (the edge count, when edges decide).  Let every edge of N[v] map
    to a base edge, and f be injective on N[v].  Then f maps the edges of
    N[v] one-to-one into the base edges of the span of f(N[v]), so they
    match both ways exactly when the two sets have the same size.  The
    edges at v and at f(v) match one for one, so it is enough to count the
    edges among N(v), the triangles at v, and the base edges among f(N(v)),
    the triangles at f(v) whose opposite edge lies in f(N(v)).  Since
    f(N(v)) lies in N(f(v)), the image is the full 1-ball of f(v) exactly
    when deg v = deg f(v), and then every triangle at f(v) counts.

    The precondition is read once per call: every cover vertex maps to a
    base vertex and every cover edge to a base edge.  The expansion lemma
    of the cover builder makes it hold on every stage ball.  If it fails,
    no 1-ball is counted and all are scanned.  Otherwise a 1-ball costs one
    image set and the two counts, and is scanned when f is not injective
    on it, when the counts differ, or when it must be full and is not.
    """
    short = next((v for v in cover.vertices if v >= len(f)), None)
    if short is not None:
        raise ValueError(f"cover vertex {short} has no image: the vertex map has {len(f)} entries")
    if edges_decide is None:
        edges_decide = is_flag(cover).passed and is_flag(base).passed
    dims = (1,) if edges_decide else (1, 2, 3)
    full_at = set(full_at) if full_at is not None else set()
    count = edges_decide and all(map(base.has_vertex, {f[v] for (v,) in cover.simplices(0)})) \
        and all(base.adjacent(f[u], f[v]) for u, v in cover.simplices(1))
    triangles = Counter(chain.from_iterable(cover.simplices(2))) if count else None
    links = {}  # base vertex -> its link edges
    for v in cover.vertices:
        nbrs = cover.neighbors(v)
        if count:
            fv, image = f[v], {f[u] for u in nbrs}
            if len(image) == len(nbrs):
                if fv not in links:
                    links[fv] = base.link_edges(fv)
                full = len(nbrs) == base.degree(fv)
                if (full or v not in full_at) and triangles[v] == (
                        len(links[fv]) if full else sum(map(image.issuperset, links[fv]))):
                    continue
        ball, inverse = sorted({v} | nbrs), {}
        for u in ball:
            fu = f[u]
            if not base.has_vertex(fu):
                raise NotACovering(v, f"image {fu} of {u} is not a vertex of the base")
            if fu in inverse:
                raise NotACovering(v, f"not injective on the 1-ball ({u} collides)")
            inverse[fu] = u
        # forward: simplices inside the 1-ball must map to simplices
        span = cover.span(ball)
        for s in chain.from_iterable(sorted(span.simplices(d)) for d in dims):
            if not base.has_simplex(f[u] for u in s):
                raise NotACovering(v, f"simplex {s} maps to a non-simplex")
        # backward: simplices of the image span must pull back
        span = base.span(inverse)
        for s in chain.from_iterable(sorted(span.simplices(d)) for d in dims):
            if not cover.has_simplex(inverse[x] for x in s):
                raise NotACovering(v, f"image simplex {s} has no preimage in the 1-ball")
        if v in full_at and inverse.keys() != {f[v]} | base.neighbors(f[v]):
            raise NotACovering(v, "1-ball does not cover the full 1-ball of the image")


def check_covering_preservation(f, cover: SimplicialComplex, base: SimplicialComplex,
                                m: int, k: int) -> Verdict:
    """Metamorphic contract: a covering of an m-located (locally k-large)
    complex is itself m-located (locally k-large).

    ``f`` maps cover vertex ids to base vertex ids.  The covering condition
    is verified first and raises :class:`NotACovering` on failure; a bad k,
    then a bad m, is reported before any work.  Each complex is tested for
    flagness once, as :func:`~combcurv.complexes.is_flag` keeps its
    witness: the covering check and the :func:`located_and_large` call
    read the same test.  The links of each complex are read once.
    """
    check_k_and_m(k, m)
    check_covering_map(f, cover, base)
    base_m, base_k, _ = located_and_large(base, m, k)
    cover_m, cover_k, _ = located_and_large(cover, m, k)
    if base_m.passed and not cover_m.passed:
        return failed("covering_preservation", cover_m.witness,
                      detail=f"base is {m}-located but the cover is not", m=m, k=k)
    if base_k.passed and not cover_k.passed:
        return failed("covering_preservation", cover_k.witness,
                      detail=f"base is locally {k}-large but the cover is not", m=m, k=k)
    return passed(
        "covering_preservation",
        detail=(f"base: {m}-located={base_m.passed}, locally-{k}-large={base_k.passed}; "
                f"cover: {cover_m.passed}, {cover_k.passed}"),
        m=m, k=k)
