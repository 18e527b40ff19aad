"""Largeness, wheels, dwheels, dwheel location, covering preservation."""

import inspect
import json
import random
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combcurv import build_complex, build_cover, complexes, curvature, expand_ball
from combcurv.complexes import Cycle, SimplicialComplex, chords, flag_witness, full_cycles, is_flag
from combcurv.cover import _base_state
from combcurv.curvature import (
    check_covering_map,
    check_covering_preservation,
    dwheels,
    is_k_large,
    is_locally_k_large,
    is_m_located,
    wheels,
)
from combcurv.errors import NotACovering
from combcurv.verdicts import failed

from conftest import (
    complexes_built,
    cone,
    counted,
    dwheel_complex,
    flip_surface,
    gen,
    hollow_triangle_cone,
    less_some,
    pinched_octahedra,
    two_cycles_cone,
)
from oracles import (
    in_one_ball,
    naive_check_covering_map,
    naive_dwheels,
    naive_flag_witness,
    naive_four_wheel_free,
    naive_is_k_large,
    naive_is_locally_k_large,
    naive_is_m_located,
    naive_link,
    naive_link_graph,
    naive_sorted_dwheels,
    naive_wheels,
    naive_wheels_at,
)


def link_shape(X, v):
    """The link graph of v as the sorted lengths of its components, 0 for
    a path, when no link vertex has degree 3 or more; else None."""
    nbrs = naive_link_graph(X, v)
    if any(len(ns) > 2 for ns in nbrs.values()):
        return None
    lengths, seen = [], set()
    for u in nbrs:
        if u in seen:
            continue
        comp, todo = {u}, [u]
        while todo:
            for w in nbrs[todo.pop()] - comp:
                comp.add(w)
                todo.append(w)
        seen |= comp
        closed = sum(len(nbrs[w]) for w in comp) == 2 * len(comp)
        lengths.append(len(comp) if closed else 0)
    return tuple(sorted(lengths))


# links of maximum degree 2 that are not one cycle: two 4-cycles
# (pinched_octahedra), a 4-cycle and a 5-cycle (two_cycles_cone), and a
# hollow triangle beside a 4-cycle (hollow_triangle_cone)
SEVERAL_CYCLES = {(4, 4), (4, 5), (3, 4)}


def several_cycle_inputs():
    return [pinched_octahedra(), two_cycles_cone(), hollow_triangle_cone()]


def link_shapes(inputs):
    return {link_shape(X, v) for X in inputs for v in X.vertices}


class TestLargeness:
    def test_octahedron_not_5_large(self, octa):
        verdict = is_k_large(octa, 5)
        assert not verdict.passed
        assert isinstance(verdict.witness, Cycle)
        assert len(verdict.witness) == 4

    def test_icosahedron_5_large_not_6_large(self, icosa):
        assert is_k_large(icosa, 5).passed
        verdict = is_k_large(icosa, 6)
        assert not verdict.passed
        assert len(verdict.witness) == 5

    def test_non_flag_input_fails_not_raises(self, bd4):
        verdict = is_k_large(bd4, 5)
        assert not verdict.passed
        assert verdict.witness["vertices"] == [0, 1, 2, 3, 4]

    def test_monotone_in_k(self, icosa, torus66, gs2):
        for X in (icosa, torus66, gs2):
            statuses = [is_k_large(X, k).passed for k in range(4, 9)]
            # once it fails it stays failed
            assert statuses == sorted(statuses, reverse=True)

    def test_against_naive_oracle(self, octa, icosa, bd4, gs2, torus66):
        kinds = set()
        rng = random.Random(2013)
        inputs = [octa, icosa, bd4, gs2, torus66, gen("triangle"), gen("tetrahedron")]
        inputs += [gen("c_n", n) for n in (4, 5, 6, 7)]
        inputs += [gen("random_flag", rng.randint(6, 12), rng.choice((0.3, 0.4, 0.5, 0.6)), seed)
                   for seed in range(100)]
        for X in inputs:
            for k in range(4, 8):
                got = is_k_large(X, k).to_json()
                assert got == naive_is_k_large(X, k).to_json(), (X, k)
                kinds.add(got["witness"]["kind"] if got["witness"] else "pass")
        assert kinds == {"pass", "cycle", "empty_clique"}


class TestLocallyLarge:
    def test_octahedron_fails_locally_5(self, octa):
        verdict = is_locally_k_large(octa, 5)
        assert not verdict.passed
        assert verdict.witness["kind"] == "cycle_in_link"
        simplex = verdict.witness["simplex"]
        cycle = verdict.witness["cycle"]
        assert len(cycle) == 4
        assert all(octa.adjacent(simplex[0], u) for u in cycle)

    def test_icosahedron_locally_5_large(self, icosa):
        assert is_locally_k_large(icosa, 5).passed

    def test_tetrahedron_locally_5_large(self, tetra):
        assert is_locally_k_large(tetra, 5).passed

    def test_torus_locally_6_large_not_7(self, torus66):
        assert is_locally_k_large(torus66, 6).passed
        assert not is_locally_k_large(torus66, 7).passed

    @given(n=st.integers(5, 12), p=st.floats(0.15, 0.5), seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_direct_4_wheel_search(self, n, p, seed):
        X = gen("random_flag", n, p, seed)
        if not is_k_large(X, 4).passed:  # skip the rare non-flag draw
            return
        wheel = naive_four_wheel_free(X)
        assert is_locally_k_large(X, 5).passed == (wheel is None)

    def test_builds_vertex_links_only(self, gs2, monkeypatch):
        # each vertex link is read once, as bitmasks; no link complex is built
        built = complexes_built(monkeypatch)
        masks = counted(monkeypatch, SimplicialComplex, "link_masks")
        verdict = is_locally_k_large(gs2, 5)
        assert verdict.passed
        assert built == []
        assert [v for _X, v in masks] == list(gs2.vertices)
        # the stat still counts every simplex whose link is certified
        assert verdict.stats["links_checked"] == sum(gs2.counts())

    def test_max_degree_2_links_are_not_searched(self, gs2, icosa, torus66, monkeypatch):
        # a link graph of maximum degree 2 is read as its cycle components:
        # no pair closure and no clique search; a link with a vertex of
        # degree 3 or more, or a triangle component, is searched
        closures = counted(monkeypatch, curvature, "chordless_cycles")
        cliques = counted(monkeypatch, curvature, "empty_clique")

        def lengths():
            # the length ranges of the pair closures
            return Counter(args[1:] for args in closures)

        masks = counted(monkeypatch, SimplicialComplex, "link_masks")
        checks = ((gs2, lambda: is_locally_k_large(gs2, 5).passed),
                  (torus66, lambda: is_locally_k_large(torus66, 6).passed),
                  (gs2, lambda: is_m_located(gs2, 8).stats["dwheels"] > 0),
                  (icosa, lambda: is_m_located(icosa, 8).witness["kind"] == "unlocated_dwheel"),
                  (torus66, lambda: is_m_located(torus66, 8).witness["kind"] == "unlocated_dwheel"))
        for X, check in checks:
            masks.clear()
            assert check()
            # each link is still read once
            assert [v for _X, v in masks] == list(X.vertices)
        assert (len(closures), len(cliques)) == (0, 0), (closures, cliques)

        # the 600-cell's links are icosahedra, searched by one pair closure
        # at rim lengths 4 and 5 together, and at length 6 only when 6 is
        # read; wheels(cell600, 6, 6) reads length 6 alone
        cell600 = gen("cell600")
        assert is_m_located(cell600, 8).stats["dwheels"] == CELL600_M8["stats"]["dwheels"]
        assert (len(closures), len(cliques)) == (120, 0)
        assert lengths() == {(4, 5): 120}, lengths()
        assert len(wheels(cell600, 6, 6)) == 120 * 40
        assert (len(closures), len(cliques)) == (240, 0)
        assert lengths() == {(4, 5): 120, (6, 6): 120}, lengths()
        verdict = is_locally_k_large(hollow_triangle_cone(), 5)
        assert verdict.witness == {"kind": "clique_in_link", "simplex": [0],
                                   "vertices": [2, 5, 7]}
        assert len(cliques) == 1, cliques
        # a searched link is closed once, at every length below k, and at
        # none for k = 4: the 600-cell is locally 5-large, and its first
        # link, an icosahedron, holds the 5-cycles that fail k = 7
        closures.clear()
        assert is_locally_k_large(cell600, 4).passed and is_locally_k_large(cell600, 5).passed
        assert lengths() == {(4, 4): 120}, lengths()
        verdict = is_locally_k_large(cell600, 7)
        assert verdict.stats["links_checked"] == 1 and len(verdict.witness["cycle"]) == 5
        assert lengths() == {(4, 4): 120, (4, 6): 1}, lengths()


def simplex_soups(rng, count):
    """Downward closures of random simplices on vertex ids with gaps: mostly
    not flag, and some ids below the largest are absent."""
    for _ in range(count):
        ids = sorted(rng.sample(range(14), rng.randint(5, 11)))
        yield build_complex(rng.sample(ids, rng.randint(2, 4))
                            for _ in range(rng.randint(3, 14)))


class TestLocallyLargeOracle:
    """Vertex links suffice: the all-simplices scan of the referee gives
    the same verdict, witness and ``links_checked`` for every k."""

    @staticmethod
    def corpus(*fixtures):
        rng = random.Random(2013)
        inputs = list(fixtures)
        inputs += [gen("random_flag", rng.randint(6, 16), rng.choice((0.2, 0.3, 0.4, 0.5)),
                       seed) for seed in range(80)]
        # the cone over the icosahedron: a searched link (a 5-wheel) whose
        # shortest full cycle has 5 vertices
        return (inputs + list(simplex_soups(rng, 80)) + several_cycle_inputs()
                + [cone(gen("icosahedron"))])

    def test_same_verdict_as_all_links(self, octa, icosa, bd4, gs2, disk37, surf37):
        kinds = set()
        corpus = self.corpus(octa, icosa, bd4, gs2, disk37, surf37)
        assert SEVERAL_CYCLES <= link_shapes(corpus)
        for X in corpus:
            # k = 9 closes rims up to 8 vertices, and k = 10 searches from 9
            for k in range(4, 11):
                got = is_locally_k_large(X, k).to_json()
                assert got == naive_is_locally_k_large(X, k).to_json(), (X, k)
                kinds.add(got["witness"]["kind"] if got["witness"] else "pass")
        assert kinds == {"pass", "cycle_in_link", "clique_in_link"}

    def test_flag_witness_as_every_clique_scan(self, octa, icosa, bd4, gs2, disk37, surf37):
        sizes = set()
        for X in self.corpus(octa, icosa, bd4, gs2, disk37, surf37):
            w = flag_witness(X)
            assert w == naive_flag_witness(X), X
            sizes.add(0 if w is None else len(w))
        # flag inputs, and empty triangles, tetrahedra and 5-cliques
        assert sizes == {0, 3, 4, 5}


class TestWheels:
    def test_icosahedron_one_wheel_per_vertex(self, icosa):
        ws = wheels(icosa, 5, 5)
        assert len(ws) == 12
        assert sorted(w.center for w in ws) == list(range(12))

    def test_tetrahedron_has_no_wheels(self, tetra):
        assert wheels(tetra, 4, 8) == []

    def test_octahedron_six_4_wheels(self, octa):
        assert len(wheels(octa, 4, 4)) == 6

    def test_wheels_revalidate(self, icosa, gs2, torus66):
        for X in (icosa, gs2, torus66):
            for w in wheels(X, 4, 7):
                assert w.validate(X)

    def test_length_range_validated_on_every_input(self, triangle, gs2):
        # checked before any link is built, also where no link is large enough
        for X in (build_complex([]), triangle, gs2):
            with pytest.raises(ValueError, match="cycles start at length 4"):
                wheels(X, 3, 8)
            with pytest.raises(ValueError, match="largeness starts at k = 4"):
                is_k_large(X, 3)
            with pytest.raises(ValueError, match="empty length range"):
                wheels(X, 6, 5)

    def test_chord_checks_only_the_rims_in_range(self, monkeypatch):
        # shorter link cycles are neither closed nor chord-checked
        X = gen("random_flag", 30, 0.3, 1)
        links = [naive_link(X, (v,))[0] for v in X.vertices]
        shorter = sum(len(full_cycles(link, 4, 4)) for link in links)
        in_range = sum(len(full_cycles(link, 5, 6)) for link in links)
        calls = counted(monkeypatch, curvature, "chords")
        assert len(wheels(X, 5, 6)) == 98
        assert len(calls) == in_range and shorter > 0, (len(calls), in_range, shorter)

    def test_against_naive_oracle_in_order(self):
        # wheels() gives canonical rims in (center, length, rim) order; the
        # soups are mostly not flag, so link cycles with ambient chords occur
        rng = random.Random(8)
        inputs = [gen("random_flag", rng.randint(8, 13), rng.choice((0.3, 0.4, 0.5)), seed)
                  for seed in range(40)]
        inputs += list(simplex_soups(rng, 120))
        inputs += several_cycle_inputs()
        assert SEVERAL_CYCLES <= link_shapes(inputs)
        found = dropped = 0
        for X in inputs:
            mine = [(w.center, w.rim) for w in wheels(X, 4, 5)]
            ref = sorted(naive_wheels(X, 4, 5), key=lambda cr: (cr[0], len(cr[1]), cr[1]))
            assert mine == ref, X
            found += len(mine)
            # each length's wheels, searched and read in one walk, are the
            # chordless cycles of the vertex links, with no ambient chord
            # filter; their order across centers is the callers' concern
            by_length = {4: [], 5: []}
            for v in X.vertices:
                link, vmap = naive_link(X, (v,))
                for c in full_cycles(link, 4, 5):
                    rim = tuple(vmap[u] for u in c.vertices)
                    by_length[len(rim)].append((v, rim))
                    dropped += bool(chords(X, rim))
            wheels_at = curvature._wheels_by_length(X, 5, curvature._link_reads(X))
            assert {k: sorted(wheels_at(k)) for k in (4, 5)} \
                == {k: sorted(ws) for k, ws in by_length.items()}, X
        assert found > 100 and dropped > 0, (found, dropped)

    def test_stream_rims_are_the_naive_wheels(self, link_wheels):
        # lengths 4 and 5 are closed in one call per link and 6 .. k_max in
        # one more, whose cycles go to their lengths; none is lost or
        # found twice: at every length the lookup holds exactly the wheels
        # of that length.  On a flag input no rim it holds has a chord in
        # X.  The 600-cell's links are all searched, and its wheels come
        # from the per-centre referee, which the other flag inputs at 8
        # check against naive_wheels
        lengths, flag, whole = set(), 0, 0
        for X, top, at in link_wheels:
            if not is_flag(X).passed:
                continue
            ref = [w for v in X.vertices for w in at[v]]
            wheels_at = curvature._wheels_by_length(X, top, curvature._link_reads(X))
            got = [(k, sorted(wheels_at(k))) for k in range(4, top + 1)]
            assert got == [(k, [w for w in ref if len(w[1]) == k]) for k in range(4, top + 1)], X.name
            lengths.update(len(rim) for _, rim in ref)
            flag += 1
            if top == 8 and X.name != "cell600":
                assert ref == naive_wheels(X, 4, top), X.name
                whole += 1
        assert lengths == set(range(4, 11)), lengths
        assert (flag, whole) == (45, 35), (flag, whole)

    def test_reading_order_closes_no_length_twice(self, link_wheels, monkeypatch):
        # a first read of 4 closes 4 and 5 in one call per searched link, a
        # first read of 5 closes 5 alone, and a read of 4 after it closes 4
        # alone.  Read as 4 then 5, as 5 then 4, or as 5 alone, the lookup
        # holds the per-centre referee's wheels, and no searched link is
        # closed twice at one length
        closed = []  # (the link's masks, the lengths closed) per call
        close = curvature.chordless_cycles
        monkeypatch.setattr(curvature, "chordless_cycles", lambda masks, *lengths: (
            closed.append((id(masks), lengths)) or close(masks, *lengths)))
        ranges = {(4, 5): {(4, 5)}, (5, 4): {(5,), (4,)}, (5,): {(5,)}}
        searched = 0
        for X, top, at in link_wheels:
            if not is_flag(X).passed:
                continue
            reads = list(curvature._link_reads(X))
            links = sum(rings is None for *_, rings in reads)
            searched += links
            for order, expected in ranges.items():
                closed.clear()
                wheels_at = curvature._wheels_by_length(X, top, reads)
                for k in order:
                    assert sorted(wheels_at(k)) == \
                        [w for v in X.vertices for w in at[v] if len(w[1]) == k], (X.name, order)
                lengths = Counter(chain.from_iterable(
                    ((link, j) for j in range(ls[0], ls[-1] + 1)) for link, ls in closed))
                assert set(lengths.values()) <= {1}, (X.name, order)
                assert Counter(ls for _, ls in closed) == Counter(dict.fromkeys(expected, links)), \
                    (X.name, order, closed)
        assert searched > 120, searched

    def test_lengths_from_6_close_in_one_call_per_link(self, monkeypatch):
        # the first read of length 6 closes 6 .. k_max in one kernel call
        # per searched link, a raised k_max too, as the first read of 4
        # closes 4 and 5, and the wheels are still the naive ones
        closures = Counter()
        close = curvature.chordless_cycles

        def closing(masks, *lengths):
            closures[lengths] += 1
            return close(masks, *lengths)

        monkeypatch.setattr(curvature, "chordless_cycles", closing)
        # a 10-cycle with a triangle on its edge 01: the apex link of the
        # cone has a vertex of degree 3, so it is searched, and a rim of 10
        ring = build_complex([(i, (i + 1) % 10) for i in range(10)] + [(0, 1, 10)])
        for X in (gen("random_flag", 12, 0.35, 5), cone(ring)):
            links = sum(curvature._link_rings(X.link_masks(v)[1]) is None for v in X.vertices)
            assert links > 0, X.name
            for k_max in (7, 8, 10):
                closures.clear()
                got = sorted((w.center, w.rim) for w in wheels(X, 4, k_max))
                assert closures == {(4, 5): links, (6, k_max): links}, (X.name, closures)
                assert got == [w for v in X.vertices for w in naive_wheels_at(X, v, 4, k_max)], \
                    (X.name, k_max)
        assert max(len(rim) for _, rim in got) == 10

    def test_no_length_below_k_min_is_closed(self, monkeypatch):
        # wheels(X, k_min, k_max) reads the lengths k_min .. k_max only, so
        # no searched link is closed below k_min; the 600-cell's 120 links
        # are all searched.  check_wheel_in_link reads wheels(X, 5, 6)
        closures = counted(monkeypatch, curvature, "chordless_cycles")
        X = gen("cell600")
        for k_min, rims, expected in ((5, {5: 1440, 6: 4800}, {(5,): 120, (6, 6): 120}),
                                      (6, {6: 4800}, {(6, 6): 120})):
            closures.clear()
            assert Counter(len(w.rim) for w in wheels(X, k_min, 6)) == rims, k_min
            assert Counter(args[1:] for args in closures) == expected, (k_min, closures)


class TestDWheels:
    def test_7_5_identified_has_boundary_8(self):
        X, arc1, arc2 = dwheel_complex(7, 5, "identified")
        found = [d for d in dwheels(X, 8) if d.type == (7, 5)]
        assert found
        dw = found[0]
        assert dw.junction == "identified"
        assert dw.boundary_length == 8
        assert dw.validate(X)

    def test_6_5_edge_has_boundary_8(self):
        X, arc1, arc2 = dwheel_complex(6, 5, "edge")
        found = [d for d in dwheels(X, 8) if d.type == (6, 5) and d.junction == "edge"]
        assert found
        assert found[0].boundary_length == 8
        assert found[0].validate(X)

    def test_icosahedron_5_5_around_each_edge(self, icosa):
        ds = dwheels(icosa, 8)
        assert ds and all(d.type == (5, 5) for d in ds)
        assert all(d.junction == "identified" and d.boundary_length == 6 for d in ds)
        apex_pairs = {tuple(sorted(d.apexes)) for d in ds}
        assert apex_pairs == {tuple(sorted(e)) for e in icosa.simplices(1)}

    def test_boundary_cycle_shape(self):
        X, arc1, arc2 = dwheel_complex(7, 5, "identified")
        dw = [d for d in dwheels(X, 8) if d.type == (7, 5)][0]
        boundary = dw.boundary()
        assert len(boundary) == dw.boundary_length
        assert len(set(boundary)) == len(boundary)

    def test_against_naive_oracle(self, monkeypatch):
        # the flag inputs are cases of TestDWheelStream's referee.  Less
        # some triangles, a link-chordless rim can have a chord in X:
        # dwheels drops those wheels before the join
        rng = random.Random(1113)
        non_flag = [less_some(gen("random_flag", rng.randint(9, 13),
                                  rng.choice((0.35, 0.45)), seed), 2, rng)
                    for seed in range(60)]
        junctions, found, chorded = set(), 0, 0
        for X in non_flag:
            mine = dwheels(X, 8)
            assert mine == naive_sorted_dwheels(X, 8), X.name
            junctions.update(d.junction for d in mine)
            found += len(mine)
            for v in X.vertices:
                link, vmap = naive_link(X, (v,))
                chorded += sum(bool(chords(X, [vmap[u] for u in c.vertices]))
                               for c in full_cycles(link, 4, 8))
        # the random inputs exercise both junction kinds
        assert junctions == {"identified", "edge"}
        assert found > 40 and chorded > 0, (found, chorded)
        # and the filter drops dwheels: without it the non-flag inputs give more
        monkeypatch.setattr(curvature, "chords", lambda X, cycle: [])
        assert sum(len(dwheels(X, 8)) for X in non_flag) > found

    def test_revalidation(self, icosa, torus66):
        for X in (icosa, torus66):
            for d in dwheels(X, 8):
                assert d.validate(X)
                w1, w2 = d.wheels
                assert w1.validate(X) and w2.validate(X)

    def test_deterministic_order(self, icosa):
        assert dwheels(icosa, 8) == dwheels(icosa, 8)

    def test_validate_failures(self, icosa):
        def without(X, tri):
            return build_complex([s for s in X.maximal_simplices() if s != tri]
                                 + list(combinations(tri, 2)))

        # a found wheel fails with a rim chord added, or a cone triangle gone
        w = wheels(icosa, 5, 5)[0]
        tri = tuple(sorted((w.center,) + w.rim[:2]))
        chorded = build_complex(icosa.maximal_simplices() + [(w.rim[0], w.rim[2])])
        assert w.validate(icosa)
        assert not w.validate(chorded) and not w.validate(without(icosa, tri))
        # a dwheel fails once a cone triangle of its first wheel is gone
        d = dwheels(icosa, 8)[0]
        center, rim = d.wheels[0].center, d.wheels[0].rim
        assert d.validate(icosa)
        assert not d.validate(without(icosa, tuple(sorted((center,) + rim[:2]))))
        # the junction: an edge one read as identified, an identified one as
        # an edge, and an edge one with its edge gone
        X, arc1, arc2 = dwheel_complex(6, 5, "edge")
        (d,) = [d for d in dwheels(X, 8) if d.type == (6, 5) and d.junction == "edge"]
        a, b = d.rim1[0], d.rim2[0]
        assert d.validate(X) and X.adjacent(a, b)
        assert not replace(d, junction="identified").validate(X)
        assert not d.validate(build_complex([s for s in X.maximal_simplices() if s != (a, b)]))
        ident = dwheels(icosa, 8)[0]
        assert ident.junction == "identified" and not replace(ident, junction="edge").validate(icosa)
        # every dwheel of a cone over a dwheel still validates
        for k, l in ((5, 5), (7, 5)):
            C = cone(dwheel_complex(k, l, "identified")[0])
            found = dwheels(C, 8)
            assert found and all(d.validate(C) for d in found), (k, l)


# is_m_located(cell600(), 8) as the global-sort join gave it, timings excluded
CELL600_M8 = {
    "check": "is_m_located", "status": "fail",
    "detail": "(5,5)-dwheel of boundary length 7 fits in no 1-ball",
    "witness": {"kind": "unlocated_dwheel",
                "dwheel": {"kind": "dwheel", "apexes": [0, 1], "shared": 2,
                           "rims": [[5, 9, 7], [6, 16, 14]], "junction": "edge",
                           "type": [5, 5], "boundary_length": 7},
                "candidates_tried": [0, 1, 2, 5, 6, 7, 9, 14, 16]},
    "stats": {"m": 8, "dwheels": 7201},
}


@contextmanager
def line_spy(fn, marker, names):
    """Record the values of the local variables ``names`` of ``fn`` (a
    function, or the code object of a nested one) each time the first line
    of its source that holds ``marker`` runs."""
    code = getattr(fn, "__code__", fn)
    lines, first = inspect.getsourcelines(code)
    target = first + next(i for i, line in enumerate(lines) if marker in line)
    seen = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == target:
            seen.append(tuple(frame.f_locals[name] for name in names))
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        yield seen
    finally:
        sys.settrace(previous)


class TestDWheelStream:
    """Dwheels come one (boundary, type) bucket at a time; the referee
    builds them all and sorts them once."""

    SHAPES = ((5, 5, "identified"), (5, 5, "edge"), (6, 4, "edge"), (6, 5, "edge"),
              (7, 5, "identified"), (6, 6, "identified"))
    RANDOM_FLAG = ((12, 0.35, 7), (12, 0.35, 5), (13, 0.4, 7), (11, 0.4, 3),
                   (12, 0.45, 9))
    # random_flag draws, with the largest m checked, that reach the cases of
    # the grouped location: an unlocated dwheel right after a located one of
    # its group (same apexes and shared vertex), one later in its bucket, an
    # edge-junction failure, and a pass with dwheels
    LOCATION_DRAWS = (((18, 0.35, 33), 6), ((18, 0.35, 21), 6), ((11, 0.35, 28), 7),
                      ((12, 0.45, 25), 6))

    def test_stops_at_first_unlocated_dwheel_on_600_cell(self, monkeypatch):
        built = counted(monkeypatch, curvature, "DWheel")
        with line_spy(curvature._locate_by_join, "(wheel1[1] or cap(v0, wheel1))",
                      ("identified", "v0", "v0p", "wheel1", "wheel2")) as seen:
            assert is_m_located(gen("cell600"), 8).to_json() == CELL600_M8
        # a wheel is its record [rim, cap]; a test names its two wheels by rim
        tested = [(identified, v0, v0p, wheel1[0], wheel2[0])
                  for identified, v0, v0p, wheel1, wheel2 in seen]
        # the whole join holds 244 800 dwheels; the failing bucket, (5,5)
        # edge dwheels of boundary 7, comes right after 7 200 identified
        # ones.  Location is decided per apex pair on the wheels' corners,
        # so only the witness is built as a DWheel.
        assert len(built) == 1, built
        # the 7 200 identified dwheels are 3 600 wheel pairs with equal
        # corners, each a dwheel and its mirror, and each pair is tested
        # once; the edge-junction dwheel fails with no test
        assert len(tested) == len(set(tested)) == 3600
        assert {identified for identified, *_ in tested} == {True}

    def test_the_listing_decides_edge_buckets(self, monkeypatch):
        # by Lemma 1 an edge bucket needs no location test: each of its apex
        # pairs is listed, an empty listing holds no edge junction, and a
        # listing with dwheels fails at its first
        listed, listing = [], curvature._listed

        def spy(X, identified, apexes, first, second):
            found = listing(X, identified, apexes, first, second)
            listed.append((identified, apexes, len(found)))
            return found
        monkeypatch.setattr(curvature, "_listed", spy)
        # four edge-bucket apex pairs that list nothing, and a pass over the
        # four identified dwheels
        X = gen("random_flag", 12, 0.45, 25)
        verdict = is_m_located(X, 6)
        assert verdict.passed and verdict.stats["dwheels"] == 4
        assert [(identified, n) for identified, _, n in listed] == [(False, 0)] * 4, listed
        # the first edge junction fails as the first dwheel joined
        listed.clear()
        X = gen("random_flag", 11, 0.35, 28)
        verdict = is_m_located(X, 7)
        assert verdict.witness["dwheel"]["junction"] == "edge"
        assert verdict.stats["dwheels"] == 1
        assert listed == [(False, (1, 4), 2)], listed
        # the 600-cell lists its failing (5,5) edge apex pair only
        listed.clear()
        assert is_m_located(gen("cell600"), 8).to_json() == CELL600_M8
        assert listed == [(False, (0, 1), 10)], listed

    def test_one_link_read_and_lazy_cores_on_600_cell(self, monkeypatch):
        # the degree sums give up at the first link, an icosahedron, and the
        # join takes the same reads.  The 3 600 tests read the caps of the
        # 1 440 five-wheels inline, from the wheel's record, which all its
        # corners point to; cap() builds each one once, at its wheel's
        # first test, so it runs 1 440 times, not twice per test
        reads, link_masks = [], SimplicialComplex.link_masks
        monkeypatch.setattr(SimplicialComplex, "link_masks",
                            lambda X, v: reads.append(v) or link_masks(X, v))
        X = gen("cell600")
        cap = next(code for code in curvature._locate_by_join.__code__.co_consts
                   if getattr(code, "co_name", None) == "cap")
        with line_spy(cap, "wheel[1] = meet(", ("center", "wheel")) as seen:
            assert is_m_located(X, 8).to_json() == CELL600_M8
        built = [(center, wheel[0]) for center, wheel in seen]
        assert reads == list(X.vertices)
        assert len(built) == len(set(built)) == 1440
        assert {len(rim) for _, rim in built} == {5}
        # the tests' line, which reads both caps inline, runs 3 600 times,
        # on the same 1 440 wheels
        with line_spy(curvature._locate_by_join, "(wheel1[1] or cap(v0, wheel1))",
                      ("wheel1", "wheel2")) as tests:
            assert is_m_located(X, 8).to_json() == CELL600_M8
        assert len(tests) == 3600
        assert len({id(wheel) for pair in tests for wheel in pair}) == 1440

    def test_a_join_failing_at_boundary_4_closes_lengths_4_and_5_once(self, monkeypatch):
        # no rim length is searched before the join asks for it, and the
        # first read of length 4 closes 5 with it.  These draws fail
        # 8-location at a (4,4)-dwheel of boundary 4, so the join never
        # reads length 5, yet each searched link (not read as rings) is
        # closed once, at lengths 4 and 5 together, and at no other length
        searched = []
        close = curvature.chordless_cycles

        def spy(masks, *lengths):
            searched.append(lengths)
            return close(masks, *lengths)
        monkeypatch.setattr(curvature, "chordless_cycles", spy)
        for seed in (5, 19, 34, 45):
            X = gen("random_flag", 12, 0.35, seed)
            searched.clear()
            verdict = is_m_located(X, 8)
            assert verdict.witness["dwheel"]["boundary_length"] == 4, seed
            links = sum(curvature._link_rings(X.link_masks(v)[1]) is None for v in X.vertices)
            assert links > 0 and searched == [(4, 5)] * links, (seed, searched)

    def test_a_bucket_with_no_short_wheels_draws_no_long_ones(self, surf37):
        # every rim of surf37 has length 7, so each bucket up to boundary 8
        # finds no wheels of its shorter rim length l <= 6 and never reads
        # the lengths 7 and 8 of its longer rim; is_m_located decides a
        # surface by degrees, so the join is called directly
        read = []
        wheels_at = curvature._wheels_by_length(surf37, 8, curvature._link_reads(surf37))

        def recording(k):
            read.append(k)
            return wheels_at(k)

        verdict, types = curvature._locate_by_join(surf37, 8, recording)
        assert types == set()
        assert verdict.passed and verdict.stats["dwheels"] == 0
        assert read == [4, 5, 6]

    def cases(self, octa, icosa, disk37, surf37):
        yield octa, 8
        yield icosa, 8
        yield gen("tri_torus", 4, 4), 8
        # vacuous at m = 7, then an unlocated (6,6)-dwheel at m = 8
        yield gen("tri_torus", 6, 6), 8
        # an unlocated (6,5)-dwheel of boundary 7, among 540 dwheels up to 8
        yield gen("geodesic_sphere", 3), 8
        for k, l, junction in self.SHAPES:
            yield dwheel_complex(k, l, junction)[0], 8
        # an edge junction leaves an empty triangle, so only identified
        # shapes give flag cones
        for k, l in ((5, 5), (7, 5)):
            yield cone(dwheel_complex(k, l, "identified")[0]), 8
        for p in self.RANDOM_FLAG:
            yield gen("random_flag", *p), 8
        for p, top in self.LOCATION_DRAWS:
            yield gen("random_flag", *p), top
        # every wheel of a degree-7 surface is a 7-wheel, so its dwheels have
        # boundary >= 10; m = 6 keeps the path-enumerating referee quick
        yield disk37, 6
        yield surf37, 6
        for X in several_cycle_inputs():
            yield X, 8

    @pytest.fixture(scope="class")
    def refereed(self, octa, icosa, disk37, surf37):
        """Each case with the referee's sorted dwheels, built once for the
        tests of this class."""
        return [(X, top, naive_sorted_dwheels(X, top))
                for X, top in self.cases(octa, icosa, disk37, surf37)]

    def test_same_dwheels_and_verdict_as_global_sort(self, refereed):
        outcomes, junctions, buckets, typed = set(), set(), set(), set()
        assert SEVERAL_CYCLES <= link_shapes(X for X, _, _ in refereed)
        for X, top, ref in refereed:
            streamed = dwheels(X, top)
            assert streamed == ref, X.name
            for m in range(6, top + 1):
                got = is_m_located(X, m).to_json()
                assert got == naive_is_m_located(X, m, ref).to_json(), (X.name, m)
                if got["status"] == "pass":
                    outcomes.add("pass" if got["stats"]["dwheels"] else "vacuous")
                    # the kernel's types are those of the referee's dwheels
                    verdict, _, types = curvature.located_and_large(X, m, 4)
                    mine = [d for d in ref if d.boundary_length <= m]
                    assert verdict.to_json() == got, (X.name, m)
                    assert types == {d.type for d in mine}, (X.name, m)
                    assert verdict.stats["dwheels"] == len(mine), (X.name, m)
                    typed.add((X.name, m, len(mine), frozenset(types)))
                    continue
                outcomes.add(got["witness"]["kind"])
                if got["witness"]["kind"] == "unlocated_dwheel":
                    outcomes.update(self.failure_kinds(ref, got["stats"]["dwheels"] - 1))
            junctions.update(d.junction for d in streamed)
            buckets.update((d.boundary_length, d.type) for d in streamed)
        assert {"pass", "vacuous", "unlocated_dwheel", "edge junction", "mid-bucket",
                "after a located dwheel of its group"} <= outcomes
        assert junctions == {"identified", "edge"}
        assert len(buckets) >= 3
        assert ("random_flag_12_0.45_25", 6, 4, frozenset({(4, 4), (5, 4)})) in typed

    def test_the_join_lemmas_hold_on_the_referee(self, refereed):
        # lemma 1: no edge-junction dwheel of a flag complex lies in a
        # 1-ball.  Lemma 2: the mirror of an identified dwheel (the same
        # two wheels, read from its first rim vertex a) is in the list, on
        # the same vertex set, and before it exactly when a < w.  The
        # random_flag draws add edge junctions and located dwheels.
        draws = [gen("random_flag", 10, 0.5, seed) for seed in range(10)]
        inputs = refereed + [(X, 8, naive_sorted_dwheels(X, 8)) for X in draws]
        counts = Counter()
        for X, _, ref in inputs:
            if naive_flag_witness(X) is not None:
                continue
            position = {dw: i for i, dw in enumerate(ref)}
            for i, dw in enumerate(ref):
                center = in_one_ball(X, dw.vertex_set)
                counts[dw.junction, center is not None] += 1
                if dw.junction == "edge":
                    assert center is None, (X.name, dw)
                    continue
                a, w = dw.rim1[0], dw.shared
                mirror = curvature.DWheel(dw.apexes, a, (w,) + dw.rim1[:0:-1],
                                          (w,) + dw.rim2[:0:-1], "identified")
                assert mirror in position, (X.name, dw)
                assert mirror.vertex_set == dw.vertex_set
                assert in_one_ball(X, mirror.vertex_set) == center
                assert (position[mirror] < i) == (a < w), (X.name, dw)
        # edge junctions, and identified dwheels both located and not (the
        # octahedron's 24 are not)
        assert counts == {("edge", False): 43, ("identified", False): 1144,
                          ("identified", True): 22}, counts

    @staticmethod
    def located_then_unlocated():
        """A flag complex whose first unlocated dwheel, at m = 7, follows
        located dwheels of its apex pair and of an earlier one: the cone
        over a (5, 5)-dwheel at apexes 0, 1, and at apexes 10, 11 the cone
        over a (6, 5)-dwheel (shared vertex 22) glued along the edge 10 11
        to a bare (6, 5)-dwheel (shared vertex 32)."""
        def renamed(Y, shift):
            return [tuple({0: 10, 1: 11}.get(v, v + shift) for v in s)
                    for s in Y.maximal_simplices()]

        return build_complex(cone(dwheel_complex(5, 5, "identified")[0]).maximal_simplices()
                             + renamed(cone(dwheel_complex(6, 5, "identified")[0]), 20)
                             + renamed(dwheel_complex(6, 5, "identified")[0], 30))

    def test_corner_join_against_the_referee(self, refereed):
        # the join, called directly so that surfaces take it too, against
        # the referee's sorted dwheels tried one by one with in_one_ball:
        # the verdict, the dwheel count, the witness and the types of the
        # groups (same bucket, apexes and shared vertex) located before it
        # returned.  The cones over one identified dwheel of each allowed
        # type are located with dwheels present.
        cones = [cone(dwheel_complex(k, l, "identified")[0])
                 for k, l in ((5, 5), (6, 5), (6, 6), (7, 5))]
        pinned = self.located_then_unlocated()
        inputs = refereed + [(X, 8, naive_sorted_dwheels(X, 8)) for X in cones + [pinned]]
        outcomes, pinned_at = set(), {}

        def group(d):
            return d.boundary_length, d.type, d.apexes, d.shared

        for X, top, ref in inputs:
            if naive_flag_witness(X) is not None:
                continue
            for m in range(6, top + 1):
                mine = [d for d in ref if d.boundary_length <= m]
                failure = next((i for i, d in enumerate(mine)
                                if in_one_ball(X, d.vertex_set) is None), None)
                located = mine if failure is None else [
                    d for d in mine[:failure] if group(d) != group(mine[failure])]
                verdict, types = curvature._locate_by_join(
                    X, m, curvature._wheels_by_length(X, m, curvature._link_reads(X)))
                assert verdict.to_json() == naive_is_m_located(X, m, ref).to_json(), (X.name, m)
                assert types == {d.type for d in located}, (X.name, m)
                if failure is None:
                    assert verdict.passed and verdict.stats["dwheels"] == len(mine), (X.name, m)
                    outcomes.add("pass" if mine else "vacuous")
                    continue
                dw = mine[failure]
                assert verdict.witness["dwheel"] == dw.to_json(), (X.name, m)
                assert verdict.stats["dwheels"] == failure + 1, (X.name, m)
                # located dwheels of its bucket's apex pair, and of other ones
                same = {group(d)[:3] for d in mine[:failure]} & {group(dw)[:3]}
                earlier = {d.apexes for d in mine[:failure]} - {dw.apexes}
                outcomes.add((dw.junction, bool(same), bool(earlier)))
                if X is pinned:
                    pinned_at[m] = (failure + 1, dw.shared, types)
        assert {"pass", "vacuous", ("edge", False, False), ("identified", False, False),
                ("identified", False, True), ("identified", True, False),
                ("identified", True, True)} <= outcomes, outcomes
        # the pinned case: two located dwheels at apexes (0, 1), two located
        # ones at (10, 11) with shared vertices 22 and 23, then the failure
        # at (10, 11) with shared vertex 32; its bucket's type is located
        # through the group of 22 only
        assert pinned_at == {m: (5, 32, {(5, 5), (6, 5)}) for m in (7, 8)}

    @staticmethod
    def failure_kinds(ref, i):
        """Where the unlocated dwheel ``ref[i]`` sits in the stream: the
        dwheel before it in its bucket, if any, was located."""
        dw, kinds = ref[i], set()
        if dw.junction == "edge":
            kinds.add("edge junction")
        prev = ref[i - 1] if i else None
        if prev and (prev.boundary_length, prev.type) == (dw.boundary_length, dw.type):
            kinds.add("mid-bucket")
            if (prev.apexes, prev.shared) == (dw.apexes, dw.shared):
                kinds.add("after a located dwheel of its group")
        return kinds


def cycle_link_degrees(X):
    """The degree of each vertex whose link is one cycle of 4 or more
    vertices through all its neighbours, when every other vertex link is a
    union of paths; else None (the closed form of m-location does not
    apply)."""
    degrees = {}
    for v in X.vertices:
        shape = link_shape(X, v)
        if shape is None or any(shape) and shape != (max(4, X.degree(v)),):
            return None
        if any(shape):
            degrees[v] = X.degree(v)
    return degrees


class TestLocatedAndLarge:
    """``located_and_large`` reads each link once and, on a flag complex that
    the degree sums do not decide, takes largeness off the join's wheels:
    the verdicts of the two checks called alone, with the work of one."""

    @staticmethod
    def corpus(tmp_path, icosa, disk37, surf37):
        from test_golden import write_inputs
        from combcurv.formats import load_path

        # the 600-cell, the slowest golden input, runs in test_600_cell
        inputs = [load_path(p).complex for name, p in sorted(write_inputs(tmp_path).items())
                  if name != "cell600"]
        inputs += [cone(dwheel_complex(k, l, "identified")[0])
                   for k, l in ((5, 5), (6, 5), (6, 6), (7, 5))]
        inputs += [dwheel_complex(*shape)[0] for shape in TestDWheelStream.SHAPES]
        inputs += [icosa, disk37, surf37] + several_cycle_inputs()
        rng = random.Random(4242)
        for seed in range(36):
            X = gen("random_flag", rng.randint(9, 14), rng.choice((0.3, 0.4, 0.5)), seed)
            inputs.append(less_some(X, 2, rng) if seed % 3 == 0 else X)
        return inputs

    def test_same_verdicts_as_each_check_alone(self, tmp_path, icosa, disk37, surf37):
        # k - 1 > m occurs (k = 8, 9 at m = 6), so largeness reads lengths past m
        seen = set()
        for X in self.corpus(tmp_path, icosa, disk37, surf37):
            large = {k: is_locally_k_large(X, k).to_json() for k in range(4, 10)}
            located = {m: is_m_located(X, m).to_json() for m in range(6, 10)}
            for k in range(4, 10):
                for m in range(6, 10):
                    got = [v.to_json() for v in curvature.located_and_large(X, m, k)[:2]]
                    assert got == [located[m], large[k]], (X.name, m, k)
                    seen.add((got[0]["status"], got[1]["status"],
                              (got[1]["witness"] or {}).get("kind")))
        # passes and failures of both, and each largeness witness kind
        assert {("pass", "pass", None), ("fail", "fail", "cycle_in_link"),
                ("fail", "fail", "clique_in_link"), ("pass", "fail", "cycle_in_link"),
                ("fail", "pass", None)} <= seen, seen

    def test_600_cell(self):
        # every k at m = 8, and k - 1 > m at m = 6, where 8-location passes
        # over 7 200 dwheels and the join fails at the next one
        X = gen("cell600")
        large = {k: is_locally_k_large(X, k).to_json() for k in range(4, 10)}
        located = {m: is_m_located(X, m).to_json() for m in (6, 8)}
        assert located[8] == CELL600_M8 and located[6]["stats"]["dwheels"] == 7200
        for m, k in [(8, k) for k in range(4, 10)] + [(6, 5), (6, 9)]:
            got = [v.to_json() for v in curvature.located_and_large(X, m, k)[:2]]
            assert got == [located[m], large[k]], (m, k)

    def test_one_link_read_and_one_search_per_vertex(self, tmp_path, monkeypatch, capsys):
        from combcurv import cli
        from combcurv.formats import dump_path

        # the 600-cell's links are icosahedra: flag, not read off degree
        # sums, and closed at rim lengths 4 and 5 in one call each; the
        # checks called alone read 241 links, search 120 for cliques and
        # close 240.  Each newly loaded complex is tested for flagness
        # once; the generated one carries its flagness from its clique
        # completion.
        spied = [(name, counted(monkeypatch, owner, name)) for owner, name in (
            (curvature, "empty_clique"), (complexes, "flag_witness"),
            (SimplicialComplex, "link_masks"), (curvature, "chordless_cycles"))]

        def calls():
            # the calls by name since the last count
            counts = Counter(name for name, seen in spied for _ in seen)
            for _name, seen in spied:
                seen.clear()
            return counts

        X = gen("cell600")
        path = tmp_path / "cell600.cplx"
        dump_path(X, path)
        expected = Counter(link_masks=120, chordless_cycles=120, flag_witness=1)
        curvature.located_and_large(X, 8, 5)
        # rim lengths 4 and 5 come by one pair closure per link, and no
        # other length is closed, as the join fails before drawing 6
        lengths = Counter(args[1:] for args in spied[-1][1])
        assert lengths == {(4, 5): 120}, lengths
        assert calls() == expected - Counter(flag_witness=1)
        assert cli.main(["check", "--k", "5", "--m", "8", str(path)]) == 1
        assert calls() == expected
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "[pass] is_locally_k_large"
        # with --flag the kernel reads the printed flag test
        assert cli.main(["check", "--flag", "--k", "5", "--m", "8", str(path)]) == 1
        assert calls() == expected
        assert capsys.readouterr().out == "[pass] is_flag\n" + out

    def test_a_bad_k_is_reported_before_a_bad_m(self, icosa, monkeypatch):
        # and both before any link is read
        reads = []
        monkeypatch.setattr(SimplicialComplex, "link_masks", lambda X, v: reads.append(v))
        with pytest.raises(ValueError, match="largeness starts at k = 4"):
            curvature.located_and_large(icosa, 5, 3)
        with pytest.raises(ValueError, match="location starts at m = 6"):
            curvature.located_and_large(icosa, 5, 4)
        assert reads == []

    def test_a_complex_that_is_not_flag_fails_location(self):
        # the hollow triangle 0 1 2 at vertex 3 fails 8-location in the
        # kernel as in is_m_located: each tests flagness itself
        X = build_complex(HOLLOW_AND_WHEEL)
        located, large = curvature.located_and_large(X, 8, 5)[:2]
        assert (located, large) == (is_m_located(X, 8), is_locally_k_large(X, 5))
        assert not located.passed
        assert located.witness == {"kind": "empty_clique", "vertices": [0, 1, 2]}


# a hollow triangle 0 1 2 coned from 3, and a 4-wheel at 3: not flag
HOLLOW_AND_WHEEL = [(0, 1, 3), (0, 2, 3), (1, 2, 3), (3, 4, 5), (3, 5, 6), (3, 6, 7), (3, 7, 4)]


class TestFlagnessOncePerComplex:
    """``is_flag`` keeps the witness of its first call on a complex, so each
    check that needs flagness tests it itself, and each complex object is
    tested once, whichever check comes first."""

    @staticmethod
    def once_each(calls, *expected):
        # each complex tested has one flagness computation, and the
        # expected complexes are among them
        tested = Counter(id(X) for X, in calls)
        return set(tested.values()) == {1} and {id(X) for X in expected} <= tested.keys()

    def test_the_checks_in_turn(self, monkeypatch):
        calls = counted(monkeypatch, complexes, "flag_witness")
        for X in (gen("icosahedron"), build_complex(HOLLOW_AND_WHEEL)):
            del calls[:]
            is_flag(X)
            is_m_located(X, 8)
            curvature.located_and_large(X, 8, 5)
            assert calls == [(X,)], X

    def test_covering_preservation_and_a_warned_build(self, monkeypatch):
        # a stage ball carries its flagness from its clique completion, so
        # only the target is tested, by the entry check
        calls = counted(monkeypatch, complexes, "flag_witness")
        c4 = gen("c_n", 4)
        state = build_cover(c4, 0, 4).state
        assert check_covering_preservation(state.sheet_map, state.ball, c4, 8, 5).passed
        assert calls == [(c4,)], calls
        # a build whose (Q) warns reads the hypotheses on its base, which
        # the entry check has tested for flagness already
        del calls[:]
        X = gen("random_flag", 13, 0.35, 4)
        assert build_cover(X, 0, 4).state.warnings
        assert calls == [], calls

    def test_check_flag_k_m_on_the_600_cell(self, tmp_path, capsys, monkeypatch):
        from combcurv import cli
        from combcurv.formats import dump_path

        path = tmp_path / "cell600.cplx"
        dump_path(gen("cell600"), path)
        calls = counted(monkeypatch, complexes, "flag_witness")
        assert cli.main(["check", "--flag", "--k", "5", "--m", "8", str(path)]) == 1
        assert capsys.readouterr().out.startswith("[pass] is_flag\n")
        assert len(calls) == 1


class TestLocateByDegrees:
    """On a flag complex whose vertex links are paths or whole cycles,
    m-location is read off degree sums; the join referees it."""

    @staticmethod
    def named(disk37, surf37):
        yield from (gen("geodesic_sphere", k) for k in range(1, 6))
        yield gen("icosahedron")
        yield gen("octahedron")
        yield from (gen("tri_torus", n, n) for n in (4, 6, 8, 12))
        yield disk37
        yield surf37

    @staticmethod
    def flipped(gs3, disk37, surf37):
        for X in (surf37, gs3, gen("tri_torus", 7, 8), disk37):
            for seed in range(6):
                for flips in (1, 3, 8):
                    yield flip_surface(X, flips, seed)

    @staticmethod
    def join_only():
        # a pinched surface: two disks sharing vertex 0, whose link is a
        # 4-cycle and a 5-cycle
        yield two_cycles_cone()
        # the edge 1-2 on three triangles: vertex 2 has degree 3 in Lk(1)
        yield build_complex([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1), (1, 2, 5), (1, 2, 6)])
        # a cycle link plus a dangling edge: Lk(0) is a 4-cycle and vertex 5
        yield build_complex([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1), (0, 5)])
        # a triangle component: the link of each vertex of a tetrahedron
        yield gen("tetrahedron")
        for k, l in ((5, 5), (7, 5)):
            yield cone(dwheel_complex(k, l, "identified")[0])
        yield gen("cell600")
        yield gen("random_flag", 12, 0.35, 7)

    def test_same_verdict_as_the_join(self, gs3, disk37, surf37):
        outcomes, failing_m, bounded, witnesses = set(), set(), set(), {}
        for X in chain(self.named(disk37, surf37), self.flipped(gs3, disk37, surf37)):
            degrees = cycle_link_degrees(X)
            assert degrees is not None, X.name
            least = min((degrees[u] + degrees[v] for u, v in X.simplices(1)
                         if u in degrees and v in degrees), default=None)
            boundary = len(degrees) < len(X.vertices)
            reads = list(curvature._link_reads(X))
            for m in range(6, 11):
                verdict, _, types = curvature.located_and_large(X, m, 4)
                assert curvature._locate_by_degrees(X, m, reads) is not None, X.name
                join, join_types = curvature._locate_by_join(
                    X, m, curvature._wheels_by_length(X, m, reads))
                assert (verdict.to_json(), types) == (join.to_json(), join_types), (X.name, m)
                if verdict.passed:
                    assert least is None or least > m + 4, (X.name, m)
                    assert verdict.stats["dwheels"] == 0
                    if least == m + 5:
                        outcomes.add("pass at m + 5")
                else:
                    assert least <= m + 4 and verdict.stats["dwheels"] == 1, (X.name, m)
                    failing_m.add(m)
                    witnesses[X.name, json.dumps(verdict.witness["dwheel"])] = X
                if boundary:
                    bounded.add(verdict.status)
        # each witness is a dwheel to naive_dwheels, on the span of the two
        # apexes' closed neighbourhoods, and lies in no 1-ball of X
        for (_, doc), X in witnesses.items():
            dw = json.loads(doc)
            (v0, v0p), rim1, rim2 = dw["apexes"], *dw["rims"]
            key = ((v0, v0p), dw["shared"], tuple(rim1), tuple(rim2), dw["junction"])
            near = X.span(X.neighbors(v0) | X.neighbors(v0p) | {v0, v0p})
            assert key in naive_dwheels(near, dw["boundary_length"]), (X.name, dw)
            assert in_one_ball(X, set(rim1) | set(rim2) | {v0, v0p, dw["shared"]}) is None
        assert outcomes == {"pass at m + 5"}
        assert failing_m == set(range(6, 11))
        assert bounded == {"pass", "fail"}

    def test_a_large_least_degree_passes_with_no_edge_scan(self):
        # every vertex of a triangulated torus has degree 6, so no edge sum
        # is below 12: at m = 6 and 7 (12 > m + 4) the verdict passes with
        # no scan of the edges; at m = 8 the scan runs and finds the failure
        X = gen("tri_torus", 6, 6)
        reads = list(curvature._link_reads(X))
        for m, scanned, status in ((6, False, "pass"), (7, False, "pass"), (8, True, "fail")):
            with line_spy(curvature._locate_by_degrees, "least = min(", ()) as seen:
                verdict = curvature._locate_by_degrees(X, m, reads)
            assert (bool(seen), verdict.status) == (scanned, status), m

    def test_other_complexes_take_the_join(self, gs3, disk37, surf37, monkeypatch):
        joins = counted(monkeypatch, curvature, "_apex_pairs")
        draws = counted(monkeypatch, curvature, "_wheels_by_length")
        for X in self.join_only():
            assert is_flag(X).passed and cycle_link_degrees(X) is None, X.name
            joins.clear()
            is_m_located(X, 8)
            assert len(joins) == 1, X.name
        for X in chain(self.named(disk37, surf37), self.flipped(gs3, disk37, surf37)):
            joins.clear()
            draws.clear()
            is_m_located(X, 8)
            assert joins == draws == [], X.name


class TestInOneBall:
    def test_triangle_vertices(self, triangle):
        assert in_one_ball(triangle, [0, 1, 2]) is not None

    def test_icosahedron_dwheel_does_not_fit(self, icosa):
        dw = dwheels(icosa, 8)[0]
        assert len(dw.vertex_set) == 8
        assert in_one_ball(icosa, dw.vertex_set) is None

    def test_wheel_fits_at_its_center(self, icosa):
        for w in wheels(icosa, 5, 5)[:3]:
            assert in_one_ball(icosa, w.vertex_set) == w.center

    def test_exhaustive_centre_scan_agrees(self, octa, icosa):
        # the smallest centre, against trying every vertex in order
        inputs = [(X, d.vertex_set) for X in (octa, icosa) for d in dwheels(X, 8)]
        rng = random.Random(1973)
        for seed in range(40):
            X = gen("random_flag", rng.randint(5, 14), rng.choice((0.3, 0.5, 0.7)), seed)
            for size in (1, 1, 2, 2, 3, 4, 5):
                inputs.append((X, rng.sample(X.vertices, min(size, len(X.vertices)))))
        located = 0
        for X, vs in inputs:
            brute = next((y for y in X.vertices if all(a == y or X.adjacent(a, y) for a in vs)),
                         None)
            assert in_one_ball(X, vs) == brute, (X.name, vs)
            located += brute is not None
        # both outcomes occur
        assert 0 < located < len(inputs)

    def test_empty_set_rejected(self, octa):
        with pytest.raises(ValueError):
            in_one_ball(octa, [])


class TestMLocation:
    def test_tetrahedron_vacuously_8_located(self, tetra):
        verdict = is_m_located(tetra, 8)
        assert verdict.passed
        assert verdict.stats["dwheels"] == 0

    def test_icosahedron_fails_with_5_5_witness(self, icosa):
        verdict = is_m_located(icosa, 8)
        assert not verdict.passed
        dw = verdict.witness["dwheel"]
        assert tuple(dw["type"]) == (5, 5)
        assert dw["boundary_length"] == 6
        assert verdict.witness["candidates_tried"]

    def test_torus_7_located_not_8(self, torus66):
        assert is_m_located(torus66, 7).passed
        verdict = is_m_located(torus66, 8)
        assert not verdict.passed
        assert tuple(verdict.witness["dwheel"]["type"]) == (6, 6)

    def test_torus_family(self):
        for (m, n) in ((4, 4), (4, 5), (5, 6)):
            X = gen("tri_torus", m, n)
            assert is_m_located(X, 7).passed, (m, n)
            assert not is_m_located(X, 8).passed, (m, n)

    def test_non_flag_fails(self, bd4):
        verdict = is_m_located(bd4, 8)
        assert not verdict.passed
        assert verdict.witness["vertices"] == [0, 1, 2, 3, 4]

    def test_monotonicity(self, icosa, torus66, disk37):
        for X in (icosa, torus66, disk37):
            statuses = [is_m_located(X, m).passed for m in range(6, 10)]
            # a pass at m implies a pass at every smaller m
            assert statuses == sorted(statuses, reverse=True)

    def test_m_range_validated(self, icosa):
        with pytest.raises(ValueError):
            is_m_located(icosa, 5)

    def test_600_cell_chord_checks_only_the_5_rims(self, monkeypatch):
        # the join fails inside the (5,5) buckets, so only the 1 440 link
        # 5-cycles are built, not all 6 240 rims up to 8; X is flag, so a
        # link-chordless rim is chordless in X and none is chord-checked.
        # The rims grow on link graphs, so no link complex is built either.
        X = gen("cell600")
        checked = counted(monkeypatch, curvature, "chords")
        built = complexes_built(monkeypatch)
        assert is_m_located(X, 8).to_json() == CELL600_M8
        assert len(checked) == 0 and built == [], checked

    def test_vacuity_on_locally_7_large(self, disk37, surf37):
        for X in (disk37, surf37):
            verdict = is_m_located(X, 8)
            assert verdict.passed
            assert verdict.stats["dwheels"] == 0


class TestCoveringPreservation:
    def test_identity_on_icosahedron(self, icosa):
        assert check_covering_preservation(tuple(range(12)), icosa, icosa, 8, 5).passed

    def test_c4_line_cover(self, c4):
        report = build_cover(c4, 0, 4)
        verdict = check_covering_preservation(
            report.state.sheet_map, report.state.ball, c4, 8, 5)
        assert verdict.passed

    def test_collapsing_map_rejected(self, icosa):
        with pytest.raises(NotACovering):
            check_covering_preservation((0,) * 12, icosa, icosa, 8, 5)

    def test_a_bad_k_then_a_bad_m_before_any_work(self, icosa, monkeypatch):
        # the map collapses the icosahedron, yet the arguments are read
        # first, k before m, as located_and_large reads them; no complex is
        # tested for flagness
        calls, real = [], curvature.is_flag
        monkeypatch.setattr(curvature, "is_flag", lambda X: calls.append(X) or real(X))
        collapse = (0,) * 12
        for m, k, error in ((5, 5, "location starts at m = 6"),
                            (8, 3, "largeness starts at k = 4"),
                            (5, 3, "largeness starts at k = 4")):
            with pytest.raises(ValueError, match=error):
                check_covering_preservation(collapse, icosa, icosa, m, k)
        assert calls == []

    def test_missing_image_edge_rejected(self, triangle):
        # a wedge of two edges maps onto the triangle, but the image span
        # has the third edge with no preimage inside the 1-ball of the apex
        sub = build_complex([[0, 1], [0, 2]])
        with pytest.raises(NotACovering) as err:
            check_covering_preservation((0, 1, 2), sub, triangle, 8, 5)
        assert err.value.vertex == 0

    def test_short_vertex_map_is_a_value_error(self, triangle):
        # the map names no image for vertex 2: an input error, not a verdict
        for call in (lambda: check_covering_map((0, 1), triangle, triangle),
                     lambda: check_covering_preservation((0, 1), triangle, triangle, 8, 5)):
            with pytest.raises(ValueError, match="cover vertex 2 has no image"):
                call()

    def test_a_cover_that_loses_a_property_fails(self, surf37, monkeypatch):
        # the surf37 cover ball and its base are 8-located and locally
        # 5-large; each property in turn is patched to fail on the ball only
        state = build_cover(surf37, 0, 3).state
        args = state.sheet_map, state.ball, surf37, 8, 5
        assert check_covering_preservation(*args).passed
        real = curvature.located_and_large
        # the kernel returns (location, largeness, types); each verdict in
        # turn fails on the ball
        for which, what in ((0, "8-located"), (1, "locally 5-large")):
            witness = {"kind": "patched", "check": what}
            detail = f"base is {what} but the cover is not"

            def on_ball_only(X, m, k, _which=which, _witness=witness):
                got = list(real(X, m, k))
                if X is state.ball:
                    got[_which] = failed(got[_which].check, _witness)
                return tuple(got)

            monkeypatch.setattr(curvature, "located_and_large", on_ball_only)
            verdict = check_covering_preservation(*args)
            assert not verdict.passed and verdict.detail == detail and verdict.witness == witness

    def test_one_kernel_call_per_complex(self, surf37, monkeypatch):
        # location and largeness of each complex come from one
        # located_and_large call, which reads each of its links once
        state = build_cover(surf37, 0, 3).state
        calls, reads, real = [], [], curvature.located_and_large
        monkeypatch.setattr(curvature, "located_and_large",
                            lambda X, *args: calls.append(X) or real(X, *args))
        for name in ("is_m_located", "is_locally_k_large"):
            monkeypatch.setattr(curvature, name, lambda *args, _name=name: pytest.fail(_name))
        link_masks = SimplicialComplex.link_masks
        monkeypatch.setattr(SimplicialComplex, "link_masks",
                            lambda X, v: reads.append(X) or link_masks(X, v))
        assert check_covering_preservation(state.sheet_map, state.ball, surf37, 8, 5).passed
        assert calls == [surf37, state.ball]
        assert Counter(map(id, reads)) == {id(surf37): surf37.vertex_count,
                                           id(state.ball): state.ball.vertex_count}

    def test_one_flag_test_per_complex(self, monkeypatch):
        # the covering check and both location verdicts share the flag
        # tests, on two newly built icosahedra
        calls = counted(monkeypatch, complexes, "flag_witness")
        cover, base = gen("icosahedron"), gen("icosahedron")
        assert check_covering_preservation(tuple(range(12)), cover, base, 8, 5).passed
        assert len(calls) == 2

    def test_full_subcomplex_inclusion_is_a_weak_covering(self, octa):
        # the equator is a full subcomplex, so its inclusion does satisfy
        # the span condition; both implications are vacuous here
        sub = build_complex([[1, 2], [2, 3], [3, 4], [4, 1]])
        assert check_covering_preservation((0, 1, 2, 3, 4), sub, octa, 8, 5).passed


def covering_outcome(check, f, cover, base, full_at):
    try:
        check(f, cover, base, full_at=full_at)
    except NotACovering as exc:
        return exc.vertex, exc.reason
    return None


class TestCoveringMapOracle:
    """``check_covering_map`` reads span face sets without building span
    complexes, and only their edges when both complexes are flag; the
    span-building referee must fail on the same vertex with the same
    reason, or pass with it."""

    RANDOM_FLAG = ((13, 0.35, 7), (15, 0.35, 11), (15, 0.35, 12), (12, 0.4, 3), (14, 0.3, 5))

    def cases(self, icosa, octa, torus66, disk37, surf37):
        rng = random.Random(2013)
        bases = [icosa, octa, torus66, disk37, surf37] + [gen("random_flag", *p) for p in self.RANDOM_FLAG]
        for X in bases:
            identity = tuple(range(X.vertex_count))
            yield identity, X, X, X.vertices
            for _ in range(6):
                a, b = rng.sample(X.vertices, 2)
                collapsed = list(identity)
                collapsed[a] = b
                yield tuple(collapsed), X, X, X.vertices
                swapped = list(identity)
                swapped[a], swapped[b] = b, a
                yield tuple(swapped), X, X, None
        # the icosahedron into a relabelled copy without the id 3, with
        # vertex 0 sent to that missing id
        relabel = [v + (v >= 3) for v in range(icosa.vertex_count)]
        yield (3, *relabel[1:]), icosa, build_complex([relabel[u] for u in t]
                                                      for t in icosa.simplices(2)), None
        for p in self.RANDOM_FLAG:
            X = gen("random_flag", *p)
            for r in (2, 3, 4):
                state = build_cover(X, 0, r).state
                yield state.sheet_map, state.ball, X, state.interior_ids()
        # the 600-cell's radius-4 ball, whose first failing 1-ball has three
        # image edges with no preimage: the least is named
        state = build_cover(gen("cell600"), 0, 4).state
        yield state.sheet_map, state.ball, state.target, state.interior_ids()
        # non-flag pairs: a soup and a copy less some triangles, each the
        # cover of the other, so every dimension is compared
        for A in simplex_soups(rng, 60):
            B = less_some(A, 2, rng, share=1 / 3)
            identity = tuple(range(A.vertex_count))
            a, b = rng.sample(A.vertices, 2)
            swapped = list(identity)
            swapped[a], swapped[b] = b, a
            for f in (identity, tuple(swapped)):
                yield f, A, B, A.vertices
                yield f, B, A, None
        # ids up to 63 collide in small hash tables, where the layout of the
        # image set decides the span order and so which offender comes first
        wide = random.Random(5)
        for _ in range(900):
            ids = wide.sample(range(64), wide.randint(8, 20))
            A = build_complex(wide.sample(ids, wide.randint(2, 4))
                              for _ in range(wide.randint(10, 40)))
            B = less_some(A, 2, wide, share=1 / 2)
            identity = tuple(range(A.vertex_count))
            yield identity, A, B, None
            yield identity, B, A, None

    def test_same_first_offender(self, icosa, octa, torus66, disk37, surf37):
        reasons = []
        for f, cover, base, full_at in self.cases(icosa, octa, torus66, disk37, surf37):
            got = covering_outcome(check_covering_map, f, cover, base, full_at)
            assert got == covering_outcome(naive_check_covering_map, f, cover, base, full_at)
            reasons.append(got[1] if got else "pass")
        # every outcome is exercised, including the order-sensitive failures
        for kind in ("pass", "is not a vertex of the base", "collides", "maps to a non-simplex",
                     "has no preimage", "does not cover the full 1-ball"):
            assert any(kind in r for r in reasons), kind
        # and on non-flag pairs a triangle or tetrahedron is the first
        # offender both ways: "simplex (a, b, c) ..." has two commas
        for kind in ("maps to a non-simplex", "has no preimage"):
            assert any(kind in r and r.count(",") >= 2 for r in reasons), kind

    def test_flag_cover_ball_compares_only_edges(self, icosa, octa, torus66, disk37, surf37,
                                                  monkeypatch):
        # a flag 1-ball whose edges match both ways is decided by counting
        # edges: one neighbour set per 1-ball on the cover and none on the
        # base, whose degrees tell fullness; only a failing one builds span
        # complexes and compares their faces, and only edges
        state = build_cover(surf37, 0, 5).state
        for f, cover, base, full_at in self.cases(icosa, octa, torus66, disk37, surf37):
            got = covering_outcome(check_covering_map, f, cover, base, full_at)
            if got and "simplex" in got[1] and is_flag(cover).passed and is_flag(base).passed:
                break
        spans, sizes = [], []  # each span built, the size of each simplex looked up
        span, has_simplex = SimplicialComplex.span, SimplicialComplex.has_simplex

        def spanning(self, vertex_set):
            spans.append(span(self, vertex_set))
            return spans[-1]

        def looking_up(self, vertices):
            vertices = tuple(vertices)
            sizes.append(len(vertices))
            return has_simplex(self, vertices)

        monkeypatch.setattr(SimplicialComplex, "span", spanning)
        monkeypatch.setattr(SimplicialComplex, "has_simplex", looking_up)
        neighbors = SimplicialComplex.neighbors
        calls = counted(monkeypatch, SimplicialComplex, "neighbors")
        check_covering_map(state.sheet_map, state.ball, surf37, full_at=state.interior_ids())
        monkeypatch.setattr(SimplicialComplex, "neighbors", neighbors)
        reads = Counter(id(args[0]) for args in calls)
        n = len(state.ball.vertices)
        assert n == 617 and reads == Counter({id(state.ball): n}), reads
        assert state.ball.simplices(2) and spans == [] and sizes == []
        assert covering_outcome(check_covering_map, f, cover, base, full_at) == got
        # the failing ball has triangles, but no simplex of more than two
        # vertices is compared
        assert any(Y.simplices(2) for Y in spans) and set(sizes) == {2}

    def test_one_edge_off_the_base_counts_no_ball(self, surf37, monkeypatch):
        """The edge-image precondition is read once per call: a map that
        sends one edge to a non-edge counts no 1-ball, so the scan reads the
        1-ball of every vertex up to the referee's offender.  Every builder
        stage ball meets it, and there the count is exact: only the 1-ball
        that raises can be scanned."""
        real = SimplicialComplex.span
        reads = []  # (complex, vertex set) of each span built

        def recording(self, vertex_set):
            reads.append((self, frozenset(vertex_set)))
            return real(self, vertex_set)

        monkeypatch.setattr(SimplicialComplex, "span", recording)
        f = tuple(range(surf37.vertex_count))
        for a, b in (min(surf37.simplices(1)), max(surf37.simplices(1))):
            # surf37 less one edge and its two triangles is still flag: its
            # cliques are those of surf37 that miss the edge
            base = build_complex(t for t in surf37.simplices(2) if not (a in t and b in t))
            assert is_flag(base).passed and len(surf37.simplices(1)) == len(base.simplices(1)) + 1
            del reads[:]
            got = covering_outcome(check_covering_map, f, surf37, base, surf37.vertices)
            balls = [vs for X, vs in reads if X is surf37]
            assert got and got == covering_outcome(naive_check_covering_map, f, surf37, base,
                                                   surf37.vertices)
            assert balls == [frozenset({v}) | surf37.neighbors(v)
                             for v in surf37.vertices if v <= got[0]]
        assert len(balls) > 1  # the second edge's offender is not the least vertex
        runs = [(surf37, 5)] + [(gen("random_flag", *p), 4) for p in self.RANDOM_FLAG[:3]]
        outcomes = set()
        for X, radius in runs:
            state = _base_state(X, 0)
            while state.stage < radius:
                state = expand_ball(state)
                ball = state.ball
                del reads[:]
                got = covering_outcome(check_covering_map, state.sheet_map, ball, X,
                                       state.interior_ids())
                scanned = sum(Y is ball for Y, _ in reads)
                assert scanned < len(ball.vertices)
                # a collision raises before its 1-ball's span is read
                assert scanned == (0 if got is None or "collides" in got[1] else 1), got
                outcomes.add((got is not None, scanned))
        assert outcomes == {(False, 0), (True, 0), (True, 1)}

    def test_count_path_referees(self):
        """1-balls the edge count does not pass: each is named as the
        span-building referee names it."""
        # f = id is injective on N[0] = {0, 1, 2, 3}, and N(0) holds one edge
        # on each side, but the cover edge (1, 2) is no base edge and the
        # base edge (2, 3) has no preimage: equal counts, so only the
        # edge-image precheck sends this 1-ball to the scan
        wrong_edge = (build_complex([[0, 1, 2], [0, 3]]), build_complex([[0, 2, 3], [0, 1]]), None)
        # every edge maps to an edge and every 1-ball to its image span, but
        # the 1-ball of 0 misses 3 and 4 of the base 1-ball of 0
        not_full = (build_complex([[0, 1, 2]]), build_complex([[0, 1, 2], [0, 2, 3], [0, 3, 4]]),
                    [0])
        for (cover, base, full_at), expected in (
                (wrong_edge, (0, "simplex (1, 2) maps to a non-simplex")),
                (not_full, (0, "1-ball does not cover the full 1-ball of the image"))):
            assert is_flag(cover).passed and is_flag(base).passed
            f = tuple(range(cover.vertex_count))
            assert covering_outcome(check_covering_map, f, cover, base, full_at) == expected
            assert covering_outcome(naive_check_covering_map, f, cover, base, full_at) == expected
        # builder balls: every edge maps to an edge, and the 1-balls that
        # fail are not injective or miss an image edge; the first three
        # draws are the ones whose cover reports carry warnings
        reasons = []
        for p in self.RANDOM_FLAG[:3]:
            X = gen("random_flag", *p)
            for r in range(1, 5):
                report = build_cover(X, 0, r)
                state = report.state
                args = state.sheet_map, state.ball, X, state.interior_ids()
                got = covering_outcome(check_covering_map, *args)
                assert got == covering_outcome(naive_check_covering_map, *args)
                assert report.covering.detail == (got[1] if got else "")
                reasons.append(got[1] if got else "pass")
        for kind in ("pass", "collides", "has no preimage"):
            assert any(kind in r for r in reasons), kind
