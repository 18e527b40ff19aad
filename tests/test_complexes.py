"""Core complex construction, spans, links, fullness, flagness, cycles."""

import random
import re
from collections import Counter
from itertools import chain, combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combcurv import build_cover, complexes, cover, curvature
from combcurv.complexes import (
    MAX_DIM,
    SimplicialComplex,
    build_complex,
    canonical_cycle,
    chords,
    empty_clique,
    flag_witness,
    chordless_cycles,
    full_cycles,
    is_flag,
    mask_edges,
)
from combcurv.curvature import is_locally_k_large, is_m_located, wheels
from combcurv.errors import BoundExceeded, DimensionTooHigh, DuplicateVertexInSimplex
from combcurv.formats import dump_path, load_path
from combcurv.generators import flag_completion

from conftest import (
    FIXTURE_DIR,
    bd4_pair,
    counted,
    gen,
    glued_tetrahedra,
    less_some,
    load_degree7_fixture,
    pinched_octahedra,
    tetrahedron_less_face,
)
from oracles import (
    SimplexNotPresent,
    induced_path_cycles,
    is_full,
    naive_flag_witness,
    naive_full_cycles,
    naive_link,
    naive_link_graph,
    naive_maximal_simplices,
    naive_span,
)


class TestBuildComplex:
    def test_single_tetrahedron_closure(self):
        X = build_complex([[0, 1, 2, 3]])
        assert X.counts() == (4, 6, 4, 1)

    def test_c4_has_no_triangles(self):
        X = build_complex([[0, 1], [1, 2], [2, 3], [3, 0]])
        assert X.counts() == (4, 4, 0, 0)

    def test_icosahedron_euler(self, icosa):
        v, e, f, t = icosa.counts()
        assert (v, e, f, t) == (12, 30, 20, 0)
        assert v - e + f == 2

    def test_vertex_count_is_max_id_plus_one(self):
        X = build_complex([[0, 7]])
        assert X.vertex_count == 8
        assert X.vertices == (0, 7)

    def test_oversized_simplex_rejected(self):
        with pytest.raises(DimensionTooHigh):
            build_complex([[0, 1, 2, 3, 4]])

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(DuplicateVertexInSimplex):
            build_complex([[0, 1, 1]])
        # nor is a negative id a vertex
        with pytest.raises(ValueError, match="negative vertex id"):
            build_complex([[-1, 0]])

    def test_downward_closure_invariant(self, gs2):
        for d in (1, 2, 3):
            for s in gs2.simplices(d):
                for k in range(len(s)):
                    assert gs2.has_simplex(s[:k] + s[k + 1:])

    def test_adjacency_matches_one_skeleton(self, octa):
        for (u, v) in octa.simplices(1):
            assert octa.adjacent(u, v) and octa.adjacent(v, u)
        assert not octa.adjacent(0, 5)


class TestLink:
    def test_tetrahedron_vertex_link_is_triangle(self, tetra):
        link, vmap = naive_link(tetra, (0,))
        assert link.counts() == (3, 3, 1, 0)
        assert vmap == [1, 2, 3]

    def test_icosahedron_vertex_link_is_full_5_cycle(self, icosa):
        for v in icosa.vertices:
            link, _ = naive_link(icosa, (v,))
            assert link.counts() == (5, 5, 0, 0)
            assert all(link.degree(u) == 2 for u in range(5))
            assert len(full_cycles(link, 5, 5)) == 1

    def test_bd4_edge_link_is_empty_3_cycle(self, bd4):
        link, vmap = naive_link(bd4, (0, 1))
        assert vmap == [2, 3, 4]
        assert link.counts() == (3, 3, 0, 0)

    def test_missing_simplex_raises(self, c4):
        with pytest.raises(SimplexNotPresent):
            naive_link(c4, (0, 2))

    def test_link_members_rejoin(self, gs2):
        # any link simplex joined with its base is a simplex of the complex
        for sigma in [(0,), (1,), tuple(sorted(next(iter(gs2.simplices(1)))))]:
            link, vmap = naive_link(gs2, sigma)
            for d in range(3):
                for tau in link.simplices(d):
                    joined = tuple(vmap[u] for u in tau) + sigma
                    assert gs2.has_simplex(joined)


class TestIsFull:
    def test_whole_c4_is_full(self, c4):
        assert is_full(c4, [0, 1, 2, 3]).passed

    def test_octahedron_equator_is_full(self, octa):
        assert is_full(octa, [1, 2, 3, 4]).passed

    def test_icosahedron_chord_witnessed(self, icosa):
        # triangle (0, 5, 11) plus 4, a common neighbor of 5 and 11
        verdict = is_full(icosa, [0, 5, 4, 11])
        assert not verdict.passed
        assert verdict.witness["kind"] == "chord"
        u, v = verdict.witness["edge"]
        assert icosa.adjacent(u, v)

    def test_non_cycle_input_fails(self, c4):
        assert not is_full(c4, [0, 2, 1, 3]).passed


class TestIsFlag:
    def test_octahedron_is_flag(self, octa):
        assert is_flag(octa).passed

    def test_bd4_fails_with_k5_witness(self, bd4):
        verdict = is_flag(bd4)
        assert not verdict.passed
        assert verdict.witness["vertices"] == [0, 1, 2, 3, 4]

    def test_c4_is_flag(self, c4):
        assert is_flag(c4).passed

    def test_empty_triangle_witnessed(self):
        X = build_complex([[0, 1], [1, 2], [2, 0]])
        verdict = is_flag(X)
        assert not verdict.passed
        assert verdict.witness["vertices"] == [0, 1, 2]

    @given(n=st.integers(4, 10), p=st.floats(0.1, 0.6), seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_flag_completion_of_k5_free_graph_is_flag(self, n, p, seed):
        X = gen("random_flag", n, p, seed)
        verdict = is_flag(X)
        if verdict.passed:
            return
        # the only permitted failure mode is a true 5-clique in the graph
        vs = verdict.witness["vertices"]
        assert len(vs) == 5
        assert all(X.adjacent(u, v) for u in vs for v in vs if u != v)


CYCLE_CAP = 8


def length_ranges(top):
    """Every length range (lo, hi) with 4 <= lo <= hi <= top."""
    return [(lo, hi) for lo in range(4, top + 1) for hi in range(lo, top + 1)]


def naive_cycles(X, top):
    """``naive_full_cycles`` up to length ``top``, which the induced-path
    DFS must list too, in all and at length ``top`` alone."""
    ref = naive_full_cycles(X, 4, top)
    assert induced_path_cycles(X, 4, top) == ref, X.name
    assert induced_path_cycles(X, top, top) == [c for c in ref if len(c) == top], X.name
    return ref


def refereed_cycles(X, top, ref=None):
    """The chordless cycles of X against ``ref``, one run of
    ``naive_cycles`` up to length ``top`` (made here if not given),
    at every length range up to it: through ``chordless_cycles``, in its
    range form and, for one length, in its one-length form, and through
    ``full_cycles``, at the cap and past it with a raised cap.  Returns
    the referee's cycles."""
    if ref is None:
        ref = naive_cycles(X, top)
    masks = adjacency_masks(X)
    for lo, hi in length_ranges(top):
        want = [c for c in ref if lo <= len(c) <= hi]
        got = chordless_cycles(masks, lo, hi)
        # the referee's cycles are distinct, so none is found twice
        assert sorted(got, key=lambda c: (len(c), c)) == want, (X.name, lo, hi)
        if lo == hi:
            assert chordless_cycles(masks, lo) == got, (X.name, lo)
        mine = [c.vertices for c in full_cycles(X, lo, hi, cap=max(top, CYCLE_CAP))]
        assert mine == want, (X.name, lo, hi)
    return ref


def _two_dim_soup(rng):
    """Random edges and triangles on vertex ids with gaps: mostly not flag."""
    ids = rng.sample(range(24), rng.randint(8, 12))
    return build_complex((rng.sample(ids, rng.choice((2, 3, 3)))
                          for _ in range(rng.randint(6, 14))), name="soup")


def _gapped(X):
    """X on the ids 3v + 2, so that some ids below its largest are absent."""
    return build_complex(([3 * v + 2 for v in s] for s in X.maximal_simplices()),
                         name=f"gapped_{X.name}")


def adjacency_masks(X):
    """The adjacency of X as one bitmask per vertex id, read off ``neighbors``."""
    return [sum(1 << u for u in X.neighbors(v)) for v in range(X.vertex_count)]


def _named_complexes():
    """The small complexes of the shared fixtures and of ``conftest``."""
    return [gen("octahedron"), gen("icosahedron"), gen("boundary_4_simplex"),
            tetrahedron_less_face(), glued_tetrahedra(), pinched_octahedra(),
            bd4_pair(1), bd4_pair(2),
            build_complex(combinations(range(4), 3), name="hollow_tetrahedron")]


def _draws_and_sparse(seed, count, n_max, degree, sizes):
    """One seeded stream: ``count`` dense draws, then ``count`` soups,
    then sparse draws of average degree ``degree`` on ``sizes`` vertices."""
    rng = random.Random(seed)
    draws = [gen("random_flag", rng.randint(6, n_max), rng.choice((0.3, 0.45, 0.6)), i)
             for i in range(count)]
    draws += [_two_dim_soup(rng) for _ in range(count)]
    return draws, [gen("random_flag", n, degree / n, rng.randrange(10**6)) for n in sizes]


DFS_ONLY = "surfaces_to_12"  # the key of the inputs past the naive walk's reach


def skeleton_inputs():
    """The inputs of the 1-skeleton referee tests, each with the longest
    length its test reads: flag or not, with ids that skip values, and
    surfaces, long cycles and sparse draws, whose chordless paths wander
    far from their least vertex.  Keyed by test, and for the window-cut
    test by family."""
    octa, icosa = gen("octahedron"), gen("icosahedron")
    rng = random.Random(1980)
    soups = [_two_dim_soup(rng) for _ in range(40)]
    wide, wide_sparse = _draws_and_sparse(1999, 25, 10, 3, (20, 24, 28, 36, 40))
    short, short_sparse = _draws_and_sparse(4805, 40, 11, 4, range(14, 24))
    rng = random.Random(2026)
    window_draws = [gen("random_flag", n, 3 / n, rng.randrange(10**6))
                    for n in (20, 24, 28, 32, 36, 40)]

    def at(top, inputs):
        return [(X, top) for X in inputs]

    return {
        "corpus": at(7, [gen("c_n", 4), gen("c_n", 5), octa, icosa, gen("tri_torus", 6, 6),
                         gen("tri_torus", 4, 5), gen("geodesic_sphere", 2)]),
        "soups_and_gaps": at(CYCLE_CAP, soups + [_gapped(X) for X in (octa, icosa, gen("c_n", 7),
                                                                      gen("c_n", 8))]),
        "wide_and_long": at(CYCLE_CAP, wide + [gen("c_n", n) for n in range(4, 9)]
                            + _named_complexes())
        + at(10, wide_sparse + [gen("c_n", n) for n in range(9, 13)]
             + [_gapped(gen("c_n", 9)), _gapped(gen("c_n", 10))]),
        "short_chordless": at(CYCLE_CAP, short + [gen("c_n", n) for n in range(3, 10)]
                              + _named_complexes()
                              + [_gapped(X) for X in (octa, icosa, gen("c_n", 5), gen("c_n", 8))])
        + at(10, short_sparse),
        "past_8": at(9, [icosa, gen("c_n", 9), gen("random_flag", 24, 3 / 24, 9)]),
        # on surfaces the referee's paths grow about fivefold per length
        "geodesic_sphere": [(gen("geodesic_sphere", 2), 8), (gen("geodesic_sphere", 3), 7)],
        "tri_torus": [(gen("tri_torus", n, n), 7 if n < 8 else 6) for n in range(6, 11)],
        "c_n": at(9, [gen("c_n", n) for n in range(4, 17)]),
        "random_flag": at(9, window_draws),
        # past the naive walk's reach: refereed by the induced-path DFS alone
        DFS_ONLY: [(gen("tri_torus", 6, 6), 12), (gen("tri_torus", 8, 8), 10),
                   (gen("geodesic_sphere", 2), 11)],
    }


@pytest.fixture(scope="module")
def skeleton_refs():
    """``naive_cycles`` run once per distinct input of
    ``skeleton_inputs()``, to the longest length any test reads it at, and
    ``induced_path_cycles`` alone on the inputs keyed ``DFS_ONLY``.
    Keyed as there: a list of (input, that length, the referee's cycles)."""
    by_test = skeleton_inputs()
    long_runs = [(X, top, induced_path_cycles(X, 4, top)) for X, top in by_test.pop(DFS_ONLY)]
    top = {}
    for X, length in chain.from_iterable(by_test.values()):
        key = tuple(X.maximal_simplices())
        top[key] = max(length, top.get(key, 0))
    runs = {}
    for X, _ in chain.from_iterable(by_test.values()):
        key = tuple(X.maximal_simplices())
        if key not in runs:
            runs[key] = X, top[key], naive_cycles(X, top[key])
    return {test: [runs[tuple(X.maximal_simplices())] for X, _ in inputs]
            for test, inputs in by_test.items()} | {DFS_ONLY: long_runs}


def refereed_lengths(checked):
    """The lengths of the referee's cycles of each (input, top, referee
    run) of ``checked``, each input checked by ``refereed_cycles``."""
    return Counter(len(c) for X, top, ref in checked for c in refereed_cycles(X, top, ref))


class TestFullCycles:
    def test_c4_single_cycle(self, c4):
        out = full_cycles(c4, 4, 4)
        assert [c.vertices for c in out] == [(0, 1, 2, 3)]

    def test_octahedron_equators(self, octa):
        out = full_cycles(octa, 4, 4)
        assert len(out) == 3

    def test_icosahedron_no_full_4_cycles(self, icosa):
        assert full_cycles(icosa, 4, 4) == []

    def test_icosahedron_full_5_cycles_are_links(self, icosa):
        assert len(full_cycles(icosa, 5, 5)) == 12

    def test_bound_exceeded(self, icosa):
        with pytest.raises(BoundExceeded):
            full_cycles(icosa, 4, 9)
        # explicit cap raise is allowed
        full_cycles(icosa, 4, 9, cap=9)

    def test_range_validation(self, c4):
        with pytest.raises(ValueError):
            full_cycles(c4, 3, 4)

    def test_against_naive_oracle_on_corpus(self, skeleton_refs):
        # the referee's cycles at every range up to its longest length
        assert refereed_lengths(skeleton_refs["corpus"])

    @given(n=st.integers(4, 9), p=st.floats(0.2, 0.7), seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_against_naive_oracle_random(self, n, p, seed):
        refereed_cycles(gen("random_flag", n, p, seed), CYCLE_CAP)

    def test_against_naive_oracle_ranges_on_soups_and_gaps(self, skeleton_refs):
        checked = skeleton_refs["soups_and_gaps"]
        assert sum(not is_flag(X).passed for X, _, _ in checked[:40]) >= 30
        assert all(len(X.vertices) < X.vertex_count for X, _, _ in checked[40:])
        # the inputs reach every length of the ranges, so each bound is tested
        assert set(refereed_lengths(checked)) == set(range(4, CYCLE_CAP + 1))

    def test_wide_and_long_ranges_against_the_referee(self, skeleton_refs):
        # one kernel call holds exactly the referee's cycles at every length
        # up to the cap; from length 9 on, past the cap, it does too, alone
        # and through full_cycles with a raised cap
        assert set(refereed_lengths(skeleton_refs["wide_and_long"])) == set(range(4, 11))

    def test_reported_cycles_are_chordless(self, gs2):
        for cyc in full_cycles(gs2, 4, 6):
            assert cyc.to_json()["full"] is True
            assert not chords(gs2, cyc.vertices)
            assert cyc.vertices == canonical_cycle(cyc.vertices)


class TestChordlessCycles:
    """The pair closure of chordless cycles against the referees, at every
    length and every length range: up to 8 vertices on every input, and up
    to 10 on the sparse ones, whose cycles are long."""

    def test_against_naive_full_cycles(self, skeleton_refs):
        # on the 1-skeleton, flag or not, with ids that skip some values
        found = refereed_lengths(skeleton_refs["short_chordless"])
        assert all(found[k] > 50 for k in range(4, CYCLE_CAP + 1)), found
        assert found[9] > 10 and found[10] > 10, found

    def test_link_graphs_against_naive_wheels_at(self, link_wheels):
        # on the link graphs, mapped back to ambient ids through the
        # increasing rank map, the cycles are the wheels at the vertex
        found = Counter()
        for X, top, at in link_wheels:
            for v in X.vertices:
                ids, masks = X.link_masks(v)
                for lo, hi in length_ranges(top):
                    got = sorted((v, tuple(ids[i] for i in c))
                                 for c in chordless_cycles(masks, lo, hi))
                    assert got == [w for w in at[v] if lo <= len(w[1]) <= hi], (X.name, v, lo, hi)
                found.update(len(rim) for _, rim in at[v])
        # the 600-cell alone has 1 440 rims of 5 vertices
        assert found[4] > 20 and found[5] > 1440, found
        assert all(found[k] > 10 for k in range(6, CYCLE_CAP + 1)), found
        assert found[9] > 3 and found[10] > 3, found

    def test_lengths_below_4_and_empty_ranges_raise(self, icosa, skeleton_refs):
        masks = adjacency_masks(icosa)
        for args, message in (((3,), "start at length 4"), ((3, 5), "start at length 4"),
                              ((6, 5), "empty length range")):
            with pytest.raises(ValueError, match=message):
                chordless_cycles(masks, *args)
        # past 8 vertices the lengths are read as any other
        assert refereed_lengths(skeleton_refs["past_8"])[9], skeleton_refs["past_8"]


class TestWanderingPaths:
    """The kernel against the referee on inputs whose chordless paths
    wander far from their least vertex: surfaces, long cycles and sparse
    draws, where a path search once cut its paths to a distance window
    around that vertex; and the length ranges its callers close."""

    def test_same_cycles_as_the_referee_where_the_cut_prunes(self, skeleton_refs):
        # the kernel at every range up to each input's longest length, and
        # full_cycles past the cap with a raised cap; each family reaches
        # its longest length (the long cycles c9 .. c12 are read to 10)
        longest = {family: max(refereed_lengths(skeleton_refs[family]))
                   for family in ("geodesic_sphere", "tri_torus", "c_n", "random_flag")}
        assert longest == {"geodesic_sphere": 8, "tri_torus": 7, "c_n": 10, "random_flag": 9}

    def test_surfaces_to_length_12_against_the_induced_path_dfs(self, skeleton_refs):
        # where the reach bound cuts deepest: tori and gs2 at every range up
        # to 12, 10 and 11, on the stack past 8, against the DFS referee
        found = refereed_lengths(skeleton_refs[DFS_ONLY])
        assert all(found[k] > 500 for k in range(9, 12)) and found[12] > 10000, found

    def test_link_searches_close_by_length_ranges(self, monkeypatch, icosa):
        # every caller closes pairs, in the links and on the 1-skeleton:
        # the wheel lookup at lengths 4 and 5 in one call, at 5 alone when
        # 5 is read first, and at 6 .. 8 in one call, and a searched link
        # of the largeness check at 4 .. k - 1
        closures = []
        close = curvature.chordless_cycles

        def closing(*args):
            closures.append(args[1:])
            return close(*args)

        monkeypatch.setattr(curvature, "chordless_cycles", closing)
        inputs = [gen("tri_torus", 6, 6), icosa, gen("cell600")]
        inputs += [gen("random_flag", 12, 0.35, seed) for seed in range(5)]
        for X in inputs:
            is_locally_k_large(X, 9)
            is_m_located(X, 8)
            wheels(X, 4, 8)
            wheels(X, 5, 8)
            full_cycles(X, 4, 8)
        assert {(4, 5), (5,), (6, 8), (4, 8)} <= set(closures), closures


class TestBitmaskKernels:
    """``empty_clique`` against the plain clique scan of the referee, on
    bitmasks read off ``neighbors`` and on vertex link masks."""

    @staticmethod
    def inputs():
        rng = random.Random(2017)
        inputs = [gen("random_flag", rng.randint(6, 12), rng.choice((0.25, 0.35, 0.45)), seed)
                  for seed in range(30)]
        return inputs + _named_complexes()

    def test_empty_clique_as_the_clique_scan(self):
        sizes = set()
        for X in self.inputs():
            ref = naive_flag_witness(X)
            masks = adjacency_masks(X)
            assert empty_clique(masks, sorted(X.simplices(1)), X.has_simplex, 3) == ref, X.name
            assert flag_witness(X) == ref, X.name
            sizes.add(0 if ref is None else len(ref))
        assert sizes == {0, 3, 4, 5}

    def test_empty_clique_of_every_vertex_link(self):
        # on rank-space link masks, asking X for the simplices at v; the
        # rank map is increasing, so the first empty clique maps to the
        # referee's on the built link, whose ids are the same ranks
        found = 0
        for X in self.inputs():
            for v in X.vertices:
                ids, masks = X.link_masks(v)
                got = empty_clique(masks, mask_edges(masks),
                                   lambda s: X.has_simplex((v,) + tuple(ids[i] for i in s)), 2)
                link, vmap = naive_link(X, (v,))
                assert vmap == ids
                assert got == naive_flag_witness(link), (X.name, v)
                found += got is not None
        assert found > 0

    def test_is_flag_searches_only_to_name_a_witness(self, monkeypatch, disk37, surf37):
        # the common-neighbour counts decide a pass: a flag complex runs no
        # clique search, and one that is not flag runs one, for its witness
        searches = []
        search = complexes.empty_clique
        monkeypatch.setattr(complexes, "empty_clique",
                            lambda *args: searches.append(args) or search(*args))
        outcomes = set()
        # newly built copies of the fixtures, whose loader tested them
        fixtures = [build_complex(X.maximal_simplices(), X.name) for X in (disk37, surf37)]
        for X in self.inputs() + fixtures:
            searches.clear()
            verdict = is_flag(X)
            assert verdict.passed == (naive_flag_witness(X) is None), X.name
            assert len(searches) == (0 if verdict.passed else 1), X.name
            outcomes.add(verdict.passed)
        assert outcomes == {True, False}

    def test_mask_edges(self, octa):
        masks = adjacency_masks(octa)
        assert mask_edges(masks) == sorted(octa.simplices(1))
        assert mask_edges([]) == [] and mask_edges([0, 0]) == []


class TestCanonicalCycle:
    def test_rotation_and_reflection_invariance(self):
        base = (2, 7, 3, 9, 5)
        for r in range(5):
            rotated = base[r:] + base[:r]
            assert canonical_cycle(rotated) == canonical_cycle(base)
            assert canonical_cycle(rotated[::-1]) == canonical_cycle(base)

    def test_minimality(self):
        assert canonical_cycle((3, 1, 2)) == (1, 2, 3)
        assert canonical_cycle((5, 9, 3, 7, 2)) == (2, 5, 9, 3, 7)


class TestSpan:
    def test_span_of_equator_is_the_cycle(self, octa):
        sub = octa.span({1, 2, 3, 4})
        assert len(sub.simplices(1)) == 4
        assert len(sub.simplices(2)) == 0

    def test_span_keeps_ids(self, icosa):
        sub = icosa.span({0, 1, 5})
        assert sub.has_simplex((0, 1, 5))
        assert sub.vertex_count == icosa.vertex_count


def test_flag_completion_round_trip(octa, icosa):
    # rebuilding a flag complex from its own cliques is the identity
    for X in (octa, icosa):
        edges = sorted(X.simplices(1))
        rebuilt = flag_completion(X.vertex_count, edges)
        assert rebuilt == X


class TestCliqueEnumerator:
    """``flag_completion`` reads each clique from its largest vertex; with a
    previous complex on an id prefix it enumerates only the cliques above
    the prefix.  Both must list exactly the 3- and 4-cliques."""

    @staticmethod
    def brute_cliques(n, edges, size):
        adjacent = {frozenset(e) for e in edges}
        return {s for s in combinations(range(n), size)
                if all(frozenset(e) in adjacent for e in combinations(s, 2))}

    @given(n=st.integers(1, 11), flags=st.lists(st.booleans(), min_size=110, max_size=110),
           cuts=st.lists(st.integers(0, 11), max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_brute_force_cliques(self, n, flags, cuts):
        # each pair's edge is drawn by one flag, and listed either way round
        # by the next one
        pairs = list(combinations(range(n), 2))
        edges = [(u, v) if flags[2 * i + 1] else (v, u)
                 for i, (u, v) in enumerate(pairs) if flags[2 * i]]
        X = flag_completion(n, edges)
        for d in (2, 3):
            assert X.simplices(d) == self.brute_cliques(n, edges, d + 1), d
        assert X.simplices(1) == {tuple(sorted(e)) for e in edges}
        # each previous complex is the completion of the induced graph on an
        # id prefix, grown from the one before
        previous = None
        for cut in sorted(min(c, n) for c in cuts) + [n]:
            induced = [e for e in edges if max(e) < cut]
            previous = flag_completion(cut, induced, previous=previous)
            assert previous == flag_completion(cut, induced)
        assert previous == X


class TestFlagMemo:
    """``flag_completion`` records flagness on each output with no 5-clique,
    so ``is_flag`` reads it with no ``flag_witness`` call; an output with
    one leaves it unrecorded, and ``is_flag`` names the least witness.  The
    referee is the clique scan of ``naive_flag_witness``."""

    @staticmethod
    def refereed(X, calls):
        """X's flag verdict against the referee; the referee's witness."""
        ref = naive_flag_witness(X)
        del calls[:]
        verdict = is_flag(X)
        assert verdict.passed == (ref is None), X.name
        if ref is not None:
            assert verdict.witness["vertices"] == list(ref), X.name
        # recorded exactly when flag
        assert calls == ([] if ref is None else [(X,)]), X.name
        return ref

    @staticmethod
    def graphs(seed):
        """Seeded graphs on up to 12 vertices, dense enough that some hold
        5-cliques, each as (n, its edges)."""
        rng = random.Random(seed)
        for _ in range(60):
            n, p = rng.randint(5, 12), rng.choice((0.3, 0.5, 0.7, 0.85))
            yield n, [e for e in combinations(range(n), 2) if rng.random() < p]

    def test_seeded_graphs_and_generated_complexes(self, monkeypatch):
        calls = counted(monkeypatch, complexes, "flag_witness")
        sizes = Counter(len(self.refereed(flag_completion(n, edges), calls) or ())
                        for n, edges in self.graphs(56))
        # with and without 5-cliques, which are the only witnesses here
        assert sizes[0] > 10 and sizes[5] > 10 and set(sizes) == {0, 5}, sizes
        for X in [gen("cell600")] + [gen("random_flag", 14, 0.45, seed) for seed in range(6)]:
            del calls[:]
            verdict = is_flag(X)
            assert calls == [] and verdict.passed, X.name

    def test_previous_chains(self, monkeypatch):
        # each previous complex is the completion of the induced graph on an
        # id prefix, grown from the one before, as the cover stages grow
        calls = counted(monkeypatch, complexes, "flag_witness")
        rng = random.Random(57)
        chains = Counter()
        for n, edges in self.graphs(57):
            previous, witnesses = None, []
            for cut in sorted(rng.sample(range(1, n), 3)) + [n]:
                previous = flag_completion(cut, [e for e in edges if e[1] < cut],
                                           previous=previous)
                witnesses.append(self.refereed(previous, calls) is not None)
            chains[tuple(witnesses)] += 1
        # chains that stay flag, and chains whose 5-clique appears at a
        # later cut, past a flag previous
        assert chains[False, False, False, False] and chains[False, False, False, True], chains
        assert any(w[0] for w in chains), chains

    def test_cover_stage_balls(self, monkeypatch):
        # the builder's stage balls, each completed from the one before
        calls = counted(monkeypatch, complexes, "flag_witness")
        balls, completion = [], complexes.flag_completion

        def recording(*args, **kwargs):
            balls.append(completion(*args, **kwargs))
            return balls[-1]

        monkeypatch.setattr(cover, "flag_completion", recording)
        for X, r in ((gen("random_flag", 13, 0.35, 7), 3), (gen("icosahedron"), 3),
                     (gen("tri_torus", 5, 5), 3)):
            build_cover(X, 0, r)
        assert len(balls) == 12
        for ball in balls:
            assert self.refereed(ball, calls) is None, ball.name


def test_complex_equality(octa):
    again = build_complex(octa.maximal_simplices())
    assert again == octa
    assert again.neighbors(0) == octa.neighbors(0)
    assert again != build_complex(octa.maximal_simplices()[1:])


def _simplex_soup(seed):
    """Random simplices over a sparse id set: ids below ``vertex_count``
    that no simplex mentions are absent from the complex."""
    rng = random.Random(seed)
    ids = rng.sample(range(40), rng.randint(1, 14))
    simplices = [rng.sample(ids, rng.randint(1, min(4, len(ids))))
                 for _ in range(rng.randint(0, 18))]
    return build_complex(simplices, name=f"soup_{seed}")


def _index_inputs():
    yield from (gen("random_flag", n, p, seed)
                for (n, p, seed) in ((10, 0.5, 1), (14, 0.35, 2), (16, 0.3, 3), (20, 0.25, 4)))
    yield from (_simplex_soup(seed) for seed in range(12))
    yield build_complex([])
    for name in ("octahedron", "boundary_4_simplex", "cell600"):
        yield gen(name)
    for name in ("disk37_r3", "surf37_psl2_7"):
        yield load_degree7_fixture(name)


class TestCofaceIndex:
    """The queries that read the triangle index (the stored triangles at
    each vertex) against full scans of every face."""

    @pytest.fixture(scope="class")
    def complexes(self):
        return list(_index_inputs())

    def test_soups_have_absent_ids(self, complexes):
        assert any(len(X.vertices) < X.vertex_count for X in complexes)

    def test_link_of_missing_simplex_raises(self, complexes):
        for X in complexes:
            absent = next(v for v in range(X.vertex_count + 1) if not X.has_vertex(v))
            with pytest.raises(SimplexNotPresent):
                naive_link(X, (absent,))
            for (u, v) in [(u, v) for u in X.vertices for v in X.vertices
                           if u < v and not X.adjacent(u, v)][:5]:
                with pytest.raises(SimplexNotPresent):
                    naive_link(X, (u, v))

    def test_span_with_non_vertices(self, complexes):
        rng = random.Random(0)
        for X in complexes:
            pool = list(range(-2, X.vertex_count + 5))
            subsets = [set(), set(X.vertices), set(pool)]
            subsets += [set(rng.sample(pool, rng.randint(1, len(pool)))) for _ in range(10)]
            for keep in subsets:
                mine, ref = X.span(keep), naive_span(X, keep)
                assert mine == ref, (X.name, sorted(keep))
                assert mine.name == ref.name

    def test_link_masks_of_every_vertex(self, complexes):
        for X in complexes:
            for v in X.vertices:
                graph = naive_link_graph(X, v)
                ids, masks = X.link_masks(v)
                assert ids == sorted(graph), (X.name, v)
                assert masks == [sum(1 << ids.index(b) for b in graph[a]) for a in ids], (X.name, v)

    def test_maximal_simplices(self, complexes):
        for X in complexes:
            assert X.maximal_simplices() == naive_maximal_simplices(X), X.name


def face_sets_closed(X):
    """Every face of a stored simplex is stored."""
    return all(X.has_simplex(f) for d in range(1, MAX_DIM + 1)
               for s in X.simplices(d) for f in combinations(s, d))


class TestClosedFaceSets:
    """The flagness count of ``flag_witness`` needs downward-closed face
    sets; every construction path gives them."""

    def test_every_construction_path_is_closed(self, tmp_path):
        rng = random.Random(2019)
        built = {"build_complex": _named_complexes() + [_simplex_soup(seed) for seed in range(12)],
                 "flag_completion": [flag_completion(n, [e for e in combinations(range(n), 2)
                                                         if rng.random() < p])
                                     for n, p in ((8, 0.5), (12, 0.4), (16, 0.3))]
                 + [gen("random_flag", 14, 0.45, seed) for seed in range(6)] + [gen("cell600")],
                 "load_path": [load_path(FIXTURE_DIR / f"{name}.cplx").complex
                               for name in ("disk37_r3", "surf37_psl2_7")]}
        path = tmp_path / "round.cplx"
        for X in built["build_complex"][:5]:
            dump_path(X, path)
            built["load_path"].append(load_path(path).complex)
        corpus = [X for group in built.values() for X in group]
        built.update(span=[], naive_span=[], naive_link=[], less_some=[])
        for X in corpus:
            pool = list(X.vertices)
            for keep in [set(rng.sample(pool, rng.randint(0, len(pool)))) for _ in range(3)]:
                built["span"].append(X.span(keep))
                built["naive_span"].append(naive_span(X, keep))
            for v in pool[:4]:
                built["naive_link"].append(naive_link(X, (v,))[0])
            for e in sorted(X.simplices(1))[:3]:
                built["naive_link"].append(naive_link(X, e)[0])
            built["less_some"].append(less_some(X, 2, rng, 1 / 4))
        for path_name, group in built.items():
            assert group, path_name
            for X in group:
                assert face_sets_closed(X), (path_name, X.name)

    def test_an_open_face_set_passes_the_count(self):
        # the triangle 3-4-5 stored without its edge 4-5 offsets the empty
        # triangle 0-1-2: the counts hold on a complex that is not flag
        faces = {0: [(v,) for v in range(6)], 1: [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5)],
                 2: [(3, 4, 5)]}
        X = SimplicialComplex(6, faces)
        assert not face_sets_closed(X)
        assert naive_flag_witness(X) == (0, 1, 2)
        assert flag_witness(X) is None


def test_only_complexes_reads_the_private_tables():
    # the adjacency table, triangle index, face sets and flag record are
    # read through the public queries (``neighbors``, ``link_masks``,
    # ``simplices``, ``is_flag``, ...) everywhere else, so their layout can
    # change inside complexes.py alone
    src = Path(__file__).resolve().parent.parent / "src" / "combcurv"
    modules = sorted(p for p in src.glob("*.py") if p.name != "complexes.py")
    assert len(modules) > 5
    private = re.compile(r"\._(adj|triangles|faces|flag)\b")
    hits = [f"{p.name}:{i}" for p in modules
            for i, line in enumerate(p.read_text().splitlines(), 1) if private.search(line)]
    assert hits == []
