"""3-manifold validation, vertex links, sphere conditions, dual cellulation,
cycle-filling checks, and the full pipeline."""

import importlib.util
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from combcurv import build_complex, complexes, curvature, manifold
from combcurv.complexes import SimplicialComplex, canonical_cycle, full_cycles
from combcurv.curvature import dwheels, is_locally_k_large, wheels
from combcurv.errors import NoFillingPair, NotASphere, NotPure, PreconditionNotMet
from combcurv.manifold import (
    ALLOWED_DWHEEL_TYPES,
    ManifoldReport,
    check_7cycle_fillings,
    check_sphere_cycle_lemma,
    check_wheel_in_link,
    find_7cycle_filling,
    five_six_star_verdict,
    is_5_6_star_sphere,
    soccer_dual,
    validate_closed_3manifold,
    verify_theorem_b,
)
from combcurv.verdicts import failed, passed

from conftest import (
    BIPYRAMID,
    bd4_pair,
    complexes_built,
    cone,
    counted,
    dwheel_complex,
    gen,
    mixed_star,
    pinched_octahedra,
    pinched_pair,
    suspended_pinched_octahedra,
    suspended_torus,
    suspension,
)
from oracles import (
    naive_closed_surface_failure,
    naive_edge_degrees,
    naive_edge_link_cycles,
    naive_find_7cycle_filling,
    naive_five_six_star_degrees,
    naive_link,
    naive_link_is_one_cycle,
    naive_maximal_simplices,
    naive_pseudomanifold,
    naive_rim_filled,
    naive_vertex_links_spheres,
    naive_wheel_in_link,
)


def flip_edge(Y, u, v):
    """Replace the two triangles over edge (u, v) by the opposite diagonal."""
    tris = [t for t in Y.simplices(2) if u in t and v in t]
    assert len(tris) == 2
    apexes = [next(x for x in t if x not in (u, v)) for t in tris]
    keep = [t for t in Y.maximal_simplices() if not (u in t and v in t and len(t) == 3)]
    keep.append((apexes[0], apexes[1], u))
    keep.append((apexes[0], apexes[1], v))
    return build_complex(keep)


class TestValidate:
    def test_boundary_4_simplex_is_a_closed_manifold(self, bd4):
        report = validate_closed_3manifold(bd4)
        assert report.is_closed_manifold
        assert set(report.edge_degrees.values()) == {3}
        assert not report.five_six_star.passed
        assert report.five_six_star.witness["degree"] == 3

    def test_two_glued_tetrahedra_fail(self):
        X = build_complex([[0, 1, 2, 3], [1, 2, 3, 4]])
        report = validate_closed_3manifold(X)
        assert not report.is_pseudomanifold.passed
        assert not report.is_closed_manifold

    def test_not_pure_raises(self, gs2):
        with pytest.raises(NotPure):
            validate_closed_3manifold(gs2)
        with pytest.raises(NotPure):
            validate_closed_3manifold(build_complex([[0, 1, 2, 3], [3, 4]]))

    def test_not_pure_names_the_first_maximal_non_tetrahedron(self, monkeypatch):
        # purity is read off the edge-link pass
        def unused(X):
            raise AssertionError("maximal_simplices called")

        monkeypatch.setattr(SimplicialComplex, "maximal_simplices", unused)
        with pytest.raises(NotPure, match="^complex has no tetrahedra$") as exc:
            validate_closed_3manifold(build_complex([]))
        assert exc.value.witness == {"kind": "not_pure", "simplex": None}
        rng = random.Random(14)
        offenders = set()
        for _ in range(300):
            # simplex soups on ids with gaps, mostly tetrahedra
            ids = rng.sample(range(14), rng.randint(4, 9))
            X = build_complex(rng.sample(ids, rng.choice((1, 2, 3, 4, 4, 4, 4)))
                              for _ in range(rng.randint(1, 8)))
            low = [s for s in naive_maximal_simplices(X) if len(s) != 4]
            if not low:
                validate_closed_3manifold(X)
                continue
            with pytest.raises(NotPure) as exc:
                validate_closed_3manifold(X)
            assert str(exc.value) == f"maximal simplex {low[0]} has dimension below 3"
            assert exc.value.witness == {"kind": "not_pure", "simplex": list(low[0])}
            offenders.add(len(low[0]))
        # a vertex, an edge and a triangle each come first
        assert offenders == {1, 2, 3}, offenders

    def test_report_json(self, bd4):
        doc = validate_closed_3manifold(bd4).to_json()
        assert doc["status"] == "fail"
        assert doc["stages"]["pseudomanifold"]["status"] == "pass"
        assert doc["edge_degrees"]["0-1"] == 3

    def test_edge_link_stage_matches_link_complexes(self, bd4):
        statuses, later = set(), 0
        for X in link_stage_inputs(bd4):
            got = validate_closed_3manifold(X).edge_link_cycles.to_json()
            assert got == naive_edge_link_cycles(X).to_json(), sorted(X.simplices(3))
            statuses.add(got["status"])
            later += bool(got["witness"]) and tuple(got["witness"]["edge"]) != min(X.simplices(1))
        glued_report = validate_closed_3manifold(bd4_pair(2))
        assert glued_report.is_pseudomanifold.passed
        assert glued_report.edge_link_cycles.witness["edge"] == [0, 1]
        # both outcomes, and first failures past the smallest edge
        assert statuses == {"pass", "fail"} and later >= 5, (statuses, later)

    def test_vertex_link_stage_matches_link_complexes(self, bd4):
        reasons, after_edge_failure = set(), 0
        for X in vertex_stage_inputs(bd4):
            report = validate_closed_3manifold(X)
            tets = sorted(X.simplices(3))
            assert report.is_pseudomanifold.to_json() == naive_pseudomanifold(X).to_json(), tets
            assert report.edge_degrees == naive_edge_degrees(X), tets
            got = report.vertex_links_spheres.to_json()
            assert got == naive_vertex_links_spheres(X).to_json(), tets
            if got["status"] == "fail":
                reasons.add(re.sub(r"-?\d+", "#", got["detail"].partition(": ")[2]))
                after_edge_failure += not report.edge_link_cycles.passed
        # every closed-surface reason a vertex link of a pure 3-complex can
        # give, and failures after a failed edge stage
        assert reasons == {"edge (#, #) lies in # triangles", "not connected",
                           "Euler characteristic # != #",
                           "triangles at vertex # do not close into one cycle"}, reasons
        assert after_edge_failure >= 5, after_edge_failure

    def test_no_link_complex_once_the_edge_links_are_cycles(self, bd4, monkeypatch):
        inputs = vertex_stage_inputs(bd4)
        cell = gen("cell600")
        built = complexes_built(monkeypatch)
        for X in (cell, bd4):
            assert validate_closed_3manifold(X).is_closed_manifold
        # nor when an edge link is no cycle, or a triangle not on two tetrahedra
        for X in inputs:
            validate_closed_3manifold(X)
        assert built == []
        # the recorder sees a link built
        naive_link(bd4, (0,))
        assert len(built) == 1


def link_stage_inputs(bd4):
    """Small 3-complexes for the link stages of ``validate_closed_3manifold``:
    closed manifolds, complexes that fail at the edge or pseudomanifold
    stage, and random tetrahedron soups."""
    inputs = [bd4, gen("cell600"), bd4_pair(2), build_complex([[0, 1, 2, 3]]),
              build_complex([[0, 1, 2, 3], [1, 2, 3, 4]])]
    rng = random.Random(2003)
    for i in range(30):
        if i % 2:
            ids = rng.sample(range(12), rng.randint(5, 9))
            tets = [rng.sample(ids, 4) for _ in range(rng.randint(2, 12))]
        else:
            # two randomly placed copies of bd4, sometimes less a tetrahedron
            tets = []
            for _ in range(2):
                place = rng.sample(range(12), 5)
                tets += [[place[v] for v in t] for t in bd4.simplices(3)]
            if rng.random() < 0.3:
                tets.pop(rng.randrange(len(tets)))
        inputs.append(build_complex(tets))
    return inputs


def vertex_stage_inputs(bd4):
    """The inputs of :func:`link_stage_inputs`, a suspended torus and two
    boundaries of the 4-simplex sharing a vertex, which fail only at a
    vertex link, and suspended pinched octahedra and bipyramids, whose
    pinched vertex links have rims of 8 and 6 vertices."""
    return link_stage_inputs(bd4) + [suspended_torus(), bd4_pair(1),
                                     suspended_pinched_octahedra(),
                                     suspension(pinched_pair(BIPYRAMID, (0, 4)))]


def surface_test_inputs(bd4):
    """2-sphere candidates for the closed-surface test: spheres, a torus,
    pinched spheres, every vertex link of :func:`vertex_stage_inputs`, and
    seeded soups of triangles with some edges, vertices and tetrahedra."""
    inputs = [gen("geodesic_sphere", 2), gen("tri_torus", 4, 4), pinched_octahedra(),
              pinched_pair(BIPYRAMID, (0, 4)), bd4, build_complex([])]
    inputs += [naive_link(X, (v,))[0] for X in vertex_stage_inputs(bd4) for v in X.vertices]
    rng = random.Random(1402)
    for _ in range(200):
        ids = rng.sample(range(12), rng.randint(4, 9))
        simplices = [rng.sample(ids, 3) for _ in range(rng.randint(1, 12))]
        if rng.random() < 0.3:
            simplices.append(rng.sample(ids, rng.choice((1, 2, 4))))
        inputs.append(build_complex(simplices))
    return inputs


def sphere_reason(Y):
    """The :class:`NotASphere` reason of ``is_5_6_star_sphere(Y)``, or None."""
    try:
        is_5_6_star_sphere(Y)
    except NotASphere as exc:
        return str(exc)
    return None


def full_rims(X, v, opp):
    """The rims of the link of ``v`` as graphs: the rim of u is the link of
    vu, on the triangles vuc and the opposite edges ``opp[vu]``."""
    lk = manifold._graph(X.neighbors(v), X.link_edges(v))
    return {u: manifold._graph(nbrs, opp[tuple(sorted((u, v)))]) for u, nbrs in lk.items()}


def link_verdict(X, v, links=None):
    """The 5/6* sphere verdict of the link of ``v`` read off the edge links
    of ``X`` (timings stripped), or the :class:`NotASphere` message."""
    try:
        return manifold._link_verdict(X, v, links or manifold._edge_links(X)).to_json()
    except NotASphere as exc:
        return str(exc)


class TestClosedSurfaceTest:
    def test_matches_the_referee(self, bd4):
        reasons = set()
        for Y in surface_test_inputs(bd4):
            got = sphere_reason(Y)
            assert got == naive_closed_surface_failure(Y), sorted(Y.maximal_simplices())
            if got is not None:
                reasons.add(re.sub(r"\([^)]*\)|-?\d+", "#", got))
        assert reasons == {"dimension # != #", "maximal simplex # is not a triangle",
                           "edge # lies in # triangles", "not connected",
                           "Euler characteristic # != #",
                           "triangles at vertex # do not close into one cycle"}, reasons


class TestVertexLinks:
    """The vertex-link reader of ``links`` and ``lemmas``: the rims of Lk(v)
    are the edge links Lk(vu), read off one pass over the tetrahedra."""

    def test_bd4_links_are_tetrahedron_boundaries(self, bd4):
        links = manifold._edge_links(bd4)
        for v in bd4.vertices:
            rims, reason = manifold._link_rims(bd4, v, links)
            assert reason is None
            # 4 vertices of degree 3, each with the other 3 for its rim,
            # the 3-cycle Lk(vu); and as graphs, 6 edges and 4 triangles,
            # each read from both ends of its 3 edges
            assert sorted(rims) == sorted(bd4.neighbors(v))
            assert all(sorted(rims[u]) == sorted(set(rims) - {u}) for u in rims)
            rims = full_rims(bd4, v, links[0])
            assert manifold._surface_failure(rims, sorted(rims).index) is None
            assert sum(len(t) for rim in rims.values() for t in rim.values()) == 4 * 6
            assert link_verdict(bd4, v, links)["witness"] == \
                {"kind": "vertex_degree", "vertex": 0, "degree": 3}

    def test_degree_transport(self, bd4):
        # link-vertex degree equals ambient edge degree, independently counted
        for X in (bd4, gen("cell600")):
            degrees, links = naive_edge_degrees(X), manifold._edge_links(X)
            assert {e: len(pairs) for e, pairs in links[0].items()} == degrees
            for v in X.vertices:
                rims, _ = manifold._link_rims(X, v, links)
                assert {tuple(sorted((v, u))): len(rim) for u, rim in rims.items()} == \
                    {e: d for e, d in degrees.items() if v in e}

    def test_non_manifold_link_raises(self):
        X = build_complex([[0, 1, 2, 3], [1, 2, 3, 4]])
        assert link_verdict(X, 0) == "link of vertex 0: edge (0, 1) lies in 1 triangles"

    def test_cone_over_pinched_spheres_raises(self):
        Y = pinched_octahedra()
        apex = Y.vertex_count
        assert link_verdict(cone(Y), apex) == \
            f"link of vertex {apex}: triangles at vertex 0 do not close into one cycle"

    def test_matches_the_referee(self, bd4):
        inputs = vertex_stage_inputs(bd4)
        inputs += [cone(Y) for Y in surface_test_inputs(bd4) if Y.dimension() <= 2]
        inputs += [mixed_star(), gen("cell600"), gen("icosahedron"), gen("tri_torus", 6, 6)]
        seen, count = set(), 0
        for X in inputs:
            links = manifold._edge_links(X)
            for v in X.vertices:
                L = naive_link(X, (v,))[0]
                reason = naive_closed_surface_failure(L)
                if reason is None:
                    expected = naive_five_six_star_degrees(L).to_json()
                    assert is_5_6_star_sphere(L).to_json() == expected
                else:
                    expected = f"link of vertex {v}: {reason}"
                got = link_verdict(X, v, links)
                assert got == expected, (sorted(naive_maximal_simplices(X)), v)
                count += 1
                if isinstance(got, str):
                    got = got.partition(": ")[2]
                    seen.add(got if got.startswith("dimension")
                             else re.sub(r"\([^)]*\)|-?\d+", "#", got))
                else:
                    seen.add(got["witness"]["kind"] if got["witness"] else "pass")
        # every reason, the dimensions of links that are not 2-complexes
        # apart, both degree witnesses and a 5/6* sphere
        assert seen == {"dimension -1 != 2", "dimension 0 != 2", "dimension 1 != 2",
                        "maximal simplex # is not a triangle", "edge # lies in # triangles",
                        "not connected", "Euler characteristic # != #",
                        "triangles at vertex # do not close into one cycle",
                        "vertex_degree", "adjacent_low_degree", "pass"}, seen
        assert count > 5000, count


class TestLinkLemmas:
    """Lemma A of ``_edge_links`` and Lemma B of ``_link_rims``, each on
    every edge or vertex that meets its premise, not only through the first
    failure of a stage."""

    def test_lemma_a_walk_is_the_edge_link_complex(self, bd4):
        answers, outright = Counter(), 0
        for X in vertex_stage_inputs(bd4):
            cycles = manifold._edge_links(X)[2]
            for e in X.simplices(1):
                link, vmap = naive_link(X, e)
                one = naive_link_is_one_cycle(X, e)
                if not all(link.degree(c) == 2 for c in range(link.vertex_count)):
                    # a triangle at e not on two tetrahedra: no walk, no cycle
                    assert cycles[e] is None and not one, e
                    outright += 1
                    continue
                assert (cycles[e] is not None) == one, (sorted(X.simplices(3)), e)
                answers[one] += 1
                if one:
                    # the walk lists the link vertices in cycle order
                    cycle = cycles[e]
                    assert sorted(cycle) == vmap
                    assert all(X.has_simplex(e + (cycle[i - 1], cycle[i]))
                               for i in range(len(cycle)))
        # both answers of the walk, and edges that fail outright
        assert answers[True] > 1000 and answers[False] >= 5 and outright >= 100, \
            (answers, outright)

    def test_lemma_b_counts_give_the_surface_reason(self, bd4, monkeypatch):
        reasons, surface_failure = Counter(), manifold._surface_failure
        surface_checks = counted(monkeypatch, manifold, "_surface_failure")
        for X in vertex_stage_inputs(bd4):
            links = manifold._edge_links(X)
            for v in X.vertices:
                link, _ = naive_link(X, (v,))
                premise = X.neighbors(v) and all(
                    naive_link_is_one_cycle(X, tuple(sorted((u, v)))) for u in X.neighbors(v))
                if not premise:
                    continue
                rims, reason = manifold._link_rims(X, v, links)
                assert surface_checks == [], (sorted(X.simplices(3)), v)
                assert reason == manifold._count_failure(rims)
                rims = full_rims(X, v, links[0])
                assert reason == surface_failure(rims, sorted(rims).index)
                assert reason == naive_closed_surface_failure(link), (sorted(X.simplices(3)), v)
                reasons[re.sub(r"\d+", "#", str(reason))] += 1
        assert set(reasons) == {"None", "not connected", "Euler characteristic # != #"}, reasons

    def test_validate_runs_no_surface_test_on_manifolds(self, bd4, monkeypatch):
        surface_checks = counted(monkeypatch, manifold, "_surface_failure")
        for X in (gen("cell600"), bd4):
            assert validate_closed_3manifold(X).is_closed_manifold
        assert surface_checks == []


class TestSphereCondition:
    def test_icosahedron_fails_adjacent_low_degree(self, icosa):
        verdict = is_5_6_star_sphere(icosa)
        assert not verdict.passed
        assert verdict.witness["kind"] == "adjacent_low_degree"

    def test_octahedron_fails_degree(self, octa):
        verdict = is_5_6_star_sphere(octa)
        assert not verdict.passed
        assert verdict.witness["degree"] == 4

    def test_geodesic_spheres(self, gs2, gs3):
        for Y, expected6 in ((gs2, 30), (gs3, 80)):
            verdict = is_5_6_star_sphere(Y)
            assert verdict.passed
            assert verdict.stats["degree5"] == 12
            assert verdict.stats["degree6"] == expected6
        assert not is_5_6_star_sphere(gen("geodesic_sphere", 1)).passed

    def test_torus_is_not_a_sphere(self, torus66):
        with pytest.raises(NotASphere):
            is_5_6_star_sphere(torus66)

    @pytest.mark.parametrize("Y,counts", [
        (pinched_octahedra(), (10, 24, 16, 0)),
        # the glued vertices have degree 6, two triangles around each
        (pinched_pair(BIPYRAMID, (0, 4)), (8, 18, 12, 0)),
    ], ids=["octahedra", "bipyramids"])
    def test_pinched_spheres_are_not_a_sphere(self, Y, counts):
        assert Y.counts() == counts and Y.euler_characteristic() == 2
        with pytest.raises(NotASphere, match="vertex 0 do not close"):
            is_5_6_star_sphere(Y)


class TestSoccerDual:
    def test_gs2_counts(self, gs2):
        dual = soccer_dual(gs2)
        assert dual.pentagon_count == 12
        assert dual.hexagon_count == 30
        assert len(dual.dual_vertices) == 80
        assert len(dual.dual_edges) == 120
        assert dual.to_json() == {
            "kind": "soccer_dual", "cells": [[v, gs2.degree(v)] for v in gs2.vertices],
            "pentagons": 12, "hexagons": 30, "dual_vertices": 80, "dual_edges": 120}

    def test_gs3_counts(self, gs3):
        dual = soccer_dual(gs3)
        assert (dual.pentagon_count, dual.hexagon_count) == (12, 80)

    def test_icosahedron_rejected(self, icosa):
        with pytest.raises(PreconditionNotMet):
            soccer_dual(icosa)

    def test_duality_round_trip(self, gs2):
        dual = soccer_dual(gs2)
        # each dual vertex is incident to exactly the three cells around it;
        # reassembling them recovers the sphere's face set
        rebuilt = {tuple(sorted(t)) for t in dual.dual_vertices}
        assert rebuilt == set(gs2.simplices(2))
        # cell gonality equals the number of faces around the cell
        for v, g in dual.cells:
            assert len(dual.cell_faces[v]) == g
        # each dual edge separates two distinct dual vertices
        for _edge, (a, b) in dual.dual_edges:
            assert a != b


class TestCycleLemma:
    def test_geodesic_spheres_pass(self, gs2, gs3):
        for Y in (gs2, gs3):
            verdict = check_sphere_cycle_lemma(Y)
            assert verdict.passed
            assert verdict.stats["filled"] > 0

    def test_no_full_4_cycles_is_part_of_the_check(self, gs2):
        assert full_cycles(gs2, 4, 4) == []

    def test_corrupted_sphere_rejected(self, gs2):
        flipped = flip_edge(gs2, *sorted(next(iter(gs2.simplices(1)))))
        with pytest.raises(PreconditionNotMet):
            check_sphere_cycle_lemma(flipped)

    def test_degree_lemma_against_naive_rims(self, gs2, gs3):
        # every chordless 5- and 6-cycle of each closed sphere, one at a time
        cell = gen("cell600")
        spheres = [gen("geodesic_sphere", 1), gs2, gs3, gen("geodesic_sphere", 4),
                   build_complex(TWO_DISKS)] + [naive_link(cell, (v,))[0] for v in cell.vertices]
        outcomes = Counter()
        for Y in spheres:
            is_5_6_star_sphere(Y)  # raises unless Y is a closed 2-sphere
            for cyc in full_cycles(Y, 5, 6):
                expected = naive_rim_filled(Y, cyc.vertices)
                assert manifold._sphere_cycle_lemma(Y, [cyc]).passed == expected, cyc
                outcomes[expected] += 1
        assert outcomes[True] > 100 and outcomes[False] > 100, outcomes

    def test_degree_lemma_needs_the_degree(self):
        # the common neighbour of an unfilled cycle has the wrong degree
        Y = build_complex(TWO_DISKS)
        cycles = {c.vertices: c for c in full_cycles(Y, 5, 6)}
        for rim, common, filled in (((0, 1, 2, 3, 4), 5, False), ((1, 5, 4, 8, 7), 0, False),
                                    ((0, 4, 3, 2, 7), 8, True), ((1, 5, 3, 8, 7), 2, True)):
            cyc = cycles[canonical_cycle(rim)]
            assert frozenset.intersection(*map(Y.neighbors, rim)) == {common}
            assert Y.degree(common) == (5 if filled else 6)
            verdict = manifold._sphere_cycle_lemma(Y, [cyc])
            assert verdict.passed == filled == naive_rim_filled(Y, rim), rim

    def test_no_vertex_link_read(self, monkeypatch):
        calls = [counted(monkeypatch, SimplicialComplex, "link_masks")]
        calls += [counted(monkeypatch, module, "wheels") for module in (curvature, manifold)]
        verdicts = manifold._sphere_lemmas(gen("geodesic_sphere", 4))
        assert [v.passed for v in verdicts] == [True, True]
        assert calls == [[], [], []], calls


# a 2-sphere of two disks glued along the 5-cycle 0 1 2 3 4: vertex 5 is
# adjacent to the whole cycle but has degree 6, vertex 0 to the whole cycle
# 1 5 4 8 7, also of degree 6
TWO_DISKS = [(5, 0, 1), (5, 1, 2), (5, 2, 3), (5, 3, 4), (5, 4, 6), (5, 6, 0), (6, 4, 0),
             (7, 0, 1), (7, 1, 2), (7, 2, 8), (8, 2, 3), (8, 3, 4), (8, 4, 0), (8, 0, 7)]


class TestSevenCycleFilling:
    def test_every_full_7_cycle_fills(self, gs2, gs3):
        for Y in (gs2, gs3):
            cycles = full_cycles(Y, 7, 7)
            assert cycles
            for cyc in cycles:
                pair = find_7cycle_filling(Y, cyc.vertices)
                assert Y.adjacent(pair.y, pair.z)
                rot = pair.cycle
                assert all(Y.adjacent(pair.y, rot[i]) for i in range(4))
                assert all(Y.adjacent(pair.z, rot[i]) for i in (3, 4, 5, 6, 0))
                assert pair.to_json() == {"kind": "filling_pair", "y": pair.y, "z": pair.z,
                                          "cycle": list(rot)}

    def test_aggregate_checker(self, gs2):
        verdict = check_7cycle_fillings(gs2)
        assert verdict.passed
        assert verdict.stats["cycles"] == 60

    def test_aggregate_checker_names_the_first_unfilled_cycle(self, gs2, monkeypatch):
        def no_pair(Y, cycle):
            raise NoFillingPair(f"no filling pair for 7-cycle {cycle}")

        monkeypatch.setattr(manifold, "find_7cycle_filling", no_pair)
        verdict = check_7cycle_fillings(gs2)
        assert not verdict.passed and verdict.detail == "7-cycle admits no filling pair"
        assert verdict.witness == full_cycles(gs2, 7, 7)[0] and verdict.stats["cycles"] == 60

    def test_no_filling_raises(self):
        # a bare 7-cycle complex is not a sphere; drive the searcher directly
        Y = gen("c_n", 7)
        with pytest.raises(NoFillingPair):
            find_7cycle_filling(Y, tuple(range(7)))

    def test_length_validation(self, gs2):
        with pytest.raises(ValueError):
            find_7cycle_filling(gs2, (0, 1, 2))


class TestSearchReferees:
    """The filling searches against the vertex and edge scans they replaced,
    on spheres and on random flag complexes (no sphere precondition)."""

    # dense draws where one edge fills a 7-cycle read both ways, so only the
    # scan's (y, z)-before-(z, y) order picks the pair
    PINNED = [(18, 0.55, 501764), (17, 0.5, 849342), (19, 0.52, 587054), (20, 0.46, 447668)]

    @pytest.fixture(scope="class")
    def inputs(self, gs2, gs3):
        rng = random.Random(1312)
        draws = self.PINNED + [(rng.randint(14, 20), rng.choice((0.4, 0.5)),
                                rng.randrange(10**6)) for _ in range(20)]
        return [gs2, gs3, gen("geodesic_sphere", 4)] + [gen("random_flag", *d) for d in draws]

    def test_7cycle_filling_matches_edge_scan(self, inputs):
        found = missing = 0
        for X in inputs:
            for cyc in full_cycles(X, 7, 7):
                for c in (cyc.vertices, cyc.vertices[::-1]):
                    try:
                        expected = naive_find_7cycle_filling(X, c)
                    except NoFillingPair:
                        with pytest.raises(NoFillingPair):
                            find_7cycle_filling(X, c)
                        missing += 1
                    else:
                        assert find_7cycle_filling(X, c) == expected, (X.name, c)
                        found += 1
        assert found > 100 and missing > 100

    def test_filled_cycles_are_wheel_rims(self, inputs):
        filled = unfilled = 0
        for X in inputs:
            rims = {w.rim for w in wheels(X, 5, 6)}
            for cyc in full_cycles(X, 5, 6):
                expected = naive_rim_filled(X, cyc.vertices)
                assert (cyc.vertices in rims) == expected, (X.name, cyc.vertices)
                filled += expected
                unfilled += not expected
        assert filled > 100 and unfilled > 100


class TestWheelInLink:
    def test_bd4_rejected_by_precondition(self, bd4):
        with pytest.raises(PreconditionNotMet):
            check_wheel_in_link(bd4)

    def test_vacuous_on_wheelless_input(self):
        # isolated points: the degree census is empty, no wheels exist
        X = build_complex([[0], [1], [2]])
        verdict = check_wheel_in_link(X)
        assert verdict.passed
        assert verdict.stats["wheels"] == 0

    def test_against_naive_scan(self, monkeypatch, icosa, gs2, gs3, bd4):
        # past the precondition, which none of these meets, so both the
        # wheel that lies in no link and the one that does are reached
        monkeypatch.setattr(manifold, "five_six_star_verdict",
                            lambda X, degrees=None: passed("five_six_star"))
        cell = gen("cell600")
        for X, status, wheels_seen in ((cell, "fail", 13), (icosa, "fail", 1), (gs3, "fail", 1),
                                       (cone(gs2), "pass", 84), (bd4, "pass", 0)):
            got = check_wheel_in_link(X).to_json()
            assert got == naive_wheel_in_link(X).to_json(), X.name
            assert (got["status"], got["stats"]["wheels"]) == (status, wheels_seen), X.name
        assert check_wheel_in_link(cell).witness.to_json() == {
            "kind": "wheel", "center": 0, "rim": [1, 2, 7, 9, 11, 6]}


class TestFiveSixStar:
    def test_zero_degree_edges_detected(self):
        verdict = five_six_star_verdict(gen("triangle"))
        assert not verdict.passed
        assert verdict.witness["kind"] == "edge_degree"

    def test_two_low_edges_in_one_triangle_detected(self):
        # degrees injected directly to drive the per-triangle rule
        X = gen("triangle")
        degrees = {(0, 1): 5, (0, 2): 5, (1, 2): 6}
        verdict = five_six_star_verdict(X, degrees)
        assert not verdict.passed
        assert verdict.witness["kind"] == "triangle_two_low_edges"
        assert verdict.witness["triangle"] == [0, 1, 2]

    def test_one_low_edge_per_triangle_is_allowed(self):
        X = gen("triangle")
        degrees = {(0, 1): 5, (0, 2): 6, (1, 2): 6}
        assert five_six_star_verdict(X, degrees).passed


class TestTheoremB:
    def test_bd4_fails_at_five_six_star(self, bd4):
        verdict = verify_theorem_b(bd4)
        assert not verdict.passed
        assert verdict.stats["stage"] == "five_six_star"

    def test_non_manifold_fails_at_validation(self):
        X = build_complex([[0, 1, 2, 3], [1, 2, 3, 4]])
        verdict = verify_theorem_b(X)
        assert not verdict.passed
        assert verdict.stats["stage"] == "validate"

    def test_non_pure_fails_at_validation(self, gs2):
        verdict = verify_theorem_b(gs2)
        assert not verdict.passed
        assert verdict.stats["stage"] == "validate"

    def test_dwheel_types_stage_cannot_fail_after_local_5_largeness(self):
        # locally 5-large: every wheel rim has length >= 5, so a dwheel of
        # boundary <= 8 has l >= 5 and k + l <= 12, i.e. an allowed type
        rng = random.Random(56)
        draws = [(21, 0.243, 586410), (26, 0.221, 724161), (24, 0.254, 754688)]
        for _ in range(300):
            n = rng.randint(14, 60)
            draws.append((n, round((rng.uniform(0.5, 1.6) / n) ** 0.5, 3), rng.randrange(10**6)))
        seen = set()
        for draw in draws:
            X = gen("random_flag", *draw)
            if is_locally_k_large(X, 5).passed:
                types = {dw.type for dw in dwheels(X, 8)}
                assert types <= ALLOWED_DWHEEL_TYPES, draw
                seen |= types
        # the pinned draws make every allowed type occur
        assert seen == ALLOWED_DWHEEL_TYPES


def theorem_b_stages():
    """``THEOREM_B_STAGES`` of ``perfbench/spans.py``: the stage names, in
    order, by which the traced benchmark counts ``stage_reached``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.THEOREM_B_STAGES


def report(*verdicts):
    """A manifold report with ``verdicts`` for its pseudomanifold, edge-link
    and vertex-link stages, and a passing 5/6* stage."""
    return ManifoldReport(*verdicts, edge_degrees={}, five_six_star=passed("five_six_star"))


ALL_PASS = report(passed("pseudomanifold"), passed("edge_link_cycles"),
                  passed("vertex_links_spheres"))

UNLOCATED_ICOSA = {
    "kind": "unlocated_dwheel",
    "dwheel": {"kind": "dwheel", "apexes": [0, 1], "shared": 5, "rims": [[7, 10, 11], [7, 8, 9]],
               "junction": "identified", "type": [5, 5], "boundary_length": 6},
    "candidates_tried": [0, 1, 5, 7, 8, 9, 10, 11]}
UNLOCATED_CELL600 = {
    "kind": "unlocated_dwheel",
    "dwheel": {"kind": "dwheel", "apexes": [0, 1], "shared": 2, "rims": [[5, 9, 7], [6, 16, 14]],
               "junction": "edge", "type": [5, 5], "boundary_length": 7},
    "candidates_tried": [0, 1, 2, 5, 6, 7, 9, 14, 16]}


# the identified (k, l)-dwheels whose cones pass every theorem-B stage
LOCATED_CONE_TYPES = ((5, 5), (6, 5), (6, 6), (7, 5))


def theorem_b_fail(stage, detail, witness):
    return {"check": "theorem_b", "status": "fail", "detail": f"stage {stage}: {detail}",
            "witness": witness, "stats": {"stage": stage}}


class TestTheoremBStages:
    """The stages past ``five_six_star``, which no input reaches yet, run
    with a closed 5/6* manifold report patched in for every input."""

    @pytest.fixture
    def all_pass(self, monkeypatch):
        monkeypatch.setattr(manifold, "validate_closed_3manifold", lambda X: ALL_PASS)

    @pytest.fixture
    def calls(self, monkeypatch):
        """The later stages' checks, by name, in the order they are called."""
        names = []
        for name in ("is_flag", "located_and_large"):
            def spy(*args, _name=name, _fn=getattr(manifold, name)):
                names.append(_name)
                return _fn(*args)
            monkeypatch.setattr(manifold, name, spy)
        return names

    def test_each_later_stage_fails_with_its_witness(self, all_pass, calls, bd4, octa, icosa):
        cases = [
            (bd4, theorem_b_fail("is_flag", "clique (0, 1, 2, 3, 4) spans no simplex",
                                 {"kind": "empty_clique", "vertices": [0, 1, 2, 3, 4]}),
             ["is_flag"]),
            (octa, theorem_b_fail("locally_5_large",
                                  "link of (0,) is not 5-large: full 4-cycle present",
                                  {"kind": "cycle_in_link", "simplex": [0],
                                   "cycle": [1, 2, 3, 4]}),
             ["is_flag", "located_and_large"]),
            (icosa, theorem_b_fail("8_located",
                                   "(5,5)-dwheel of boundary length 6 fits in no 1-ball",
                                   UNLOCATED_ICOSA),
             ["is_flag", "located_and_large"]),
            (gen("cell600"), theorem_b_fail("8_located",
                                            "(5,5)-dwheel of boundary length 7 fits in no 1-ball",
                                            UNLOCATED_CELL600),
             ["is_flag", "located_and_large"]),
        ]
        for X, expected, called in cases:
            calls.clear()
            assert verify_theorem_b(X).to_json() == expected, X.name
            # a stage runs only once every stage before it has passed; one
            # call serves local 5-largeness and 8-location
            assert calls == called, X.name

    def test_every_stage_passes(self, all_pass, calls, surf37):
        assert verify_theorem_b(surf37).to_json() == {
            "check": "theorem_b", "status": "pass", "detail": "all stages passed",
            "witness": None, "stats": {"dwheel_types": [], "dwheels": 0}}
        assert calls == ["is_flag", "located_and_large"]

    def test_dwheel_census(self, all_pass):
        # the cones over the identified dwheels of the allowed types are
        # flag, locally 5-large and 8-located: the real 8-location passes
        # on each, and the census reads its one type off the join
        seen = set()
        for k, l in LOCATED_CONE_TYPES:
            doc = verify_theorem_b(cone(dwheel_complex(k, l, "identified")[0])).to_json()
            assert doc == {
                "check": "theorem_b", "status": "pass", "detail": "all stages passed",
                "witness": None, "stats": {"dwheel_types": [(k, l)], "dwheels": 2}}, (k, l)
            seen.update(doc["stats"]["dwheel_types"])
        assert seen == ALLOWED_DWHEEL_TYPES

    def test_one_join_and_one_flag_test_per_call(self, all_pass, monkeypatch):
        # the is_flag stage has passed when 8-location runs, so 8-location
        # tests flagness no more, and the types come off its one join; the
        # icosahedron's links are cycles, so it is decided by degrees with
        # no join, while a cone's apex link is not a cycle
        joins = counted(monkeypatch, curvature, "_apex_pairs")
        flags = counted(monkeypatch, complexes, "flag_witness")
        inputs = {t: cone(dwheel_complex(*t, "identified")[0]) for t in LOCATED_CONE_TYPES}
        inputs["icosahedron"] = icosa = gen("icosahedron")
        for name, X in inputs.items():
            for calls in (joins, flags):
                calls.clear()
            stage = verify_theorem_b(X).stats.get("stage")
            assert stage == ("8_located" if X is icosa else None), name
            assert (len(joins), len(flags)) == (0 if X is icosa else 1, 1), name

    def test_one_link_read_per_vertex_for_both_hypotheses(self, all_pass, monkeypatch):
        # the 600-cell's links are icosahedra, read once and closed at rim
        # lengths 4 and 5 in one call each for local 5-largeness and
        # 8-location together, and at no other length; the 600-cell
        # carries its flagness from its clique completion, so the is_flag
        # stage tests none
        spied = [(name, counted(monkeypatch, owner, name)) for owner, name in (
            (curvature, "empty_clique"), (curvature, "chordless_cycles"),
            (complexes, "flag_witness"), (SimplicialComplex, "link_masks"))]
        verdict = verify_theorem_b(gen("cell600"))
        assert verdict.to_json() == theorem_b_fail(
            "8_located", "(5,5)-dwheel of boundary length 7 fits in no 1-ball", UNLOCATED_CELL600)
        counts = Counter(name for name, calls in spied for _ in calls)
        assert counts == Counter(link_masks=120, chordless_cycles=120), counts

    def test_first_failing_report_verdict(self, calls, monkeypatch):
        X = build_complex([[0, 1, 2, 3]])
        bad = [failed(check, {"kind": check}, detail=f"{check} fails")
               for check in ("pseudomanifold", "edge_link_cycles", "vertex_links_spheres")]
        ok = [passed(v.check) for v in bad]
        for first in range(3):
            verdicts = ok[:first] + bad[first:]
            monkeypatch.setattr(manifold, "validate_closed_3manifold",
                                lambda X, r=report(*verdicts): r)
            check = bad[first].check
            assert verify_theorem_b(X).to_json() == \
                theorem_b_fail("validate", f"{check} fails", {"kind": check})
        assert calls == []

    def test_stage_names_in_order(self, calls, bd4, octa, icosa, monkeypatch):
        stages = [verify_theorem_b(X).stats["stage"]
                  for X in (build_complex([[0, 1, 2, 3], [1, 2, 3, 4]]), bd4)]
        monkeypatch.setattr(manifold, "validate_closed_3manifold", lambda X: ALL_PASS)
        stages += [verify_theorem_b(X).stats["stage"] for X in (bd4, octa, icosa)]
        # the benchmark's stage names still end in the census stage, which
        # theorem B no longer has; its hook counts a pass past every stage
        assert theorem_b_stages()[-1] == "dwheel_types"
        assert tuple(stages) == theorem_b_stages()[:-1]
