"""Inductive cover-ball construction: stages, invariants, fixed points."""

import hashlib
import json
from dataclasses import replace
from itertools import combinations

import pytest

from combcurv import build_cover, cover, expand_ball, metric, verify_equiv_shortcut
from combcurv.complexes import SimplicialComplex, flag_completion, is_flag
from combcurv.cover import CoverState, _apply_invariants, _base_state, _verify_invariants
from combcurv.curvature import is_locally_k_large, is_m_located
from combcurv.errors import HypothesisViolation, InvariantViolation, NotFlag, TooLarge
from combcurv.metric import check_sd_prime

from conftest import counted, gen
from oracles import init_cover, naive_cover_classes, naive_span

# random_flag draws whose cover reports carry warnings
WARNED = ((13, 0.35, 7), (15, 0.35, 11), (15, 0.35, 12))


def k5_over_tetra(tetra) -> CoverState:
    """K5 over the tetrahedron, vertices 0 and 4 both over 0: it fails (R)."""
    ball = flag_completion(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    return CoverState(stage=1, ball=ball, sheet_map=(0, 1, 2, 3, 0), target=tetra,
                      birth=(0, 1, 1, 1, 1), sd=_base_state(tetra, 0).sd)


class TestInit:
    def test_c4_initial_ball_is_a_path(self, c4):
        state = init_cover(c4, 0)
        assert state.stage == 1
        assert state.ball.counts() == (3, 2, 0, 0)
        assert state.sheet_map == (0, 1, 3)
        assert cover._meets_hypotheses(c4)

    def test_tetrahedron_initial_ball_is_everything(self, tetra):
        state = init_cover(tetra, 0)
        assert state.ball.counts() == (4, 6, 4, 1)

    def test_icosahedron_initial_ball_is_cone_over_pentagon(self, icosa):
        state = init_cover(icosa, 0)
        assert state.ball.counts() == (6, 10, 5, 0)
        assert not cover._meets_hypotheses(icosa)  # not 8-located

    def test_non_flag_rejected(self, bd4):
        with pytest.raises(NotFlag):
            init_cover(bd4, 0)

    def test_unknown_base_rejected(self, c4):
        with pytest.raises(ValueError):
            init_cover(c4, 7)

    def test_stage_1_is_the_closed_star(self, icosa, octa, torus66, disk37, surf37):
        # referee: the span of N[b] by a scan of every face, relabelled
        # b -> 0 and the sorted neighbours of b -> 1..d
        inputs = [icosa, octa, torus66, disk37, surf37]
        inputs += [gen("random_flag", *p) for p in WARNED[:2]]
        balls = 0
        for X in inputs:
            for b in X.vertices:
                state = init_cover(X, b)
                nbrs = sorted(X.neighbors(b))
                rank = {v: a for a, v in enumerate([b] + nbrs)}
                star = naive_span(X, rank)
                for d in range(4):
                    assert state.ball.simplices(d) == {
                        tuple(sorted(rank[v] for v in s)) for s in star.simplices(d)}
                assert state.ball.vertex_count == len(rank)
                assert state.sheet_map == (b,) + tuple(nbrs)
                assert state.birth == (0,) + (1,) * len(nbrs)
                assert state.warnings == ()
                # stage 1 is the expansion of the lone base: one class per neighbour
                assert [(cls.z, cls.members) for cls in state.last_classes] == [
                    (z, ((0, z),)) for z in nbrs]
                balls += 1
        assert balls == 191


class TestExpand:
    def test_c4_stage_2_is_a_5_path(self, c4):
        state = expand_ball(init_cover(c4, 0))
        assert state.ball.counts() == (5, 4, 0, 0)
        # the two uncovered directions both aim at the antipode but their
        # bases are non-adjacent, so they are not identified
        assert len(state.last_classes) == 2
        assert {cls.z for cls in state.last_classes} == {2}

    def test_c5_expansion_gives_the_line(self, c5):
        state = init_cover(c5, 0)
        for expected in (5, 7, 9):
            state = expand_ball(state)
            assert state.ball.counts()[0] == expected
            assert all(state.ball.degree(v) <= 2 for v in range(state.ball.vertex_count))

    def test_tetrahedron_is_a_fixed_point(self, tetra):
        state = init_cover(tetra, 0)
        for _ in range(4):
            nxt = expand_ball(state)
            assert nxt.ball == state.ball
            assert nxt.sheet_map == state.sheet_map
            state = nxt
        # the sheet map is a bijection
        assert sorted(state.sheet_map) == [0, 1, 2, 3]

    def test_icosahedron_cover_is_itself(self, icosa):
        state = init_cover(icosa, 0)
        state = expand_ball(state)
        state = expand_ball(state)
        assert state.ball.counts() == (12, 30, 20, 0)
        assert sorted(state.sheet_map) == list(range(12))
        assert not state.warnings

    def test_vertex_limit(self, surf37):
        state = init_cover(surf37, 0)
        state = expand_ball(state)
        with pytest.raises(TooLarge):
            expand_ball(state, vertex_limit=30)

    def test_vertex_limit_holds_for_the_stage_1_ball(self, torus66):
        # the 1-ball of a degree-6 vertex has 7 vertices
        with pytest.raises(TooLarge, match="cover ball would exceed 6 vertices"):
            build_cover(torus66, 0, 1, vertex_limit=6)
        report = build_cover(torus66, 0, 1, vertex_limit=7)
        assert report.passed and report.state.ball.vertex_count == 7


class TestInvariants:
    def test_invariants_green_on_corpus(self, c4, c5, tetra, disk37, surf37):
        for X, radius in ((c4, 5), (c5, 4), (tetra, 3), (disk37, 3), (surf37, 4)):
            state = init_cover(X, 0)
            while state.stage < radius:
                state = expand_ball(state)
            sd, covering, problems = _verify_invariants(state)
            assert problems == []
            assert sd.passed and covering.passed
            assert check_sd_prime(state.ball, 0, state.stage - 1).passed

    def test_tampered_sheet_map_detected(self, surf37):
        state = expand_ball(init_cover(surf37, 0))
        bad = CoverState(
            stage=state.stage, ball=state.ball,
            sheet_map=state.sheet_map[:-1] + (state.sheet_map[0],),
            target=state.target, birth=state.birth, sd=state.sd)
        _sd, _covering, problems = _verify_invariants(bad)
        assert any(which == "R" for which, _w, _d in problems)

    def test_five_clique_ball_raises_under_the_hypotheses(self, tetra):
        # K5 over the tetrahedron: no stage scans for 5-cliques, because
        # the two vertices over 0 collide in every 1-ball, which (R) rejects
        with pytest.raises(InvariantViolation) as info:
            _apply_invariants(k5_over_tetra(tetra))
        assert info.value.which == "R"


class TestLazyHypotheses:
    """The entry hypotheses decide one thing: whether a failing invariant
    raises or warns.  So they are read only when an invariant fails on a
    state with no warnings yet; a state with warnings has found them unmet,
    since a failure on a base that meets them raises."""

    def test_passing_builds_read_no_hypotheses(self, surf37, monkeypatch):
        # location and largeness, of the interior and of the target alike,
        # are read through one call that returns both and tests flagness
        reads = counted(monkeypatch, cover, "located_and_large")
        for X in (surf37, gen("tri_torus", 8, 8)):
            del reads[:]
            assert build_cover(X, 0, 5).passed
            # the interior checks still run, once, on the previous stage
            # ball, which is flag
            assert [args[1:] for args in reads] == [(8, 5)]
            assert [is_flag(args[0]).passed for args in reads] == [True]
            assert not [args for args in reads if args[0] is X]

    def test_a_warned_build_reads_them_once(self, monkeypatch):
        X = gen("random_flag", 13, 0.35, 4)
        reads = counted(monkeypatch, cover, "_meets_hypotheses")
        located = counted(monkeypatch, cover, "located_and_large")
        report = build_cover(X, 0, 4)
        # (Q) fails at radius 1 (stage 2) and at radius 3 (stage 4); each
        # is reported once, by the stage that adds its radius
        assert [(w.which, w.witness["radius"]) for w in report.state.warnings] == \
            [("Q", 1), ("Q", 3)]
        assert len(reads) == 1
        assert sum(args[0] is X for args in located) == 1

    def test_a_failing_state_raises_only_under_the_hypotheses(self, tetra, icosa, monkeypatch):
        reads = counted(monkeypatch, cover, "_meets_hypotheses")
        state = k5_over_tetra(tetra)
        with pytest.raises(InvariantViolation):
            _apply_invariants(state)
        assert len(reads) == 1
        prior = HypothesisViolation("Q", None, "an earlier stage")
        out = _apply_invariants(replace(state, warnings=(prior,)))
        assert out.warnings[0] is prior and [w.which for w in out.warnings[1:]] == ["R"]
        assert len(reads) == 1
        # over the icosahedron, which is not 8-located, the failure warns
        state = init_cover(icosa, 0)
        out = _apply_invariants(replace(state, sheet_map=state.sheet_map[:-1] + (0,)))
        assert [w.which for w in out.warnings] == ["R"]
        assert len(reads) == 2


class TestExpansionLemma:
    """(P) is a lemma of the expansion, not a check: at every stage the
    birth layers are the BFS layers, the previous ball is the induced ball
    one radius down, and every ball edge maps to a base edge (which the
    5-clique argument rests on)."""

    def test_birth_layers_and_previous_ball_are_induced(self, c4, c5, tetra, icosa, torus66,
                                                        disk37, surf37):
        inputs = [c4, c5, tetra, icosa, torus66, disk37, surf37, gen("cell600")]
        inputs += [gen("random_flag", *p) for p in WARNED]
        merged = warned = 0
        for X in inputs:
            state = _base_state(X, 0)
            while state.stage < 4:
                previous, state = state, expand_ball(state)
                ball, f = state.ball, state.sheet_map
                assert metric.distances_from(ball, 0) == state.birth
                span = naive_span(ball, state.interior_ids())
                for d in range(4):
                    assert span.simplices(d) == previous.ball.simplices(d), (X.name, d)
                assert all(X.adjacent(f[u], f[v]) for (u, v) in ball.simplices(1))
                merged += sum(len(cls.members) > 1 for cls in state.last_classes)
            warned += bool(state.warnings)
        # the three warned draws and the 600-cell carry warnings
        assert merged > 0 and warned == len(WARNED) + 1

    def test_each_stage_ball_extends_the_last_by_new_cliques(self, c4, c5, tetra, icosa,
                                                              torus66, disk37, surf37):
        # the expansion enumerates only the cliques whose largest vertex is
        # new: the ball must be the completion of its edges from scratch,
        # and its simplices on the old ids the previous ball's
        inputs = [c4, c5, tetra, icosa, torus66, disk37, surf37, gen("cell600")]
        inputs += [gen("random_flag", *p) for p in WARNED]
        grown = 0
        for X in inputs:
            state = _base_state(X, 0)
            while state.stage < 4:
                previous, state = state, expand_ball(state)
                ball, n_old = state.ball, previous.ball.vertex_count
                assert ball == flag_completion(ball.vertex_count, ball.simplices(1)), X.name
                for d in range(4):
                    old = {s for s in ball.simplices(d) if s[-1] < n_old}
                    assert old == previous.ball.simplices(d), (X.name, state.stage, d)
                grown += len(ball.simplices(2)) > len(previous.ball.simplices(2))
        assert grown > 0


class TestClassesOracle:
    """Each stage's classes, members and order, against the closure that
    merges uncovered directions pairwise."""

    def test_classes_match_the_naive_closure(self, c4, c5, tetra, icosa, torus66, disk37, surf37):
        inputs = [c4, c5, tetra, icosa, torus66, disk37, surf37]
        inputs += [gen("random_flag", *p) for p in WARNED]
        merged = warned = 0
        for X in inputs:
            state = init_cover(X, 0)
            while state.stage < 4:
                expected = naive_cover_classes(state)
                state = expand_ball(state)
                assert [(cls.z, cls.members) for cls in state.last_classes] == expected
                merged += sum(len(cls.members) > 1 for cls in state.last_classes)
            warned += bool(state.warnings)
        assert merged > 0 and warned == len(WARNED)


class TestDescentOncePerRadius:
    """Each stage carries the lower radii of (Q) from the stage before and
    scans only (V) at its newest radius, where the expansion makes (T)
    hold; the report must equal a full scan."""

    def test_carried_reports_match_a_full_scan(self, c4, c5, tetra, icosa, torus66, disk37, surf37):
        inputs = [c4, c5, tetra, icosa, torus66, disk37, surf37]
        inputs += [gen("random_flag", *p) for p in WARNED]
        failing = 0
        for X in inputs:
            # from stage 0, whose report is empty
            state = _base_state(X, 0)
            while True:
                full = check_sd_prime(state.ball, 0, state.stage - 1)
                assert state.sd.to_json() == full.to_json()
                failing += not full.passed
                if state.stage == 4:
                    break
                state = expand_ball(state)
        # random_flag(15, .35, 11) fails (Q) from stage 3 on, so a failing
        # radius is carried
        assert failing > 0

    def test_only_a_ball_that_passes_p_is_carried(self, surf37, monkeypatch):
        # every state the builder returns passes (P), so its report is
        # carried, and the newest radius reads (T) off the expansion
        state = expand_ball(expand_ball(init_cover(surf37, 0)))
        full = check_sd_prime(state.ball, 0, 2).to_json()
        scans = counted(monkeypatch, metric, "_triangle_condition")
        sd, _covering, problems = _verify_invariants(state)
        assert problems == [] and sd.to_json() == full and scans == []

    def test_surface_build_scans_each_radius_once_and_spans_nothing(self, surf37, monkeypatch):
        triangle_scans = counted(monkeypatch, metric, "_triangle_condition")
        vertex_scans = counted(monkeypatch, cover, "vertex_condition")
        spans = counted(monkeypatch, SimplicialComplex, "span")
        faces_read = counted(monkeypatch, SimplicialComplex, "has_simplex")
        # by (P) the birth layers are the base row, so no BFS runs
        rows = counted(monkeypatch, metric, "distances_from")
        # stage 0 carries the empty report, so no lower radius is scanned;
        # the builder's own binding of the name is counted too, if it has one
        reports = counted(monkeypatch, metric, "check_sd_prime")
        monkeypatch.setattr(cover, "check_sd_prime", metric.check_sd_prime, raising=False)
        assert build_cover(surf37, 0, 5).passed
        assert triangle_scans == [] and reports == []
        assert [args[2] for args in vertex_scans] == [1, 2, 3, 4]
        assert spans == [] and faces_read == [] and rows == []


class TestDescentLemmas:
    """At stage s the newest radius of (Q) is s - 1, and the expansion
    decides both of its conditions: every edge of the newest sphere joins
    two classes with a common base, so (T) holds, and the neighbours below
    a new class are its bases, so (V) is the shortcut test."""

    def test_triangle_and_vertex_conditions_follow_the_expansion(self, surf37):
        inputs = [gen("random_flag", *p) for p in WARNED + ((13, 0.35, 4),)]
        inputs += [surf37, gen("tri_torus", 8, 8)]
        stages = failing = 0
        for X in inputs:
            for b in (0, 1, 2):
                state = init_cover(X, b)
                while state.stage < 4:
                    state = expand_ball(state)
                    ball, birth, i = state.ball, state.birth, state.stage - 1
                    # the expansion's class-class edges: a common base and
                    # adjacent targets
                    glued = sum(not set(c1.bases).isdisjoint(c2.bases) and X.adjacent(c1.z, c2.z)
                                for c1, c2 in combinations(state.last_classes, 2))
                    t = metric._triangle_condition(ball, birth, i)
                    assert t.passed and t.stats == {"edges_checked": glued}
                    v = metric.vertex_condition(ball, birth, i)
                    shortcut = verify_equiv_shortcut(state)
                    assert v.passed == shortcut.passed
                    assert v.stats["pairs_checked"] == shortcut.stats["pairs"]
                    if not v.passed:
                        assert v.witness["pair"] == shortcut.witness["pair"]
                        assert state.sheet_map[v.witness["vertex"]] == shortcut.witness["z"]
                        failing += 1
                    stages += 1
        assert stages == 54 and failing == 7


class TestInteriorBall:
    """The report's interior verdicts are read on the previous stage ball;
    they must equal the verdicts on the induced ball of the interior."""

    def test_interior_verdicts_match_the_span(self, disk37, surf37):
        runs = [(X, r) for X in (surf37, gen("tri_torus", 8, 8)) for r in range(1, 6)]
        runs += [(disk37, r) for r in range(1, 4)]
        runs += [(gen("random_flag", *p), r) for p in WARNED for r in range(1, 5)]
        unlocated = 0
        for X, r in runs:
            report = build_cover(X, 0, r)
            interior = report.state.ball.span(report.state.interior_ids())
            assert report.interior_located.to_json() == is_m_located(interior, 8).to_json()
            assert report.interior_large.to_json() == is_locally_k_large(interior, 5).to_json()
            unlocated += not report.interior_located.passed
        # the torus is not 8-located: from r = 3 on its interior has a witness
        assert unlocated >= 3

    def test_each_interior_link_is_read_once(self, surf37, monkeypatch):
        # location and largeness of the interior take one read of each link
        reads = counted(monkeypatch, SimplicialComplex, "link_masks")
        for X, r, located in ((surf37, 5, True), (gen("tri_torus", 8, 8), 4, False)):
            del reads[:]
            report = build_cover(X, 0, r)
            assert report.interior_located.passed == located and report.interior_large.passed
            interior = report.state.interior_ids()
            assert sorted(v for _ball, v in reads) == interior
            balls = {id(ball): ball for ball, _v in reads}
            assert [ball.vertex_count for ball in balls.values()] == [len(interior)]


class TestShortcut:
    def test_stage_one_is_vacuous(self, c4):
        verdict = verify_equiv_shortcut(init_cover(c4, 0))
        assert verdict.passed
        assert verdict.stats["pairs"] == 0

    def test_icosahedron_classes_have_shortcuts(self, icosa):
        state = expand_ball(init_cover(icosa, 0))
        verdict = verify_equiv_shortcut(state)
        assert verdict.passed
        assert verdict.stats["pairs"] > 0

    def test_degree7_surface_stage_3(self, surf37):
        state = expand_ball(expand_ball(init_cover(surf37, 0)))
        verdict = verify_equiv_shortcut(state)
        assert verdict.passed

    def test_build_stops_at_the_first_missing_shortcut(self, surf37, monkeypatch):
        # random_flag(13, .35, 4) first misses a shortcut at stage 2 of 4,
        # the first stage whose (Q) fails; only that verdict is reported, so
        # no other stage is verified
        calls = counted(monkeypatch, cover, "verify_equiv_shortcut")
        report = build_cover(gen("random_flag", 13, 0.35, 4), 0, 4)
        assert [state.stage for (state,) in calls] == [2]
        assert report.shortcut.witness["pair"] == [4, 5]
        doc = json.dumps(report.to_json(), sort_keys=True).encode()
        assert hashlib.sha256(doc).hexdigest() == \
            "ef7d8d438795a6e650374b0118f56bb065704578c36eb36d387b8ea9373ccc6d"
        # a passing build verifies its last stage alone
        del calls[:]
        assert build_cover(surf37, 0, 4).shortcut.passed
        assert [state.stage for (state,) in calls] == [4]


class TestBuildCover:
    def test_c4_lines(self, c4):
        for r in range(1, 7):
            report = build_cover(c4, 0, r)
            assert report.passed
            assert report.state.ball.counts()[0] == 2 * r + 1
            # every cover edge maps to a base edge: the path wraps the square
            f = report.state.sheet_map
            for (u, v) in report.state.ball.simplices(1):
                assert c4.adjacent(f[u], f[v])

    def test_c4_fiber_sizes_at_radius_4(self, c4):
        report = build_cover(c4, 0, 4)
        assert report.state.fibers() == {0: 3, 1: 2, 2: 2, 3: 2}

    def test_tetrahedron_stabilizes_to_isomorphism(self, tetra):
        report = build_cover(tetra, 0, 5)
        assert report.passed
        assert report.state.ball.counts() == (4, 6, 4, 1)
        assert sorted(report.state.fibers().values()) == [1, 1, 1, 1]

    def test_triangle_stabilizes_to_isomorphism(self, triangle):
        report = build_cover(triangle, 0, 4)
        assert report.passed
        assert report.state.ball.counts() == (3, 3, 1, 0)
        assert sorted(report.state.fibers().values()) == [1, 1, 1]

    def test_degree7_surface_growth(self, surf37):
        report = build_cover(surf37, 0, 3)
        sizes = [s[1] for s in report.stage_stats]
        assert sizes == sorted(sizes) and sizes[-1] > sizes[0]
        assert report.sd.passed and report.covering.passed
        assert report.interior_located.passed and report.interior_large.passed
        assert report.max_interior_thinness <= 2

    def test_fibers_grow_past_the_surface(self, surf37):
        report = build_cover(surf37, 0, 4)
        assert report.state.ball.counts()[0] > surf37.vertex_count
        assert max(report.state.fibers().values()) > 1

    def test_radius_validation(self, c4):
        with pytest.raises(ValueError):
            build_cover(c4, 0, 0)
        with pytest.raises(TooLarge):
            build_cover(c4, 0, 12)

    def test_report_json(self, c4):
        doc = build_cover(c4, 0, 3).to_json()
        assert doc["status"] == "pass"
        assert doc["fibers"]["0"] >= 1

    def test_state_serialization_fields(self, c4):
        state = build_cover(c4, 0, 2).state
        doc = state.to_json()
        assert doc["stage"] == 2 and doc["base"] == 0
        assert len(doc["sheet_map"]) == state.ball.vertex_count
        assert doc["maximal_simplices"]
        # the base is cover vertex 0 at every stage, not a settable field
        with pytest.raises(TypeError):
            replace(state, base=1)


class TestClosedFormGrowth:
    """Ball sizes known from outside the builder: the universal covers of
    the triangulated torus and of the PSL(2,7) surface are the {3,6} and
    {3,7} tilings."""

    @pytest.mark.parametrize("shape", [(12, 12), (9, 12), (7, 7)])
    def test_torus_balls_are_hexagonal(self, shape):
        report = build_cover(gen("tri_torus", *shape), 0, 5)
        assert report.passed
        assert [s[1] for s in report.stage_stats] == [3 * r * r + 3 * r + 1 for r in range(1, 6)]

    def test_degree7_surface_balls_from_every_base(self, surf37):
        for base in surf37.vertices:
            report = build_cover(surf37, base, 5)
            assert report.passed, base
            assert [s[1] for s in report.stage_stats][2:] == [85, 232, 617], base

    def test_degree7_surface_spheres_grow_as_the_tiling(self, surf37):
        sizes = [1] + [s[1] for s in build_cover(surf37, 0, 6).stage_stats]
        assert sizes[3:] == [85, 232, 617, 1625]
        spheres = [b - a for a, b in zip(sizes, sizes[1:])]
        assert spheres[0] == 7
        assert all(c == 3 * b - a for a, b, c in zip(spheres, spheres[1:], spheres[2:]))

    def test_sphere_sizes_read_off_the_birth_layers(self, surf37):
        # the spheres of the {3,7} tiling hold 7 F_2n vertices (F_2 = 1),
        # those of the {3,6} plane 6n; the birth layer of a vertex is its
        # sphere, so a gluing that splits or merges a class changes a count
        fib = [0, 1]
        while len(fib) < 15:
            fib.append(fib[-1] + fib[-2])
        for X, radius, spheres in (
                (surf37, 7, [7 * fib[2 * n] for n in range(1, 8)]),
                (gen("tri_torus", 12, 12), 8, [6 * n for n in range(1, 9)])):
            report = build_cover(X, 0, radius)
            assert report.passed and not report.state.warnings, X.name
            birth = report.state.birth
            assert [birth.count(n) for n in range(radius + 1)] == [1] + spheres, X.name


def test_600_cell_does_not_close_up():
    # S^3 is simply connected, yet the radius-4 ball misses the 30 edges of
    # the icosahedron around the antipode: their common neighbours lie in
    # the fourth sphere and at the antipode, so no gluing rule creates them
    report = build_cover(gen("cell600"), 0, 4)
    assert report.to_json()["status"] == "fail"
    assert report.state.ball.counts()[:2] == (119, 678)
    assert [str(w) for w in report.state.warnings] == [
        "expected failure, hypotheses unmet: (R) image simplex (107, 108) "
        "has no preimage in the 1-ball"]
