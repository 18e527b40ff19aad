"""Balls, spheres, intervals, thinness, descent conditions, four-point delta."""

import json
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combcurv import build_complex, build_cover, curvature, metric
from combcurv.cli import main
from combcurv.complexes import SimplicialComplex
from combcurv.errors import DisconnectedError, PreconditionNotMet, TooLarge
from combcurv.formats import dump_path
from combcurv.metric import (
    INF,
    ball,
    check_projection_lemma,
    check_sd_prime,
    delta_four_point,
    distance,
    distances_from,
    interval,
    sphere,
)
from combcurv.verdicts import passed

from conftest import counted, gen, thinness_from
from oracles import (
    floyd_warshall,
    naive_check_sd_prime,
    naive_delta,
    naive_delta_quadruples,
    naive_interval_thinness,
    naive_interval_vertices,
    naive_projection_lemma,
)


def path_complex(n):
    return build_complex([[i, i + 1] for i in range(n)])


class TestBallsSpheres:
    def test_radius_zero(self, icosa):
        assert ball(icosa, 3, 0) == {3}
        assert sphere(icosa, 3, 0) == {3}

    def test_icosahedron_unit_ball(self, icosa):
        assert len(ball(icosa, 0, 1)) == 6

    def test_octahedron_second_sphere_is_antipode(self, octa):
        assert sphere(octa, 0, 2) == {5}

    def test_negative_radius(self, octa):
        for walk in (ball, sphere):
            with pytest.raises(ValueError, match="radius must be non-negative"):
                walk(octa, 0, -1)

    def test_bfs_against_floyd_warshall(self, c4, c5, octa, icosa, torus66, gs2):
        for X in (c4, c5, octa, icosa, torus66, gs2):
            ref = floyd_warshall(X)
            for u in X.vertices:
                du = distances_from(X, u)
                for v in X.vertices:
                    assert du[v] == ref[u][v]
                    assert du[v] == distances_from(X, v)[u]  # symmetry

    def test_triangle_inequality(self, gs2):
        verts = gs2.vertices[:15]
        for a, b, c in combinations(verts, 3):
            assert distance(gs2, a, c) <= distance(gs2, a, b) + distance(gs2, b, c)

    def test_distance_field_is_lipschitz_on_edges(self, gs2, torus66):
        for X in (gs2, torus66):
            d = distances_from(X, 0)
            assert d[0] == 0
            for (u, v) in X.simplices(1):
                assert abs(d[u] - d[v]) <= 1


class TestInterval:
    def test_path_layers_are_singletons(self):
        X = path_complex(2)
        itv = interval(X, 0, 2)
        assert itv.n == 2
        assert itv.layers == (frozenset({0}), frozenset({1}), frozenset({2}))

    def test_octahedron_antipodal_middle_layer_is_equator(self, octa):
        itv = interval(octa, 0, 5)
        assert itv.layers[1] == {1, 2, 3, 4}

    def test_c4_opposite_corners(self, c4):
        itv = interval(c4, 0, 2)
        assert itv.layers[1] == {1, 3}

    def test_layers_partition_and_match_oracle(self, octa, icosa, torus66):
        for X in (octa, icosa, torus66):
            verts = X.vertices
            for o, o2 in [(verts[0], verts[-1]), (verts[1], verts[-2])]:
                itv = interval(X, o, o2)
                seen = set()
                for layer in itv.layers:
                    assert not (seen & layer)
                    seen |= layer
                assert seen == naive_interval_vertices(X, o, o2)

    def test_disconnected(self):
        X = build_complex([[0, 1], [2, 3]])
        with pytest.raises(DisconnectedError):
            interval(X, 0, 3)

    def test_absent_target_raises(self):
        # id 2 lies below vertex_count, id 9 past it
        X = build_complex([[0, 1], [1, 3]])
        for o2 in (2, 9):
            with pytest.raises(ValueError, match=f"vertex {o2} not in complex"):
                interval(X, 0, o2)
            with pytest.raises(ValueError, match=f"vertex {o2} not in complex"):
                thinness_from(X, 0, 1, o2)

    def test_one_bfs_from_the_first_endpoint(self, octa, torus66, monkeypatch):
        bfs = counted(monkeypatch, metric, "distances_from")
        for X in (octa, torus66):
            for o2 in X.vertices:
                bfs.clear()
                interval(X, 0, o2)
                assert [base for _, base in bfs] == [0]


class TestThinness:
    def test_path_is_zero_thin(self):
        X = path_complex(5)
        assert thinness_from(X, 0, 5)[0] == 0

    def test_octahedron_antipodal_is_2_thin(self, octa):
        thin, pair = thinness_from(octa, 0, 5)
        assert thin == 2
        u, v = pair
        assert distance(octa, u, v) == 2

    def test_icosahedron_at_most_2(self, icosa):
        for o2 in icosa.vertices[1:]:
            assert thinness_from(icosa, 0, o2)[0] <= 2

    def test_interval_endpoints(self, octa, icosa):
        for X in (octa, icosa):
            itv = interval(X, 0, X.vertices[-1])
            assert itv.layers[0] == {0}
            assert itv.layers[-1] == {X.vertices[-1]}

    def test_descent_mechanism_implies_thin_intervals(self, disk37, surf37, tetra):
        # whenever the location/largeness/descent preconditions all hold
        # around a base, intervals from that base are 2-thin
        from combcurv import is_locally_k_large, is_m_located

        for X, base, n in ((disk37, 0, 2), (surf37, 0, 1), (tetra, 0, 2)):
            assert is_m_located(X, 8).passed
            assert is_locally_k_large(X, 5).passed
            if not check_sd_prime(X, base, n).passed:
                continue  # implication vacuous at this radius
            d = distances_from(X, base)
            for v in X.vertices:
                if 0 < d[v] <= n:
                    assert thinness_from(X, base, v)[0] <= 2, (X.name, v)


class TestThinnessOracle:
    """Thinness over many targets in one call equals the maximum of the
    one-target referee, with the first witness in target order."""

    @staticmethod
    def per_target(X, o, targets):
        best = (0, None)
        ties = 0
        for t in targets:
            got = naive_interval_thinness(X, o, t)
            if got[0] > best[0]:
                best, ties = got, 0
            elif got[0] == best[0] and got[1] is not None:
                ties += 1
        assert thinness_from(X, o, *targets) == best
        return best[0], ties

    @pytest.mark.parametrize("name,radius,thin", [
        ("disk37", 2, 0), ("disk37", 3, 1), ("disk37", 4, 1),
        ("surf37", 2, 0), ("surf37", 3, 1), ("surf37", 4, 1),
        ("torus8", 5, 2),
    ])
    def test_cover_balls(self, request, name, radius, thin):
        X = gen("tri_torus", 8, 8) if name == "torus8" else request.getfixturevalue(name)
        report = build_cover(X, 0, radius)
        state = report.state
        interior = [v for v in state.interior_ids() if v != state.base]
        assert self.per_target(state.ball, state.base, interior)[0] == thin
        assert report.max_interior_thinness == thin
        # every vertex, outermost first
        self.per_target(state.ball, state.base, state.ball.vertices[:0:-1])

    def test_random_flag(self):
        rng = random.Random(5)
        thick = tied = 0
        for seed in range(60):
            X = gen("random_flag", rng.randint(8, 24), rng.choice([0.2, 0.3, 0.4]), seed)
            d = distances_from(X, 0)
            targets = [v for v in X.vertices if d[v] != float("inf")]
            rng.shuffle(targets)
            thin, ties = self.per_target(X, 0, targets)
            thick += thin >= 2
            tied += ties > 0
        # the maximum is often reached by more than one target, so the
        # witness order is exercised
        assert thick > 10 and tied > 10, (thick, tied)

    def test_deep_layers(self):
        # the searches of the wide middle layers resume across many pairs
        X = gen("tri_torus", 12, 12)
        assert thinness_from(X, 0, *X.vertices[1:]) == (8, (4, 48))
        assert self.per_target(X, 0, X.vertices[1:]) == (8, 1)
        targets = random.Random(0).sample(X.vertices[1:], 48)
        assert self.per_target(X, 0, targets)[0] == 8

    def test_no_targets_and_disconnected(self):
        X = build_complex([[0, 1], [2, 3]])
        assert thinness_from(X, 0) == (0, None)
        with pytest.raises(DisconnectedError):
            thinness_from(X, 0, 1, 3)

    def test_rows_only_for_the_base_and_shared_layers(self, torus66, monkeypatch):
        # shared layers run no full row: their pair distances come from
        # searches stopped at the queried vertex
        bfs = counted(monkeypatch, metric, "distances_from")
        assert thinness_from(path_complex(6), 0, 6, 3) == (0, None)
        assert [base for _, base in bfs] == [0]
        bfs.clear()
        assert thinness_from(torus66, 0, *torus66.vertices[1:]) == (4, (2, 12))
        assert [base for _, base in bfs] == [0]

    def test_cover_build_rows(self, surf37, monkeypatch):
        # the stages read (Q) and the thinness intervals off the birth
        # layers, which (P) makes the base row
        bfs = counted(monkeypatch, metric, "distances_from")
        build_cover(surf37, 0, 6)
        assert len(bfs) == 0

    def test_cli_interval_and_thinness_share_the_base_row(self, torus66, tmp_path,
                                                          monkeypatch, capsys):
        path = tmp_path / "torus66.cplx"
        dump_path(torus66, path)
        bfs = counted(monkeypatch, metric, "distances_from")
        assert main(["--json", "metric", "--base", "0", "--other", "16", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        bases = [base for _, base in bfs]
        assert bases.count(0) == 1 and len(set(bases)) == len(bases), bases
        thin, pair = thinness_from(torus66, 0, 16)
        assert (doc["thinness"], doc["thinness_pair"]) == (thin, list(pair))
        assert doc["layers"] == [sorted(layer) for layer in interval(torus66, 0, 16).layers]


class TestSDPrime:
    def test_tetrahedron_passes(self, tetra):
        assert check_sd_prime(tetra, 0, 2).passed

    def test_octahedron_passes_n1(self, octa):
        for o in octa.vertices:
            assert check_sd_prime(octa, o, 1).passed

    def test_c4_fails_vertex_condition(self, c4):
        report = check_sd_prime(c4, 0, 1)
        assert not report.passed
        failure = report.first_failure()
        assert failure.check == "sd_V"
        assert failure.witness["vertex"] == 2
        assert sorted(failure.witness["pair"]) == [1, 3]

    def test_triangle_condition_failure(self):
        # a hexagon: the far edge (3, 4) lies in the second sphere and its
        # link is empty, so (T) fails at radius 1
        X = build_complex([[0, 1], [0, 2], [1, 3], [2, 4], [3, 4]])
        report = check_sd_prime(X, 0, 1)
        assert not report.passed
        t_verdict, _ = report.results[1]
        assert not t_verdict.passed
        assert sorted(t_verdict.witness["edge"]) == [3, 4]

    def test_json_shape(self, octa):
        doc = check_sd_prime(octa, 0, 2).to_json()
        assert doc["status"] == "pass"
        assert set(doc["radii"]) == {"1", "2"}

    def test_against_naive_oracle(self, disk37, surf37, torus66):
        # whole reports, witnesses and counts, against the full sorted-edge
        # scan; the builder's carried reports too
        runs = [(X, r) for X in (disk37, surf37, torus66) for r in range(1, 5)]
        runs += [(gen("random_flag", *p), r) for p in ((13, 0.35, 7), (15, 0.35, 11),
                                                      (15, 0.35, 12)) for r in range(1, 5)]
        for X, r in runs:
            report = build_cover(X, 0, r)
            ball = report.state.ball
            assert check_sd_prime(ball, 0, r).to_json() == naive_check_sd_prime(ball, 0, r).to_json()
            assert report.sd.to_json() == naive_check_sd_prime(ball, 0, r - 1).to_json()
        failing = {"sd_T": 0, "sd_V": 0}
        rng = random.Random(11)
        for seed in range(80):
            X = gen("random_flag", rng.randint(8, 24), rng.choice([0.2, 0.3, 0.4]), seed)
            for o in X.vertices[:3]:
                got = check_sd_prime(X, o, 3)
                assert got.to_json() == naive_check_sd_prime(X, o, 3).to_json()
                if not got.passed:
                    failing[got.first_failure().check] += 1
        assert failing["sd_T"] > 5 and failing["sd_V"] > 5, failing


class TestProjectionLemma:
    def test_tetrahedron_vacuous(self, tetra):
        verdict = check_projection_lemma(tetra, 0, 2)
        assert verdict.passed
        assert verdict.stats["instances"] == 0

    def test_icosahedron_precondition(self, icosa):
        with pytest.raises(PreconditionNotMet) as err:
            check_projection_lemma(icosa, 0, 2)
        assert "is_m_located" in err.value.name

    def test_violating_configuration_is_caught_by_preconditions(self):
        # fan with two apex triangles through a common base: the projected
        # pair would coincide, and exactly this shape breaks 5-largeness
        X = build_complex([
            [9, 1, 2], [9, 2, 3],          # base star at 9
            [5, 1, 2], [5, 2, 3],          # upper star at 5
        ])
        with pytest.raises(PreconditionNotMet):
            check_projection_lemma(X, 9, 1)

    def test_descent_precondition(self, torus66, monkeypatch):
        # the torus is locally 6-large but not 8-located; past a patched
        # 8-location, the descent property fails at sphere 3, here and in
        # the referee
        real = metric.located_and_large
        monkeypatch.setattr(metric, "located_and_large", lambda X, m, k:
                            (passed("is_m_located"),) + real(X, m, k)[1:])
        for check in (check_projection_lemma, naive_projection_lemma):
            with pytest.raises(PreconditionNotMet) as err:
                check(torus66, 0, 2)
            assert (err.value.name, err.value.detail) == \
                ("check_sd_prime(X, 0, 2)", "edge (9,10) in sphere 3 sees nothing in ball 2")

    def test_degree7_cover_balls(self, disk37, surf37):
        from combcurv import build_cover

        for X in (disk37, surf37):
            report = build_cover(X, 0, 3)
            verdict = check_projection_lemma(report.state.ball, 0, 2)
            assert verdict.passed

    def test_one_base_row(self, surf37, monkeypatch):
        # the descent precondition and the instance scan share one BFS row
        ball = build_cover(surf37, 0, 3).state.ball
        bfs = counted(monkeypatch, metric, "distances_from")
        assert check_projection_lemma(ball, 0, 2).passed
        assert [base for _, base in bfs] == [0]

    def test_one_kernel_call_names_location_then_largeness(self, surf37, octa, monkeypatch):
        # both hypotheses come from one located_and_large call, which reads
        # each link once; the location precondition is raised first
        ball = build_cover(surf37, 0, 3).state.ball
        # a 4-wheel: its one cycle link has no cycle-link neighbour, so it
        # is 8-located, and it is not locally 5-large
        wheel4 = build_complex([[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1]])
        cases = [(octa, "is_m_located(X, 8)", curvature.is_m_located(octa, 8).witness),
                 (wheel4, "is_locally_k_large(X, 5)",
                  curvature.is_locally_k_large(wheel4, 5).witness)]
        calls, reads, real = [], [], metric.located_and_large
        monkeypatch.setattr(metric, "located_and_large",
                            lambda X, *args: calls.append(X) or real(X, *args))
        for name in ("is_m_located", "is_locally_k_large"):
            monkeypatch.setattr(curvature, name, lambda *args, _name=name: pytest.fail(_name))
        link_masks = SimplicialComplex.link_masks
        monkeypatch.setattr(SimplicialComplex, "link_masks",
                            lambda X, v: reads.append(v) or link_masks(X, v))
        assert check_projection_lemma(ball, 0, 2).passed
        assert calls == [ball] and sorted(reads) == list(ball.vertices)
        for X, name, witness in cases:
            with pytest.raises(PreconditionNotMet) as err:
                check_projection_lemma(X, 0, 1)
            assert (err.value.name, err.value.witness) == (name, witness)

    def test_instance_scan_against_referee(self, icosa, octa, monkeypatch):
        """The instance scan against the sorted-order referee: the same
        instance count and the same first failing configuration.  The
        hypotheses are patched to pass, so the scan runs on the icosahedron,
        which is not 8-located, and on the octahedron, which is not locally
        5-large.  Every configuration of the icosahedron passes; the first
        of the octahedron fails."""
        monkeypatch.setattr(metric, "located_and_large", lambda X, m, k:
                            (passed("is_m_located"), passed("is_locally_k_large"), set()))
        outcomes = {}
        for X in (icosa, octa):
            for o, n in product((0, 1, 2), (1, 2, 3)):
                got = check_projection_lemma(X, o, n)
                ref = naive_projection_lemma(X, o, n)
                assert (got.passed, got.stats["instances"], got.witness) == \
                    (ref.passed, ref.stats["instances"], ref.witness)
                if not got.passed:
                    assert is_violating_configuration(X, o, got.witness)
                outcomes.setdefault(X.name, set()).add((got.passed, got.stats["instances"]))
        assert outcomes == {icosa.name: {(True, 0), (True, 5)}, octa.name: {(False, 1)}}


def is_violating_configuration(X, o, witness):
    """Whether ``witness`` names a configuration of the projection lemma
    around ``o`` whose projected pair breaks an expected relation."""
    dist, adj = distances_from(X, o), X.adjacent
    i, v, y, z, x, yp, zp = (witness[key] for key in
                             ("radius", "v", "y", "z", "x", "y_prime", "z_prime"))
    configuration = (dist[v] == i + 1 and all(dist[u] <= i and adj(u, v) for u in (x, y, z))
                     and not adj(y, z) and adj(x, y) and adj(x, z)
                     and all(dist[t] <= i - 1 and adj(t, x) and adj(t, s)
                             for t, s in ((yp, y), (zp, z))))
    return configuration and not (yp != zp and not adj(yp, z) and not adj(y, zp)
                                  and adj(yp, zp))


class TestDelta:
    def test_path_graph_is_a_tree(self):
        assert delta_four_point(path_complex(5)) == 0

    def test_frozen_oracle_values(self, c4, octa, icosa):
        # values computed by the basepoint-product oracle and frozen here
        assert delta_four_point(c4) == Fraction(1)
        assert delta_four_point(octa) == Fraction(1)
        assert delta_four_point(icosa) == Fraction(1)

    def test_oracle_agreement(self, c4, octa, icosa):
        rng = random.Random(2015)
        inputs = [c4, octa, icosa, gen("tri_torus", 4, 4)]
        inputs += [gen("c_n", n) for n in range(5, 14)]
        for _ in range(30):
            n = rng.randint(4, 12)
            inputs.append(build_complex([[v, rng.randrange(v)] for v in range(1, n)]))
        flags = 0
        while flags < 10:
            X = gen("random_flag", rng.randint(8, 16), rng.choice((0.2, 0.3, 0.4)),
                    rng.randrange(10**6))
            if INF not in distances_from(X, 0):
                inputs.append(X)
                flags += 1
        values = set()
        for X in inputs:
            delta = delta_four_point(X)
            assert delta == naive_delta(X), X.name
            values.add(delta)
        assert len(values) >= 4

    def test_quadruple_referee_on_mid_size(self, gs2, disk37, surf37):
        # too large for the Floyd-Warshall referee: every quadruple instead
        for X in (gs2, gen("tri_torus", 8, 8), disk37, surf37):
            assert delta_four_point(X) == naive_delta_quadruples(X), X.name

    def test_half_integer_value(self):
        # a 5-cycle has delta 1/2
        assert delta_four_point(gen("c_n", 5)) == Fraction(1, 2)

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_random_trees_are_zero_hyperbolic(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 16)
        edges = [[v, rng.randrange(v)] for v in range(1, n)]
        assert delta_four_point(build_complex(edges)) == 0

    def test_vertex_cap(self, gs3):
        with pytest.raises(TooLarge):
            delta_four_point(gs3, cap=50)

    def test_disconnected(self):
        # fewer than four vertices too: connectivity is checked first
        for simplices in ([[0, 1, 2], [3, 4, 5], [6, 7]], [[0], [1]], [[0, 1], [2]],
                          [[0], [2], [5]]):
            with pytest.raises(DisconnectedError, match="needs a connected complex"):
                delta_four_point(build_complex(simplices))

    def test_small_inputs_are_zero(self, triangle):
        assert delta_four_point(triangle) == 0
        assert delta_four_point(build_complex([])) == 0
        assert delta_four_point(build_complex([[3]])) == 0
        assert delta_four_point(build_complex([[0, 1], [1, 2]])) == 0
