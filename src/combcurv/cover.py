"""Inductive construction of universal-cover balls.

Every stage grows from the one before by one expansion.  Stage 0 is the
base vertex alone.  An expansion collects the uncovered link directions on
the current boundary sphere, glues equivalence classes of them (transitive
closure of "same target, adjacent bases": one walk per target over the
components of its bases in the ball) as new vertices, wires the prescribed
edges, and builds the ball as the flag completion of its graph (the clique
complex, capped at 4 vertices).  From stage 0 every neighbour z of the base
is its own class and classes sort by z, so the stage-1 ball is the closed
star of the base.  The new ids all exceed the old ones, and by (P) below the
old ball is the clique complex of the graph induced on the old ids, so a
clique of the new ball is old exactly when its largest vertex is: the
completion carries the old triangles and tetrahedra and enumerates only the
cliques whose largest vertex is new.

(P) is a lemma of the expansion, not a check: the birth layers are the
metric layers, and the previous stage ball is the induced ball one radius
down.  An expansion of the ball B_i keeps every old edge, and joins each
new vertex only to its member bases in the sphere S_i and to other new
vertices.  So no distance from the base changes, each new vertex lies at
distance i + 1, and the induced subgraph on the old vertices is the old
graph.  A clique complex restricted to a vertex set is the clique complex of
the induced subgraph, so B_i is the induced ball of radius i.  By induction
from stage 0, (P) holds for every state that ``expand_ball`` returns, and
every earlier stage ball is an induced ball of the current one.  Two
invariants are verified once per stage:

    (Q) the ball satisfies the descent property one radius below its own.
        The birth layers are its base row, so no stage runs a BFS.  (T) and
        (V) at radius i read only the ball of radius i + 1, and by (P) the
        previous ball is the induced ball one radius down, so its results
        at the lower radii carry over.  Stage 0 carries the empty report,
        so each radius is read once, at the stage that adds it.  At the
        newest radius i the expansion decides (T) and reduces (V) to the
        shortcut test:
        - (T) holds by construction.  The vertices at distance i + 1 are
          the new classes, so an edge inside that sphere joins two
          classes, and the expansion adds it only when they share a base
          w at radius i.  The ball is a clique complex, so it holds the
          triangle (w, c1, c2).  (T) is built as a pass that counts the
          edges of the sphere, as a scan would, read off the neighbours
          of its vertices: the ids from the first one born at i + 1;
        - (V) is the shortcut test.  A new class is adjacent only to its
          member bases and to other new classes, so its neighbours below
          radius i + 1 are its bases, sorted, and the new classes are in
          class order: (V) walks the pairs that ``verify_equiv_shortcut``
          walks.  An adjacent pair passes both; a non-adjacent pair
          passes each exactly when another base of the class is adjacent
          to both.  So both fail at the same pair, after as many pairs.
          (V) is scanned, and ``build_cover`` runs the shortcut test only
          at the stage its report names;
    (R) the sheet map restricts on 1-balls to isomorphisms onto image spans,
        and onto full 1-balls at interior vertices.  The base and every
        ball are flag (the lemma below), so an injective map that matches
        edges both ways matches simplices; no stage tests flagness again.
        Edges are compared by counting.
        Every ball edge maps to a base edge (the expansion joins a new
        vertex only to bases and classes with adjacent targets), which one
        pass over the edges confirms per stage.  So where the map is
        injective on a 1-ball, the edges match both ways exactly when the
        triangles at v and the base triangles at f(v) inside the image are
        as many, and the image is full exactly when v and f(v) have the
        same degree.  One pass over the ball's vertices, in sorted order,
        counts each 1-ball and scans only one that the count does not pass,
        for its first offending span edge.

So the per-stage checks read no face above the edges, except the triangle
counts of (R).

Lemma: every stage ball is flag.  A ball is the clique complex of its
graph capped at 4 vertices, so it is flag exactly when it has no 5-clique.
Every ball edge maps to a base edge, whose two ends differ, so the sheet
map is injective on each clique of the ball and maps it onto a clique of
the base.  The base is flag, so its cliques have at most 4 vertices, and
so do the ball's.  The completion records that flagness as it enumerates
the cliques, so no stage ball runs a flag test: (R) and the interior
checks read the record.

The (Q) and (R) results of the last stage are the ones ``build_cover``
reports; the final ball is not checked a second time.  Location and
largeness of the interior are read on the previous stage ball, which by (P)
is the induced ball on the interior (at radius 1, the lone base vertex), so
no span is built for them either, and both come from one read of each of its
vertex links (``located_and_large``).

Constructions whose input fails the entry hypotheses (8-location, local
5-largeness) still run, but invariant failures are then recorded as
expected-failure diagnostics instead of raising.  The hypotheses decide
nothing else, so they are read only when an invariant fails on a state with
no warnings yet: a failure on an input that meets them raises, so a state
with warnings has found them unmet.  A build whose invariants hold reads
them never, and one that warns reads them once.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, replace
from itertools import combinations
from typing import ClassVar, Optional

from .complexes import SimplicialComplex, flag_completion, is_flag
from .curvature import check_covering_map, located_and_large
from .errors import HypothesisViolation, InvariantViolation, NotACovering, NotFlag, TooLarge
from .metric import SDReport, geodesic_layers, interval_thinness, vertex_condition
from .verdicts import Verdict, failed, passed

DEFAULT_STAGE_LIMIT = 10
DEFAULT_VERTEX_LIMIT = 100_000


@dataclass(frozen=True)
class ZClass:
    """One equivalence class of uncovered directions: all members share the
    same target vertex ``z``; their bases are connected through the boundary
    sphere."""

    z: int
    members: tuple  # sorted (base, z) pairs

    @property
    def bases(self) -> tuple:
        return tuple(b for (b, _z) in self.members)


@dataclass(frozen=True)
class CoverState:
    """One stage of the cover construction.

    Cover vertex ids are stable across stages; the base vertex is id 0 at
    every stage (``base`` is that constant, not a field) and ``birth[v]``
    (the stage at which v appeared) equals its distance from the base.
    ``ball`` is the clique complex of its graph, so its vertices and edges
    determine it, and every induced ball of it too.
    ``sd`` and ``covering`` are this stage's (Q) report and (R) verdict;
    a new stage carries the previous report until its own is verified,
    which adds the newest radius to the carried ones.  Stage 0 holds the
    empty report (``max_radius`` -1) and no verdict.
    (P) is a lemma of the expansion (see the module docstring), so no
    earlier ball is kept; a violation names 'Q' or 'R'.  Whether the target
    meets the entry hypotheses is not stored: it is read only when an
    invariant fails (``_apply_invariants``).
    """

    base: ClassVar[int] = 0
    stage: int
    ball: SimplicialComplex
    sheet_map: tuple
    target: SimplicialComplex
    birth: tuple
    sd: SDReport
    last_classes: tuple = ()
    warnings: tuple = ()
    covering: Optional[Verdict] = None

    def sphere_ids(self, radius: int) -> list:
        return [v for v in range(self.ball.vertex_count) if self.birth[v] == radius]

    def interior_ids(self) -> list:
        return [v for v in range(self.ball.vertex_count) if self.birth[v] < self.stage]

    def fibers(self) -> dict:
        out = defaultdict(int)
        for x in self.sheet_map:
            out[x] += 1
        return dict(out)

    def to_json(self):
        return {
            "name": f"cover_ball_stage_{self.stage}",
            "maximal_simplices": [list(s) for s in self.ball.maximal_simplices()],
            "sheet_map": list(self.sheet_map),
            "stage": self.stage,
            "base": self.base,
        }


def _verify_invariants(state: CoverState):
    """Check (Q) and (R) on a state.

    Returns the (Q) report, the (R) verdict and the list of violations.
    A (Q) violation is listed only at the newest radius, (T) before (V):
    one at a lower radius was listed, as a warning, by the stage that added
    it, since a state that meets the entry hypotheses raises instead.
    """
    problems = []
    ball = state.ball

    # (Q): descent property one radius below the current stage, on the
    # birth layers, which (P) makes the base row.  A carried report holds
    # the lower radii.  At the newest radius the expansion makes (T) hold
    # on every edge of the newest sphere, and only (V) is scanned.
    birth, i = state.birth, state.stage - 1
    results = dict(state.sd.results)
    if i > 0:
        # by (P) the newest sphere is the ids from the first one born at i + 1
        new = range(bisect_left(birth, i + 1), len(birth))
        sphere_edges = sum(u in new for v in new for u in ball.neighbors(v)) // 2
        results[i] = passed("sd_T", edges_checked=sphere_edges), vertex_condition(ball, birth, i)
        problems += [("Q", r.witness, r.detail) for r in results[i] if not r.passed][:1]
    sd = SDReport(base=state.base, max_radius=i, results=results)

    # (R): sheet map is a local isomorphism, full at interior vertices.  The
    # target and the ball are flag, so edges decide it.
    try:
        check_covering_map(state.sheet_map, ball, state.target, state.interior_ids())
        covering = passed("covering_condition")
    except NotACovering as exc:
        covering = failed("covering_condition",
                          {"kind": "local_isomorphism", "vertex": exc.vertex},
                          detail=exc.reason)
        problems.append(("R", covering.witness, covering.detail))
    return sd, covering, problems


def _meets_hypotheses(X: SimplicialComplex) -> bool:
    """The entry hypotheses on the base: 8-location and local 5-largeness."""
    return all(located_and_large(X, 8, 5)[:2])


def _apply_invariants(state: CoverState) -> CoverState:
    sd, covering, problems = _verify_invariants(state)
    # a failing invariant raises on a base that meets the hypotheses, so a
    # state that already carries warnings has found them unmet
    if problems and not state.warnings and _meets_hypotheses(state.target):
        which, witness, detail = problems[0]
        raise InvariantViolation(which, witness, detail)
    diags = tuple(HypothesisViolation(w, wit, det) for (w, wit, det) in problems)
    return replace(state, warnings=state.warnings + diags, sd=sd, covering=covering)


def _base_state(X: SimplicialComplex, base: int) -> CoverState:
    """Stage-0 state: the base vertex alone.  The input must be flag."""
    if not X.has_vertex(base):
        raise ValueError(f"vertex {base} not in complex")
    fv = is_flag(X)
    if not fv.passed:
        raise NotFlag(f"cover construction needs a flag complex: {fv.detail}")
    return CoverState(stage=0, ball=flag_completion(1, (), name="cover_ball_stage_0"),
                      sheet_map=(base,), target=X, birth=(0,),
                      sd=SDReport(base=0, max_radius=-1))


def expand_ball(state: CoverState, vertex_limit: int = DEFAULT_VERTEX_LIMIT) -> CoverState:
    """Grow the ball by one radius.

    New vertices are the equivalence classes of uncovered directions on the
    boundary sphere; edges follow the gluing rules (base to class, and class
    to class through a common base with adjacent targets); higher simplices
    come from flag completion.

    ``state`` must satisfy (P), as stage 0 and every state that
    ``expand_ball`` returns do; the returned state then satisfies it too
    (the lemma in the module docstring).
    """
    X = state.target
    ball = state.ball
    i = state.stage
    f = state.sheet_map

    bases_of = defaultdict(list)
    for w in state.sphere_ids(i):
        covered = {f[u] for u in ball.neighbors(w)}
        for z in X.neighbors(f[w]) - covered:
            bases_of[z].append(w)

    # the classes of z are the components of its bases in the ball
    classes = []
    for z, bases in bases_of.items():
        left = set(bases)
        for w in bases:
            if w in left:
                left.discard(w)
                component, todo = [w], [w]
                while todo:
                    near = ball.neighbors(todo.pop()) & left
                    left -= near
                    component += near
                    todo += near
                classes.append(ZClass(z=z, members=tuple((b, z) for b in sorted(component))))
    classes = tuple(sorted(classes, key=lambda cls: cls.members[0]))

    n_old = ball.vertex_count
    if n_old + len(classes) > vertex_limit:
        raise TooLarge(f"cover ball would exceed {vertex_limit} vertices")
    edges = set(ball.simplices(1))
    at_base = defaultdict(list)
    for cid, cls in enumerate(classes, n_old):
        for (w, _z) in cls.members:
            edges.add((w, cid))
            at_base[w].append((cid, cls.z))
    for here in at_base.values():
        for (c1, z1), (c2, z2) in combinations(here, 2):
            if X.adjacent(z1, z2):
                edges.add((c1, c2))

    # by (P) the old ball is the induced ball on the old ids, all below the new ones
    new_ball = flag_completion(n_old + len(classes), edges, name=f"cover_ball_stage_{i + 1}",
                               previous=ball)

    new_state = CoverState(
        stage=i + 1,
        ball=new_ball,
        sheet_map=f + tuple(cls.z for cls in classes),
        target=X,
        birth=state.birth + (i + 1,) * len(classes),
        last_classes=classes,
        warnings=state.warnings,
        sd=state.sd,
    )
    return _apply_invariants(new_state)


def verify_equiv_shortcut(state: CoverState) -> Verdict:
    """Every two members of a class admit a shortcut: a third class member
    whose base is adjacent to (or equal to) both bases.

    Degenerate shortcuts (the shortcut base being one of the two, which
    requires the two bases to be adjacent) are accepted and counted.
    """
    ball = state.ball
    pairs = 0
    degenerate = 0
    for cls in state.last_classes:
        bases = cls.bases
        for a in range(len(bases)):
            for b in range(a + 1, len(bases)):
                u, w = bases[a], bases[b]
                pairs += 1
                hit = None
                for y in bases:
                    if (y == u or ball.adjacent(y, u)) and (y == w or ball.adjacent(y, w)):
                        hit = y
                        break
                if hit is None:
                    return failed(
                        "equiv_shortcut",
                        {"kind": "missing_shortcut", "z": cls.z, "pair": [u, w],
                         "bases": list(bases)},
                        detail=f"no shortcut between bases {u} and {w} for target {cls.z}",
                        pairs=pairs)
                if hit in (u, w):
                    degenerate += 1
    return passed("equiv_shortcut", pairs=pairs, degenerate=degenerate)


@dataclass(frozen=True)
class CoverReport:
    """Outcome of a multi-stage construction."""

    state: CoverState
    stage_stats: tuple
    sd: SDReport
    covering: Verdict
    shortcut: Verdict
    interior_located: Verdict
    interior_large: Verdict
    max_interior_thinness: int

    @property
    def passed(self) -> bool:
        return (self.sd.passed and self.covering.passed and self.shortcut.passed
                and not self.state.warnings)

    def to_json(self):
        return {
            "check": "build_cover",
            "status": "pass" if self.passed else "fail",
            "stage_stats": [list(s) for s in self.stage_stats],
            "sd": self.sd.to_json(),
            "covering": self.covering.to_json(),
            "shortcut": self.shortcut.to_json(),
            "interior_located": self.interior_located.to_json(),
            "interior_large": self.interior_large.to_json(),
            "max_interior_thinness": self.max_interior_thinness,
            "fibers": {str(k): v for k, v in sorted(self.state.fibers().items())},
            "warnings": [str(w) for w in self.state.warnings],
        }


def build_cover(X: SimplicialComplex, base: int, radius: int,
                stage_limit: int = DEFAULT_STAGE_LIMIT,
                vertex_limit: int = DEFAULT_VERTEX_LIMIT) -> CoverReport:
    """Run the construction out to the requested radius, every stage by
    one expansion from stage 0.

    The descent property and the covering condition are the ones the last
    stage verified.  The shortcut verdict reported is that of the first
    stage that fails it, or else of the last stage.  At every stage the
    shortcut test and (V) at the newest radius fail together (see the
    module docstring), and (T) never fails, so the first stage that misses
    a shortcut is the first whose (Q) report fails: the shortcut test runs
    at that stage or at the last, once per build.  On top of
    them the final ball gets location and largeness of the interior (the
    previous stage ball), and interval thinness from the base to every
    interior vertex."""
    if radius < 1:
        raise ValueError("radius must be at least 1")
    if radius > stage_limit:
        raise TooLarge(f"radius {radius} above stage limit {stage_limit}")
    state = _base_state(X, base)
    stats = []
    shortcut = passed("equiv_shortcut", pairs=0, degenerate=0)
    while state.stage < radius:
        previous, state = state, expand_ball(state, vertex_limit=vertex_limit)
        # the first stage that misses a shortcut is the first whose (Q)
        # fails; only it, or else the last stage, is reported
        if shortcut.passed and (not state.sd.passed or state.stage == radius):
            shortcut = verify_equiv_shortcut(state)
        # stage 1 counts no glued classes: its classes are the base's neighbours
        glued = len(state.last_classes) if state.stage > 1 else 0
        stats.append((state.stage, state.ball.vertex_count, len(state.ball.simplices(1)), glued))

    # by (P) the previous ball is the span of the interior
    interior = previous.ball
    interior_located, interior_large, _ = located_and_large(interior, 8, 5)

    # by (P) the birth stages are the base row, so no BFS runs; [1:] drops the base
    thin, _pair = interval_thinness(state.ball, (
        layer for v in state.interior_ids()[1:]
        for layer in geodesic_layers(state.ball, 0, v, state.birth)))

    return CoverReport(
        state=state,
        stage_stats=tuple(stats),
        sd=state.sd,
        covering=state.covering,
        shortcut=shortcut,
        interior_located=interior_located,
        interior_large=interior_large,
        max_interior_thinness=thin,
    )
