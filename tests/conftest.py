import random
import sys
from bisect import insort
from itertools import chain, combinations
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from combcurv import GeneratorSpec, build_complex, generate, is_flag, is_locally_k_large, metric
from combcurv.complexes import SimplicialComplex
from combcurv.formats import load_path

from oracles import naive_wheels_at

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def counted(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that appends the positional
    arguments of each call to the returned list, and forwards every
    argument."""
    calls, fn = [], getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *args, **kwargs: calls.append(args) or fn(*args, **kwargs))
    return calls


def complexes_built(monkeypatch):
    """Record every complex built from now on, in the returned list."""
    built, init = [], SimplicialComplex.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(SimplicialComplex, "__init__", recording)
    return built


def thinness_from(X, o, *targets):
    """``interval_thinness`` over the intervals from ``o`` to each target,
    in target order, on one BFS row of ``o``."""
    dist = metric.distances_from(X, o)
    return metric.interval_thinness(
        X, [layer for o2 in targets for layer in metric.geodesic_layers(X, o, o2, dist)])


def gen(name, *params):
    return generate(GeneratorSpec(name, tuple(params)))


def flip_surface(X, flips, seed):
    """``X``, a flag surface (with or without boundary) of minimum degree
    4 or more, after ``flips`` seeded edge flips that keep it so.

    A flip takes an edge ab on two triangles abc and abd to the edge cd.
    It keeps X flag when c and d have no common neighbour but a and b (so
    they are not adjacent either), and keeps the minimum degree when a and
    b have degree 5 or more.  Edges are drawn until one flips; an input
    with no flippable edge raises."""
    rng = random.Random(seed)
    adj = {v: set(X.neighbors(v)) for v in X.vertices}
    triangles = {frozenset(t) for t in X.simplices(2)}
    edges = sorted(X.simplices(1))
    for _ in range(flips):
        for _ in range(1000):
            i = rng.randrange(len(edges))
            a, b = edges[i]
            cd = [y for y in adj[a] & adj[b] if frozenset((a, b, y)) in triangles]
            if len(cd) != 2 or min(len(adj[a]), len(adj[b])) < 5:
                continue
            c, d = cd
            if adj[c] & adj[d] != {a, b}:
                continue
            break
        else:
            raise ValueError(f"no flippable edge in {X.name}")
        del edges[i]
        insort(edges, (min(c, d), max(c, d)))
        adj[a].discard(b)
        adj[b].discard(a)
        adj[c].add(d)
        adj[d].add(c)
        triangles -= {frozenset((a, b, c)), frozenset((a, b, d))}
        triangles |= {frozenset((a, c, d)), frozenset((b, c, d))}
    return build_complex(sorted(sorted(t) for t in triangles),
                         name=f"{X.name}_flip_{flips}_{seed}")


def suspension(Y):
    """The suspension of a 2-complex, poles ``Y.vertex_count`` and the id
    after it: each triangle of Y coned from both poles."""
    poles = (Y.vertex_count, Y.vertex_count + 1)
    return build_complex([t + (p,) for t in Y.simplices(2) for p in poles])


def cone(Y):
    """The cone over ``Y`` from the apex ``Y.vertex_count``, whose link is
    ``Y`` with its vertices renamed by rank; over a dwheel, its 1-ball holds
    every dwheel."""
    apex = Y.vertex_count
    return build_complex([s + (apex,) for s in Y.maximal_simplices()] or [[apex]])


def wedge(X, x, Y, y):
    """The wedge of X and Y at the vertices x and y: Y's vertices other
    than y are renamed above X, ``X.vertex_count`` on in their order, and y
    becomes x.

    Lemma: flagness, local 5-largeness and 8-location survive a wedge at a
    vertex.  Call the wedge vertex w.  No edge joins the two sides but at
    w, so each side is a full subcomplex, and every clique lies in one
    side, where it spans a simplex when that side is flag.  The link of a
    vertex other than w is its link in its side.  The link of w is the
    disjoint union of the links of x and y, with no edge between them, and
    a clique or a chordless cycle, being connected, lies in one of them;
    the link of any larger simplex lies in one side.  So every link is
    5-large when those of X and Y are.  A wheel's rim is a cycle in the
    link of its centre, so each wheel lies in one side, and a dwheel, two
    wheels on the edge of their two centres, lies in the side of that edge.
    That side is full, so the dwheel and its boundary length are the same
    there, and the side's 8-location puts it in a 1-ball, which lies in a
    1-ball of the wedge."""
    assert X.has_vertex(x) and Y.has_vertex(y), (x, y)
    above = iter(range(X.vertex_count, X.vertex_count + len(Y.vertices)))
    ids = {v: x if v == y else next(above) for v in Y.vertices}
    simplices = X.maximal_simplices() + [[ids[v] for v in s] for s in Y.maximal_simplices()]
    return build_complex(simplices, name=f"wedge({X.name},{x},{Y.name},{y})")


def skeleton_cone(Y):
    """The cone over the 2-skeleton of ``Y`` (isolated vertices kept), from
    the apex ``Y.vertex_count``, whose link is that 2-skeleton."""
    return cone(build_complex(chain(*(Y.simplices(d) for d in range(3)))))


def dwheel_complex(k, l, junction):
    """Stand-alone complex consisting of one (k, l)-dwheel: two cone fans
    glued along the (apex, apex', shared) pattern."""
    v0, v0p, w = 0, 1, 2
    arc1 = tuple(range(3, 3 + k - 2))
    if junction == "identified":
        arc2 = (arc1[0],) + tuple(range(3 + k - 2, 3 + k - 2 + l - 3))
    else:
        arc2 = tuple(range(3 + k - 2, 3 + k - 2 + l - 2))
    rim1 = arc1 + (w, v0p)
    rim2 = arc2 + (w, v0)
    faces = []
    for center, rim in ((v0, rim1), (v0p, rim2)):
        for i in range(len(rim)):
            faces.append((center, rim[i], rim[(i + 1) % len(rim)]))
    if junction == "edge":
        faces.append((arc1[0], arc2[0]))
    return build_complex(faces), arc1, arc2


def suspended_torus():
    """The suspension of ``tri_torus(4, 4)``, poles 16 and 17: every
    triangle lies on two tetrahedra and every edge link is a cycle, but the
    links of the poles are tori (Euler characteristic 0)."""
    return suspension(gen("tri_torus", 4, 4))


# the triangular bipyramid: apexes 0 and 4 of degree 3 around the equator 1 2 3
BIPYRAMID = [(0, 1, 2), (0, 2, 3), (0, 1, 3), (1, 2, 4), (2, 3, 4), (1, 3, 4)]


def pinched_pair(tris, poles):
    """Two copies of a sphere glued at two non-adjacent vertices ``poles``:
    every edge on two triangles, connected, Euler characteristic 2, yet
    not a sphere."""
    top = max(v for t in tris for v in t)
    copy = {v: v if v in poles else v + top + 1 for t in tris for v in t}
    return build_complex(list(tris) + [[copy[v] for v in t] for t in tris])


def pinched_octahedra():
    return pinched_pair(sorted(gen("octahedron").simplices(2)), (0, 5))


def cone_over_cycles(*cycles):
    """The cone from vertex 0 over disjoint cycles, each given as its
    vertices in order: the link of 0 is their union, a 3-cycle hollow."""
    return build_complex([(0, c[i - 1], c[i]) for c in cycles for i in range(len(c))])


def two_cycles_cone():
    """The link of vertex 0 is a 4-cycle and a 5-cycle whose vertices
    interleave in id order, neither starting at its least vertex."""
    return cone_over_cycles((5, 2, 8, 3), (9, 1, 4, 7, 6))


def hollow_triangle_cone():
    """The link of vertex 0 is the hollow triangle 2-5-7 and the 4-cycle
    6-1-3-4: the three are pairwise adjacent in X but span no triangle."""
    return cone_over_cycles((5, 2, 7), (6, 1, 3, 4))


def suspended_pinched_octahedra():
    """The suspension of ``pinched_octahedra()``, poles 11 and 12: every
    triangle lies on two tetrahedra, but the link of vertex 0 is the
    suspension of two disjoint 4-cycles, whose poles are pinch points."""
    return suspension(pinched_octahedra())


def bd4_pair(shared):
    """Two boundaries of the 4-simplex sharing their vertices below
    ``shared``.  Sharing vertex 0 alone (1), every edge link is a
    triangle, but the link of vertex 0 is two disjoint spheres.  Sharing
    the edge 0-1 (2), every triangle still lies on two tetrahedra, but
    that edge's link is two triangles, and the link of vertex 0 is two
    spheres sharing a vertex (Euler characteristic 3)."""
    tets = sorted(gen("boundary_4_simplex").simplices(3))
    return build_complex(tets + [[v if v < shared else v + 5 - shared for v in t] for t in tets])


def less_some(X, dim, rng, share=1 / 8):
    """X less about ``share`` of its ``dim``-simplices (2 or 3) and the
    tetrahedra on them.

    The faces below stay, so each dropped simplex is an empty clique: X is
    no longer flag, and for ``dim`` 2 a cycle of a vertex link can have a
    chord in X that is not a link edge."""
    dropped = {s for s in sorted(X.simplices(dim)) if rng.random() < share}
    faces = {d: X.simplices(d) for d in range(4)}
    faces[dim] = faces[dim] - dropped
    if dim == 2:
        faces[3] = [t for t in faces[3] if dropped.isdisjoint(combinations(t, 3))]
    return SimplicialComplex(X.vertex_count, faces, name=X.name)


def tetrahedron_less_face():
    """The boundary of a tetrahedron less the triangle 1-2-3: the link of
    vertex 0 is the hollow triangle on 1, 2 and 3, and those three vertices
    are pairwise adjacent in X but span no triangle."""
    return build_complex([[0, 1, 2], [0, 1, 3], [0, 2, 3]])


def mixed_star():
    """A tetrahedron 0-1-2-3 with an edge 3-4, a triangle 0-1-5 and an
    isolated vertex 6: the link of 0 has the maximal edge (0, 3) in link
    ranks, the link of 3 the maximal vertex (3,), the link of 2 is one
    triangle, and the links of 4, 5 and 6 have dimension 0, 1 and -1."""
    return build_complex([[0, 1, 2, 3], [3, 4], [0, 1, 5], [6]])


def glued_tetrahedra():
    """Two tetrahedra sharing the triangle 1-2-3: the link of vertex 0 is
    one triangle, whose edges lie on one triangle each."""
    return build_complex([[0, 1, 2, 3], [1, 2, 3, 4]])


def link_inputs():
    """The inputs of the link-graph and wheel-table referee tests, each
    with its longest rim length.  The apex link of a cone is its base: a
    sparse draw's 2-skeleton, with rims of up to 9 vertices, a long cycle,
    or the 4 x 4 grid graph, whose rims have 4, 8 and 10."""
    yield gen("cell600"), 8
    for seed in range(30):
        yield gen("random_flag", 12, 0.35, seed), 8
    for k, l in ((5, 5), (6, 5), (6, 6), (7, 5)):
        yield cone(dwheel_complex(k, l, "identified")[0]), 8
    yield two_cycles_cone(), 8
    yield hollow_triangle_cone(), 8
    grid = [(i, i + 1) for i in range(16) if i % 4 < 3] + [(i, i + 4) for i in range(12)]
    for Y in (gen("c_n", 9), gen("c_n", 10), build_complex(grid)):
        yield cone(Y), 10
    rng = random.Random(5)
    for n in (14, 14, 15, 15, 16, 16):
        Y = gen("random_flag", n, 4 / n, rng.randrange(10**6))
        yield skeleton_cone(Y), 10


@pytest.fixture(scope="session")
def link_wheels():
    """``naive_wheels_at`` run once per vertex of each ``link_inputs()``
    input, to its longest rim length: a list of (input, that length,
    {vertex: its wheels})."""
    return [(X, top, {v: naive_wheels_at(X, v, 4, top) for v in X.vertices})
            for X, top in link_inputs()]


@pytest.fixture(scope="session")
def tetra():
    return gen("tetrahedron")


@pytest.fixture(scope="session")
def triangle():
    return gen("triangle")


@pytest.fixture(scope="session")
def c4():
    return gen("c_n", 4)


@pytest.fixture(scope="session")
def c5():
    return gen("c_n", 5)


@pytest.fixture(scope="session")
def octa():
    return gen("octahedron")


@pytest.fixture(scope="session")
def icosa():
    return gen("icosahedron")


@pytest.fixture(scope="session")
def bd4():
    return gen("boundary_4_simplex")


@pytest.fixture(scope="session")
def gs2():
    return gen("geodesic_sphere", 2)


@pytest.fixture(scope="session")
def gs3():
    return gen("geodesic_sphere", 3)


@pytest.fixture(scope="session")
def torus66():
    return gen("tri_torus", 6, 6)


def load_degree7_fixture(name):
    """Ingest a degree-7 surface fixture, re-verifying its advertised
    properties (flag, locally 7-large) before handing it to tests."""
    parsed = load_path(FIXTURE_DIR / f"{name}.cplx")
    X = parsed.complex
    assert is_flag(X).passed, f"fixture {name} is not flag"
    assert is_locally_k_large(X, 7).passed, f"fixture {name} is not locally 7-large"
    return X


@pytest.fixture(scope="session")
def disk37():
    return load_degree7_fixture("disk37_r3")


@pytest.fixture(scope="session")
def surf37():
    return load_degree7_fixture("surf37_psl2_7")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, status, elapsed in sorted(RESULTS):
        terminalreporter.write_line(f"{num:2d}. {name}: {status} ({elapsed:.2f} s)")
