import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from combcurv import GeneratorSpec, build_complex, generate, is_flag, is_locally_k_large
from combcurv.formats import load_path

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def gen(name, *params):
    return generate(GeneratorSpec(name, tuple(params)))


def suspended_torus():
    """The suspension of ``tri_torus(4, 4)``, poles 16 and 17: every
    triangle lies on two tetrahedra and every edge link is a cycle, but the
    links of the poles are tori (Euler characteristic 0)."""
    torus = gen("tri_torus", 4, 4)
    poles = (torus.vertex_count, torus.vertex_count + 1)
    return build_complex([t + (p,) for t in torus.simplices(2) for p in poles])


def bd4_pair_at_vertex():
    """Two boundaries of the 4-simplex sharing vertex 0 only: every edge
    link is a triangle, but the link of vertex 0 is two disjoint spheres."""
    tets = sorted(gen("boundary_4_simplex").simplices(3))
    return build_complex(tets + [[v and v + 4 for v in t] for t in tets])


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
