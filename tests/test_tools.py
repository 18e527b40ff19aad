"""Scripts under tools/."""

import importlib.util
from collections import Counter
from itertools import islice
from pathlib import Path

from conftest import FIXTURE_DIR

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_fixtures_reproduces_the_fixtures(tmp_path, monkeypatch):
    make_fixtures = load_tool("make_fixtures")
    monkeypatch.setattr(make_fixtures, "FIXTURES", tmp_path)
    make_fixtures.main()
    names = ["disk37_r3.cplx", "surf37_psl2_7.cplx"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (FIXTURE_DIR / name).read_bytes(), name


def test_cover_digest_meets_both_covering_failures():
    # the corpus starts with the warned draws: 3 draws x 3 bases x 4 radii
    cover_digest = load_tool("cover_digest")
    runs = list(islice(cover_digest.corpus(), 36))
    hexdigest, counts = cover_digest.digest(runs)
    assert hexdigest == "6fe0c93cd56e2ccd55860025af77572782641269b8891f1ba0f9d0fa1f80b65b"
    assert counts["runs"] == 36 and counts["warned"] > 0
    assert counts["R: collides"] > 0 and counts["R: has no preimage"] > 0
    assert cover_digest.digest(runs)[0] == hexdigest


def test_manifold_digest_meets_every_vertex_link_reason():
    # the named complexes and four soups: the 600-cell, bd4, the glued bd4
    # pairs and the suspensions reach each reason of the vertex-link stage
    manifold_digest = load_tool("manifold_digest")
    items = list(islice(manifold_digest.complexes(), 12))
    hexdigest, counts = manifold_digest.digest(items)
    assert hexdigest == "af27e0a220bd18072367d2290d8c0b6a1e31cc0b5ed4031bb81405578275ab0d"
    assert counts["complexes"] == 12
    reasons = {key for key in counts if key.startswith("vertex link: ")}
    assert len(reasons) == 4, reasons


def test_local_digest_repeats(capsys, monkeypatch):
    # the named generators up to gs2: passes, failures and refusals
    local_digest = load_tool("local_digest")
    items = list(islice(local_digest.corpus(), 9))
    hexdigest, counts = local_digest.digest(items)
    assert counts["complexes"] == 9 and counts["calls"] == 9 * 16
    assert counts["passed"] and counts["failed"] and counts["refused"]
    assert counts["wheels"] and counts["dwheels"]
    # the pair closures by length range: a length read alone, and 6 .. 8
    # closed in one call
    closures = {key: n for key, n in counts.items() if key.startswith("chordless_cycles ")}
    assert closures["chordless_cycles 4"] and closures["chordless_cycles 6-8"], closures
    assert local_digest.digest(items) == (hexdigest, counts)
    # main prints them last, after the digest and the other counts
    monkeypatch.setattr(local_digest, "corpus", lambda: iter(items))
    assert local_digest.main() == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == hexdigest
    assert out[-len(closures):] == [f"{key} {n}" for key, n in closures.items()]


def test_local_digest_names_empty_triangles_and_tetrahedra():
    # the draws less some triangles or tetrahedra reach both witness sizes
    # below the 5-cliques, so each of the flagness counts can fail
    local_digest = load_tool("local_digest")
    items = [(label, X, local_digest.calls)
             for label, X in islice(local_digest.non_flag_draws(), 30)]
    counts = local_digest.digest(items)[1]
    assert counts["empty 3-cliques"] and counts["empty 4-cliques"]


def test_local_digest_lists_cycles_and_rims_of_9_and_10_vertices():
    # the long calls on the sparse draws and their cones read both lengths
    local_digest = load_tool("local_digest")
    items = list(islice(local_digest.sparse_draws(), 10))
    cycles = Counter(len(c) for _, X in items for c in local_digest.full_cycles(X, 9, 10, cap=10))
    rims = Counter(len(w.rim) for _, X in items for w in local_digest.wheels(X, 9, 10))
    assert cycles[9] and cycles[10] and rims[9] and rims[10], (cycles, rims)


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    code_lines = load_tool("code_lines")
    sample = '''"""Module docstring
over two lines."""

import os  # a comment

# a comment line


class A:
    """Class docstring."""

    x = """a string
that is code"""

    def f(self):
        """Function docstring."""
        "a later string is code"
        return os.sep
'''
    # import, class, the two lines of x, def, the later string, return
    assert code_lines.code_lines(sample) == 7


def test_code_lines_print_the_package_total_then_the_test_and_tool_layers(capsys):
    code_lines = load_tool("code_lines")
    assert code_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [name for _n, name in rows[-3:]] == ["total", "tests/*.py", "tools/*.py"]
    assert int(rows[-3][0]) == sum(int(n) for n, _name in rows[:-3])
    for n, layer in rows[-2:]:
        paths = TOOLS.parent.glob(layer)
        assert int(n) == sum(code_lines.code_lines(p.read_text()) for p in paths) > 0, layer
