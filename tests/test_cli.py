"""CLI behavior: exit codes, JSON shape, file handling."""

import ast
import importlib
import inspect
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import combcurv
from combcurv import complexes, manifold
from combcurv.cli import HANDLERS, build_parser, main
from combcurv.errors import PreconditionNotMet
from combcurv.formats import dump_path, load_path
from combcurv.metric import DELTA_VERTEX_CAP, delta_four_point
from combcurv.verdicts import passed

from conftest import complexes_built, counted, gen, suspension
from oracles import is_full, naive_link


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for spec in ("icosahedron", "boundary_4_simplex"):
        p = tmp_path / f"{spec}.cplx"
        assert main(["gen", spec, "-o", str(p)]) == 0
        paths[spec] = str(p)
    p = tmp_path / "s2.cplx"
    assert main(["gen", "geodesic_sphere", "2", "-o", str(p)]) == 0
    paths["s2"] = str(p)
    p = tmp_path / "c4.cplx"
    assert main(["gen", "c_n", "4", "-o", str(p)]) == 0
    paths["c4"] = str(p)
    p = tmp_path / "two_points.cplx"
    p.write_text("0\n1\n")
    paths["two_points"] = str(p)
    p = tmp_path / "empty.json"
    p.write_text('{"maximal_simplices": []}')
    paths["empty"] = str(p)
    return paths


def test_check_m_and_k_on_icosahedron(files, capsys):
    code = main(["check", "--m", "8", "--k", "5", files["icosahedron"]])
    out = capsys.readouterr().out
    assert code == 1
    assert "[pass] is_locally_k_large" in out
    assert "[fail] is_m_located" in out
    assert "(5,5)-dwheel" in out


def test_check_json_witness(files, capsys):
    code = main(["--json", "check", "--m", "8", files["icosahedron"]])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    (verdict,) = doc["verdicts"]
    assert verdict["check"] == "is_m_located"
    assert verdict["status"] == "fail"
    assert verdict["witness"]["dwheel"]["boundary_length"] == 6
    assert "elapsed_ms" not in verdict["stats"]


def test_sphere_56_check(files):
    assert main(["check", "--sphere-56", files["s2"]]) == 0
    assert main(["check", "--sphere-56", files["icosahedron"]]) == 1


def test_theorem_b_negative(files, capsys):
    code = main(["theorem-b", files["boundary_4_simplex"]])
    assert code == 1
    assert "five_six_star" in capsys.readouterr().out


def test_validate_json(files, capsys):
    code = main(["--json", "validate", files["boundary_4_simplex"]])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["report"]["stages"]["pseudomanifold"]["status"] == "pass"


def test_cover_roundtrip(files, tmp_path, capsys):
    out = tmp_path / "ball.json"
    code = main(["cover", "--base", "0", "--radius", "4", "--out", str(out), files["c4"]])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["stage"] == 4
    assert len(doc["sheet_map"]) == 9


def test_sd_exit_codes(files):
    assert main(["sd", "--base", "0", "--n", "1", files["c4"]]) == 1
    assert main(["sd", "--base", "0", "--n", "2", files["icosahedron"]]) == 0


@pytest.mark.parametrize("argv,name", [
    (["check", "--k", "0"], "icosahedron"),
    (["check", "--m", "0"], "icosahedron"),
    (["check", "--m", "0", "--k", "5"], "icosahedron"),
    (["sd", "--base", "0", "--n", "0"], "icosahedron"),
    (["sd", "--base", "0", "--n", "-1"], "icosahedron"),
    # no vertex link to look at: k is checked before the vertex loop
    (["check", "--k", "0"], "empty"),
    # the interval walk reads the target's row entry only after checking it
    (["metric", "--base", "0", "--other", "99"], "icosahedron"),
    # connectivity is checked before the fewer-than-four-vertices shortcut
    (["metric", "--delta"], "two_points"),
    # --base and --other come as a pair, also next to --delta
    (["metric", "--delta", "--base", "0"], "icosahedron"),
    (["metric", "--other", "0"], "icosahedron"),
], ids=["k0", "m0", "m0-k5", "sd-n0", "sd-n-negative", "k0-empty", "metric-other-absent",
        "delta-two-points", "metric-base-alone", "metric-other-alone"])
def test_zero_and_negative_parameters_exit_2(files, capsys, argv, name):
    # a 0 is a given value, not a missing one
    assert main([*argv, files[name]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cover_vertex_limit_below_the_stage_1_ball_exits_2(files, capsys):
    argv = ["cover", "--base", "0", "--radius", "1", "--vertex-limit", "-5"]
    assert main([*argv, files["icosahedron"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert errors == ["error: cover ball would exceed -5 vertices"], captured.err


def test_unexpected_exception_exits_3(files, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(HANDLERS, "links", broken)
    assert main(["links", files["c4"]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: boom\n"


def test_metric_delta(files, capsys):
    assert main(["metric", "--delta", files["c4"]]) == 0
    assert "delta: 1" in capsys.readouterr().out


def test_metric_interval(files, capsys):
    assert main(["metric", "--base", "0", "--other", "2", files["c4"]]) == 0
    out = capsys.readouterr().out
    assert "distance: 2" in out
    assert "thinness: 2" in out  # the two middle corners are opposite


def test_delta_cap_defaults_to_the_library_cap():
    args = build_parser().parse_args(["metric", "--delta", "x.cplx"])
    cap = inspect.signature(delta_four_point).parameters["cap"].default
    assert args.delta_cap == cap == DELTA_VERTEX_CAP


def test_metric_requires_a_request(files, capsys):
    assert main(["metric", files["c4"]]) == 2


@pytest.mark.parametrize("given,missing", [("--base", "--other"), ("--other", "--base")])
def test_metric_names_the_missing_half_of_the_pair(files, capsys, given, missing):
    assert main(["metric", "--delta", given, "1", files["c4"]]) == 2
    assert missing in capsys.readouterr().err


def test_lemmas_on_sphere(files):
    assert main(["lemmas", files["s2"]]) == 0


def test_links_on_manifold(files, capsys):
    code = main(["links", files["boundary_4_simplex"]])
    assert code == 1
    assert capsys.readouterr().out.count("[fail]") == 5


def test_gen_to_stdout(capsys):
    assert main(["gen", "tetrahedron"]) == 0
    assert capsys.readouterr().out == "0 1 2 3\n"


def test_gen_unknown(capsys):
    assert main(["gen", "dodecahedron"]) == 2


def test_missing_file(capsys):
    assert main(["validate", "/no/such/file.cplx"]) == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["not-a-command"])
    assert err.value.code == 2


# one golden case of each JSON command (keys of test_golden.COMMANDS; check
# with --flag added), and the library calls that it times, in order
TIMED = {
    "validate": ("bd4", ["validate_closed_3manifold"]),
    "check": ("surf37_psl2_7", ["is_flag", "located_and_large"]),
    "sd": ("surf37_psl2_7", ["check_sd_prime"]),
    "metric": ("surf37_psl2_7", ["interval", "interval_thinness"]),
    "delta": ("gs3", ["delta_four_point"]),
    "cover": ("surf37_psl2_7", ["build_cover"]),
    "links": ("bd4", ["link_verdicts"]),
    "lemmas": ("gs3", ["lemma_verdicts"]),
    "theorem-b": ("bd4", ["verify_theorem_b"]),
}


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory):
    from test_golden import write_inputs

    return write_inputs(tmp_path_factory.mktemp("timed"))


def timing_keys(doc) -> list:
    """Every ``timings`` or ``elapsed_ms`` key at any depth of ``doc``."""
    if isinstance(doc, dict):
        return [k for k in doc if k in ("timings", "elapsed_ms")] + timing_keys(list(doc.values()))
    if isinstance(doc, list):
        return [k for item in doc for k in timing_keys(item)]
    return []


@pytest.mark.parametrize("command", sorted(TIMED))
def test_timings_only_add_a_top_level_object(golden_inputs, command, capsys):
    from test_golden import COMMANDS, FAR

    name, calls = TIMED[command]
    argv = COMMANDS[command] + ([str(FAR[name])] if command == "metric" else [])
    argv += ["--flag"] if command == "check" else []
    docs = []
    for flags in (["--json"], ["--json", "--timings"]):
        main(flags + argv + [str(golden_inputs[name])])
        docs.append(json.loads(capsys.readouterr().out))
    plain, timed = docs
    assert timing_keys(plain) == []
    spent = timed.pop("timings")
    assert timed == plain
    assert list(spent) == ["load"] + calls
    assert all(isinstance(ms, float) and ms >= 0 for ms in spent.values())
    # text output ignores the flag
    outs = []
    for flags in ([], ["--timings"]):
        main(flags + argv + [str(golden_inputs[name])])
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("flags", [[], ["--flag"]])
def test_check_m_times_one_flag_test(golden_inputs, capsys, flags):
    # check --m without --k runs is_m_located, which tests flagness
    # itself; with --flag the CLI first times the is_flag call it prints,
    # and is_m_located reads that test
    path = str(golden_inputs["surf37_psl2_7"])
    assert main(["--json", "--timings", "check", *flags, "--m", "8", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc.pop("timings")) == ["load"] + ["is_flag"] * len(flags) + ["is_m_located"]
    assert main(["--json", "check", *flags, "--m", "8", path]) == 0
    assert doc == json.loads(capsys.readouterr().out)


def test_lemmas_precondition_failure_is_a_fail(files, capsys):
    code = main(["lemmas", files["boundary_4_simplex"]])
    assert code == 1
    assert "precondition" in capsys.readouterr().out


def test_check_flag_and_m_test_flagness_once(golden_inputs, capsys, monkeypatch):
    # with --flag, 8-location reads the printed flag test: one flagness
    # computation on the 600-cell, and the output is the flag verdict's
    # line followed by that of check --m alone
    path = str(golden_inputs["cell600"])
    for flags in ([], ["--json"]):
        assert main(flags + ["check", "--m", "8", path]) == 1
        alone = capsys.readouterr().out
        calls = counted(monkeypatch, complexes, "flag_witness")
        assert main(flags + ["check", "--flag", "--m", "8", path]) == 1
        out = capsys.readouterr().out
        assert len(calls) == 1
        monkeypatch.undo()
        if flags:
            doc, doc_alone = json.loads(out), json.loads(alone)
            assert [v["check"] for v in doc["verdicts"]] == ["is_flag", "is_m_located"]
            assert doc["verdicts"][1:] == doc_alone["verdicts"]
        else:
            assert out == "[pass] is_flag\n" + alone


@pytest.mark.parametrize("argv,message", [
    (["check", "--m", "0"], "location starts at m = 6"),
    (["check", "--k", "5", "--m", "0"], "location starts at m = 6"),
    (["check", "--flag", "--k", "3", "--m", "0"], "largeness starts at k = 4"),
    (["check", "--flag", "--k", "3"], "largeness starts at k = 4"),
], ids=["m0", "k5-m0", "flag-k3-m0", "flag-k3"])
def test_a_bad_k_or_m_is_rejected_before_any_flag_test(files, capsys, monkeypatch, argv, message):
    # a usage error costs no pass over the complex, with or without --flag
    calls = counted(monkeypatch, complexes, "flag_witness")
    assert main([*argv, files["icosahedron"]]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert calls == []


def test_lemmas_checks_each_sphere_once(files, capsys, monkeypatch):
    surface_checks = counted(monkeypatch, manifold, "_surface_failure")
    # a sphere: one closed-surface check, the verdicts of the public checks
    assert main(["--json", "lemmas", files["s2"]]) == 0
    got = json.loads(capsys.readouterr().out)["verdicts"]
    assert len(surface_checks) == 1
    Y = load_path(files["s2"]).complex
    assert got == [manifold.check_sphere_cycle_lemma(Y).to_json(),
                   manifold.check_7cycle_fillings(Y).to_json()]
    # a 3-manifold past its wheel check: one read of the first vertex link,
    # decided by its counts with no closed-surface check, as every edge
    # link is a cycle; its degree check then fails
    surface_checks.clear()
    link_reads = counted(monkeypatch, manifold, "_link_rims")
    monkeypatch.setattr(manifold, "check_wheel_in_link", lambda X: passed("wheel_in_link"))
    assert main(["--json", "lemmas", files["boundary_4_simplex"]]) == 1
    got = json.loads(capsys.readouterr().out)["verdicts"]
    assert (len(link_reads), len(surface_checks)) == (1, 0)
    bd4 = load_path(files["boundary_4_simplex"]).complex
    with pytest.raises(PreconditionNotMet) as exc:
        manifold.check_sphere_cycle_lemma(naive_link(bd4, (0,))[0])
    assert got[1]["detail"] == str(exc.value) == \
        "precondition not met: is_5_6_star_sphere (vertex 0 has degree 3)"


def test_lemmas_runs_one_cycle_search_per_sphere(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "gs4.cplx")
    assert main(["gen", "geodesic_sphere", "4", "-o", path]) == 0
    searches = counted(monkeypatch, manifold, "full_cycles")
    assert main(["--json", "lemmas", path]) == 0
    got = json.loads(capsys.readouterr().out)["verdicts"]
    # the 4- to 6-cycles and the 7-cycles are two slices of one search
    assert [args[1:] for args in searches] == [(4, 7)]
    Y = load_path(path).complex
    assert got == [manifold.check_sphere_cycle_lemma(Y).to_json(),
                   manifold.check_7cycle_fillings(Y).to_json()]


@pytest.fixture(scope="module")
def cell600(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cell600") / "cell600.cplx")
    assert main(["gen", "cell600", "-o", path]) == 0
    return path


def test_links_reads_one_edge_link_pass(cell600, capsys, monkeypatch):
    built = complexes_built(monkeypatch)
    passes = counted(monkeypatch, manifold, "_edge_links")
    assert main(["--json", "links", cell600]) == 1
    # no complex is built but the input
    assert ([Y.counts() for Y in built], len(passes)) == ([(120, 720, 1200, 600)], 1)
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert len(verdicts) == 120
    assert all(v["detail"].startswith("adjacent degree-5") for v in verdicts)


def test_lemmas_builds_a_link_complex_only_past_the_link_checks(tmp_path, capsys,
                                                                 monkeypatch):
    from test_golden import write_inputs

    solid = {name: p for name, p in write_inputs(tmp_path).items()
             if load_path(p).complex.dimension() == 3}
    assert sorted(solid) == ["bd4", "bd4_pair", "bd4_pair_edge", "cell600", "glued_tetrahedra",
                             "mixed_star", "rf15_11", "rf15_12", "susp_pinched_octahedra",
                             "susp_torus44"]
    built = complexes_built(monkeypatch)
    for path in solid.values():
        assert main(["--json", "lemmas", str(path)]) == 1
    capsys.readouterr()
    # past the wheel check, the first vertex link of each fails the sphere
    # or degree check of the edge-link reader
    monkeypatch.setattr(manifold, "check_wheel_in_link", lambda X: passed("wheel_in_link"))
    witnesses = []
    for path in solid.values():
        assert main(["--json", "lemmas", str(path)]) == 1
        witnesses.append(json.loads(capsys.readouterr().out)["verdicts"][-1]["witness"])
    # no complex is built but the inputs
    assert [Y.dimension() for Y in built] == [3] * (2 * len(solid))
    # the witness names the unmet check of the first failing link, with
    # that link verdict's own witness
    checks = set()
    for path, witness in zip(solid.values(), witnesses):
        first = next(r for r in manifold.link_verdicts(load_path(path).complex) if not r.passed)
        check = "link_sphere" if first.witness["kind"] == "vertex_link" else "is_5_6_star_sphere"
        assert witness == {"kind": "precondition", "check": check, "witness": first.witness}
        checks.add(check)
    assert checks == {"link_sphere", "is_5_6_star_sphere"}
    # a link that passes gets one run of the sphere lemmas, on its
    # 1-skeleton in the ids of the complex: no link complex is built
    monkeypatch.setattr(manifold, "_link_verdict", lambda X, v, links: passed("v56"))
    lemma_runs = counted(monkeypatch, manifold, "_sphere_lemmas")
    del built[:]
    assert main(["--json", "lemmas", str(solid["bd4"])]) == 0
    assert [Y.dimension() for Y in built] == [3] + [1] * 5
    bd4 = load_path(solid["bd4"]).complex
    assert [(Y.vertices, Y.dimension()) for (Y,) in lemma_runs] == \
        [(tuple(sorted(bd4.neighbors(v))), 1) for v in bd4.vertices]


def naive_link_lemmas(X) -> list:
    """The ``lemmas --json`` verdicts of a 3-complex whose wheel check and
    link checks pass: the wheel verdict, then the sphere lemmas of the link
    complex of each vertex v built by ``oracles.naive_link``, with witness
    cycles renamed to the ids of X and v named in the detail."""
    out = [passed("wheel_in_link").to_json()]
    for v in X.vertices:
        link, vertex_map = naive_link(X, (v,))
        for r in manifold._sphere_lemmas(link):
            doc = r.to_json()
            doc["detail"] = f"link of vertex {v}" + (f": {r.detail}" if r.detail else "")
            if doc["witness"]:
                doc["witness"]["vertices"] = [vertex_map[i] for i in doc["witness"]["vertices"]]
            out.append(doc)
    return out


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(sources):
    """(module, name) for each private name a module reads of another one:
    imported from it, read through a module alias, or read as an attribute
    that only other modules define.  ``sources`` maps module names to code."""
    trees = {mod: ast.parse(code) for mod, code in sources.items()}
    defined = {}
    for mod, tree in trees.items():
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)  # __slots__ and object.__setattr__ names
        defined[mod] = {name for name in names if is_private(name)}
    found = []
    for mod, tree in trees.items():
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("combcurv")):
                if node.module is None or node.module == "combcurv":
                    aliases.update(a.asname or a.name for a in node.names)
                found += [(mod, a.name) for a in node.names if is_private(a.name)]
        elsewhere = set().union(*(names for other, names in defined.items() if other != mod))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and is_private(node.attr) and (
                    isinstance(node.value, ast.Name) and node.value.id in aliases
                    or node.attr in elsewhere - defined[mod]):
                found.append((mod, node.attr))
    return found


def package_sources():
    return {path.stem: path.read_text() for path in
            sorted(Path(inspect.getsourcefile(combcurv)).parent.glob("*.py"))}


def test_no_module_reads_a_private_name_of_another():
    # one seam per module: a module reads only the public names of another
    sources = package_sources()
    assert {"cli", "complexes", "cover", "curvature", "manifold", "metric"} <= set(sources)
    assert private_reads(sources) == []
    # the link and lemma decisions stay behind the manifold module
    tree = ast.parse(sources["cli"])
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "manifold_mod"}
    assert {"link_verdicts", "lemma_verdicts"} <= read
    # the guard sees each kind of read
    for mod, line, name in (("cli", "from .metric import _thinness", "_thinness"),
                            ("cli", "cover_mod._verify_invariants(None)", "_verify_invariants"),
                            ("cover", "print(X._adj)", "_adj"),
                            ("manifold", "from combcurv.curvature import _wheels_by_length",
                             "_wheels_by_length")):
        mutated = dict(sources, **{mod: sources[mod] + "\n" + line + "\n"})
        assert (mod, name) in private_reads(mutated), line


def readme_gaps(readme: str) -> list:
    """The gaps between the README's "Public names by module" and the
    modules it lists: (module, name, "missing") for a listed name the
    module lacks, a method in parentheses included, and (module, name,
    "unlisted") for a public function of the module not listed."""
    section = readme.split("Public names by module")[1].split("Names that moved or went")[0]
    gaps = []
    for bullet in section.split("\n* ")[1:]:
        name, _, text = bullet.partition(":")
        module = importlib.import_module(f"combcurv.{name.strip('`')}")
        listed = re.findall(r"`(\w+)`(?: \(([^)]*)\))?", text)
        for entry, methods in listed:
            owner = getattr(module, entry, None)
            if owner is None:
                gaps.append((module.__name__, entry, "missing"))
            else:
                gaps += [(module.__name__, method, "missing")
                         for method in re.findall(r"`(\w+)`", methods) if not hasattr(owner, method)]
        public = [key for key, value in vars(module).items() if inspect.isfunction(value)
                  and value.__module__ == module.__name__ and not key.startswith("_")]
        gaps += [(module.__name__, key, "unlisted") for key in public
                 if key not in {entry for entry, _ in listed}]
    return gaps


def test_readme_lists_the_public_functions_of_each_module():
    # both ways: every listed name exists, and every public function of
    # complexes, curvature, metric, cover and manifold is listed
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("Public names by module")[1].split("Names that moved or went")[0]
    assert re.findall(r"\n\* `(\w+)`:", section) == [
        "complexes", "curvature", "metric", "cover", "manifold"]
    assert readme_gaps(readme) == []
    # the guard sees a stale name, a stale method and a name left out
    for old, new, gap in (
            ("`check_k_and_m`,", "`check_k_and_m`, `m_located`,",
             ("combcurv.curvature", "m_located", "missing")),
            ("(`span`,", "(`span`, `link`,", ("combcurv.complexes", "link", "missing")),
            ("`soccer_dual`,", "", ("combcurv.manifold", "soccer_dual", "unlisted"))):
        assert readme.count(old) == 1, old
        assert readme_gaps(readme.replace(old, new)) == [gap], old


def test_lemmas_names_link_witnesses_in_the_complex(tmp_path, capsys, monkeypatch):
    # the boundary of the 4-dimensional cross-polytope, antipodes 2i and
    # 2i + 1: every vertex link is an octahedron on the other six vertices
    X = combcurv.build_complex(itertools.product((0, 1), (2, 3), (4, 5), (6, 7)))
    monkeypatch.setattr(manifold, "check_wheel_in_link", lambda X: passed("wheel_in_link"))
    monkeypatch.setattr(manifold, "_link_verdict", lambda X, v, links: passed("v56"))
    # the referee on every link.  Each link of cross4 fails on a 4-cycle and
    # each icosahedron of the 600-cell on a 6-cycle; the tetrahedra of bd4
    # pass with no cycle, and the two gs2 links of its suspension pass with
    # 42 rims filled and 60 filling pairs
    runs, outcomes = {}, {}
    for name, Y in (("cross4", X), ("cell600", gen("cell600")),
                    ("bd4", gen("boundary_4_simplex")),
                    ("susp_gs2", suspension(gen("geodesic_sphere", 2)))):
        path = tmp_path / f"{name}.cplx"
        dump_path(Y, path)
        code = main(["--json", "lemmas", str(path)])
        runs[name] = verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        assert verdicts == naive_link_lemmas(Y), name
        assert code == (0 if all(v["status"] == "pass" for v in verdicts) else 1)
        pairs = zip(verdicts[1::2], verdicts[2::2])
        outcomes[name] = [(a["status"], a["stats"].get("filled"), b["stats"].get("cycles"))
                          for a, b in pairs]
    assert set(outcomes["cross4"]) == {("fail", None, 0)}
    assert set(outcomes["cell600"]) == {("fail", 12, 0)}
    assert set(outcomes["bd4"]) == {("pass", 0, 0)}
    assert outcomes["susp_gs2"][-2:] == [("pass", 42, 60)] * 2
    # the cross-polytope's verdicts, spelt out
    verdicts = runs["cross4"]
    assert len(verdicts) == 17
    # the first chordless 4-cycle of each link, in the ids of X, where the
    # link's own ids gave [0, 2, 1, 3] for every vertex
    cycles = [[2, 4, 3, 5]] * 2 + [[0, 4, 1, 5]] * 2 + [[0, 2, 1, 3]] * 4
    expected = [{"check": "wheel_in_link", "status": "pass", "detail": "", "witness": None,
                 "stats": {}}]
    for v, cycle in zip(X.vertices, cycles):
        expected += [{"check": "sphere_cycle_lemma", "status": "fail",
                      "detail": f"link of vertex {v}: chordless 4-cycle present",
                      "witness": {"kind": "cycle", "vertices": cycle, "full": True},
                      "stats": {}},
                     {"check": "seven_cycle_fillings", "status": "pass",
                      "detail": f"link of vertex {v}", "witness": None,
                      "stats": {"cycles": 0}}]
        assert set(cycle) <= X.neighbors(v) and is_full(X, cycle).passed
    assert verdicts == expected

# malformed JSON types, and generator parameters that are not integers or
# are negative: one error line, nothing on stdout
@pytest.mark.parametrize("doc,argv", [
    ('{"maximal_simplices": 5}', ["check", "--flag"]),
    ('{"maximal_simplices": [[0, 1], 7]}', ["check", "--flag"]),
    ('{"maximal_simplices": [[0, true], [true, 2]]}', ["check", "--flag"]),
    (None, ["gen", "tri_torus", "4.5", "4"]),
    (None, ["gen", "c_n", "5.5"]),
    (None, ["gen", "random_flag", "10.5", "0.3", "1"]),
    (None, ["gen", "random_flag", "10", "0.3", "1.5"]),
    (None, ["gen", "random_flag", "-3", "0.5", "1"]),
], ids=["non-array", "non-array-entry", "boolean-ids", "gen-torus-float", "gen-cycle-float",
        "gen-random-float-size", "gen-random-float-seed", "gen-random-negative-size"])
def test_malformed_json_types_exit_2(tmp_path, capsys, doc, argv):
    if doc is not None:
        p = tmp_path / "bad.json"
        p.write_text(doc)
        argv = [*argv, str(p)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


# Malformed or odd input files: (suffix, bytes).  The ones in PARSES are
# read and run, and may pass or fail; every other one must exit 2.
MALFORMED = {
    "json-not-object": (".json", b"[[0, 1]]"),
    "json-missing-key": (".json", b'{"simplices": [[0, 1]]}'),
    "json-number": (".json", b'{"maximal_simplices": 5}'),
    "json-null-entry": (".json", b'{"maximal_simplices": [null]}'),
    "json-string-id": (".json", b'{"maximal_simplices": [[0, "1"]]}'),
    "json-float-id": (".json", b'{"maximal_simplices": [[0, 1.5]]}'),
    "json-boolean-id": (".json", b'{"maximal_simplices": [[0, true]]}'),
    "json-negative-id": (".json", b'{"maximal_simplices": [[0, -1]]}'),
    "json-five-vertices": (".json", b'{"maximal_simplices": [[0, 1, 2, 3, 4]]}'),
    "json-repeated-vertex": (".json", b'{"maximal_simplices": [[0, 0, 1]]}'),
    "json-truncated": (".json", b'{"maximal_simplices": [[0, 1]'),
    "json-odd-name": (".json", b'{"name": [1], "maximal_simplices": [[0, 1], [1, 2]]}'),
    "json-empty-complex": (".json", b'{"maximal_simplices": []}'),
    "json-undecodable": (".json", b'\xff\xfe{"maximal_simplices": []}'),
    "text-non-integer": (".cplx", b"0 1 x\n"),
    "text-float-id": (".cplx", b"0 1.5\n"),
    "text-negative-id": (".cplx", b"0 -1 2\n"),
    "text-five-vertices": (".cplx", b"0 1 2 3 4\n"),
    "text-repeated-vertex": (".cplx", b"0 0 1\n"),
    "text-undecodable": (".cplx", b"0 1\n\xff\xfe 2\n"),
    "text-empty": (".cplx", b""),
    "text-huge-id": (".cplx", b"0 99999999999999999999\n"),
}
PARSES = {"json-odd-name", "json-empty-complex", "text-empty", "text-huge-id"}

FUZZ_COMMANDS = {
    "validate": ["validate"],
    "check": ["check"],
    "check-all": ["check", "--k", "5", "--m", "8", "--sphere-56"],
    "sd": ["sd", "--base", "0", "--n", "2"],
    "metric": ["metric", "--base", "0", "--other", "1"],
    "metric-delta": ["metric", "--delta"],
    "cover": ["cover", "--base", "0", "--radius", "2"],
    "links": ["links"],
    "lemmas": ["lemmas"],
    "theorem-b": ["theorem-b"],
}


@pytest.mark.parametrize("command", sorted(FUZZ_COMMANDS))
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_exits_cleanly(tmp_path, capsys, name, command):
    # an unexpected exception gives exit 3 (internal error) and fails the
    # test; one escaping main() would be a traceback with exit code 1
    suffix, data = MALFORMED[name]
    p = tmp_path / f"input{suffix}"
    p.write_bytes(data)
    code = main(["--json", *FUZZ_COMMANDS[command], str(p)])
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in captured.err
    if name not in PARSES:
        assert code == 2 and captured.out == ""


def test_python_dash_m_runs_the_cli(capsys):
    assert main(["gen", "icosahedron"]) == 0
    expected = capsys.readouterr().out
    src = str(Path(combcurv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "combcurv", "gen", "icosahedron"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
