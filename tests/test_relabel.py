"""Witnesses depend on the complex alone.

Each input is relabelled by the increasing map v -> 7v + 3.  That keeps the
order of its vertices but changes the hashes of their ids, and so the order
in which its sets iterate.  A witness that names the least offender in
sorted order maps back to the witness on the input; one that follows the
iteration order of a set can move.
"""

import json
import re
from itertools import product

import pytest

from combcurv import build_complex, build_cover, metric
from combcurv.errors import CombCurvError
from combcurv.formats import load_path
from combcurv.metric import SDReport, check_projection_lemma, distances_from
from combcurv.verdicts import passed

from conftest import gen
from test_golden import COMMANDS, GOLDEN, OUT_GOLDEN, write_inputs


def relabel(v):
    return 7 * v + 3


def unrelabel(v):
    return (v - 3) // 7


def relabelled(X):
    return build_complex(([relabel(v) for v in s] for s in X.maximal_simplices()), name=X.name)


# the base ids that a cover report or refusal names in its text: an image
# or image simplex in an (R) reason, a shortcut's target, an empty clique
BASE_IDS = re.compile(r"(image simplex \(|image |target |clique \()(\d+(?:, \d+)*)")


def back(doc):
    """``doc``, JSON data, with the base ids named in its text mapped back."""
    if isinstance(doc, dict):
        return {key: back(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [back(value) for value in doc]
    if isinstance(doc, str):
        return BASE_IDS.sub(lambda m: m[1] + ", ".join(
            str(unrelabel(int(v))) for v in m[2].split(", ")), doc)
    return doc


def cover_outcome(X, base, radius, relabelled_base=False):
    """What ``build_cover`` reports, with the base ids mapped back when
    ``relabelled_base``: the report, the sheet map, the ball and the
    warnings' witnesses; or the refusal."""
    to_base = unrelabel if relabelled_base else (lambda z: z)
    try:
        report = build_cover(X, base, radius)
    except CombCurvError as exc:
        return back([type(exc).__name__, str(exc)]) if relabelled_base else \
            [type(exc).__name__, str(exc)]
    doc = report.to_json()
    if relabelled_base:
        doc = back(doc)
        doc["fibers"] = {str(unrelabel(int(z))): n for z, n in doc["fibers"].items()}
        if doc["shortcut"]["witness"]:
            doc["shortcut"]["witness"]["z"] = unrelabel(doc["shortcut"]["witness"]["z"])
    state = report.state
    return (json.dumps(doc, sort_keys=True), tuple(map(to_base, state.sheet_map)), state.ball,
            [(w.which, w.witness) for w in state.warnings])


def golden_cover_runs():
    """(input, radius) of every cover golden: the ``cover`` commands and
    the ball files of ``cover --out``, all from base 0."""
    runs = {(name, int(COMMANDS[command][COMMANDS[command].index("--radius") + 1]))
            for name, command, _code, _digest in GOLDEN if command.startswith("cover")}
    return sorted(runs | {(name, radius) for name, radius, _code, _digest in OUT_GOLDEN})


@pytest.fixture(scope="module")
def cover_cases(tmp_path_factory):
    paths = write_inputs(tmp_path_factory.mktemp("relabel"))
    cases = [(load_path(paths[name]).complex, radius) for name, radius in golden_cover_runs()]
    cases.append((gen("cell600"), 4))
    cases += [(gen("random_flag", 16, 0.35, seed), radius)
              for seed, radius in product(range(29), (1, 2, 3, 4))]
    return cases


def test_cover_witnesses_follow_the_relabelling(cover_cases):
    assert len(cover_cases) == 128
    warned = moved = 0
    for X, radius in cover_cases:
        got = cover_outcome(relabelled(X), relabel(0), radius, relabelled_base=True)
        assert got == cover_outcome(X, 0, radius), (X.name, radius)
        warned += isinstance(got, tuple) and bool(got[3])
        # the relabelling reaches the sets the scan reads: some 1-ball
        # iterates in another order
        Y = relabelled(X)
        moved += any([relabel(u) for u in X.neighbors(v)] != list(Y.neighbors(relabel(v)))
                     for v in X.vertices)
    # not vacuous: many runs carry (Q) or (R) witnesses, and the sets move
    assert warned > 20 and moved > 100, (warned, moved)


def test_projection_witnesses_follow_the_relabelling(monkeypatch):
    # the hypotheses and the descent precondition are patched to pass, so
    # the instance scan runs, and fails, on inputs that meet none of them
    monkeypatch.setattr(metric, "located_and_large", lambda X, m, k:
                        (passed("is_m_located"), passed("is_locally_k_large"), set()))
    monkeypatch.setattr(metric, "check_sd_prime",
                        lambda X, o, n, dist: SDReport(base=o, max_radius=n))
    inputs = [gen("octahedron"), gen("icosahedron"), gen("tri_torus", 6, 6)]
    inputs += [gen("random_flag", 16, 0.35, seed) for seed in range(30)]
    failures = choices = 0
    for X, o, n in product(inputs, (0, 1), (2, 3)):
        want = check_projection_lemma(X, o, n)
        got = check_projection_lemma(relabelled(X), relabel(o), n)
        witness = got.witness and {key: value if key in ("kind", "radius") else unrelabel(value)
                                   for key, value in got.witness.items()}
        assert (got.passed, got.detail, got.stats, witness) == \
            (want.passed, want.detail, want.stats, want.witness), (X.name, o, n)
        if not want.passed:
            failures += 1
            # y' (or z') was one of two or more choices
            w, dist = want.witness, distances_from(X, o)
            below = [[t for t in X.neighbors(w["x"]) & X.neighbors(w[s]) if dist[t] < w["radius"]]
                     for s in ("y", "z")]
            choices += max(map(len, below)) > 1
    assert failures > 0 and choices > 0, (failures, choices)
