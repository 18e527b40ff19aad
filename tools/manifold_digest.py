#!/usr/bin/env python3
"""Differential digest of the 3-manifold commands over a fixed corpus.

Writes every complex of the corpus to a file, runs ``combcurv --json`` with
``validate``, ``links``, ``lemmas`` and ``theorem-b`` on it, calls
``five_six_star_verdict`` on the complex itself, and prints one SHA-256
over the exit codes, the standard output and the verdicts, then the
number of complexes, of those that ``validate`` finds not pure, of the
failures of each of its stages and of each vertex-link reason.  A
change that must leave these outputs byte-identical prints the same
digest before and after.

Corpus: the 600-cell and the boundary of the 4-simplex (bd4); two copies
of bd4 glued at a vertex, an edge or a triangle; the suspensions of the
4 x 4 triangular torus, of two octahedra glued at two opposite vertices
and of two triangular bipyramids glued at their apexes, whose links fail
the closed-surface test for each of its reasons; and 300 seeded soups of
tetrahedra: random tetrahedra on few vertices, some with a stray vertex,
edge or triangle, and two or three randomly placed copies of bd4, some
less a tetrahedron.  Files compact vertex ids, so the commands see dense
ids; ``five_six_star_verdict`` sees the ids of the soup.  The glued and
suspended complexes are built as the tests build them, by ``bd4_pair``,
``suspension``, ``pinched_pair``, ``suspended_torus`` and
``suspended_pinched_octahedra`` of ``tests/conftest.py``, with its
``BIPYRAMID``; the named ones by its ``gen``.

Run from the repository root:  python3 tools/manifold_digest.py
On this corpus it prints 623e122bbccbf3d460e89bb748ac920ec0d5aec70908aee2fe71fd9b0ba4e39f
(308 complexes).
"""

import hashlib
import io
import json
import random
import re
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from combcurv import build_complex  # noqa: E402
from combcurv.cli import main as cli_main  # noqa: E402
from combcurv.formats import dump_path  # noqa: E402
from combcurv.manifold import five_six_star_verdict  # noqa: E402
from conftest import (  # noqa: E402
    BIPYRAMID,
    bd4_pair,
    gen,
    pinched_pair,
    suspended_pinched_octahedra,
    suspended_torus,
    suspension,
)

COMMANDS = ("validate", "links", "lemmas", "theorem-b")
SOUPS = 300


def soups():
    """Seeded soups of tetrahedra, on ids with gaps."""
    rng = random.Random(2000)
    bd4 = sorted(gen("boundary_4_simplex").simplices(3))
    for i in range(SOUPS):
        if i % 2:
            ids = rng.sample(range(14), rng.randint(5, 10))
            tets = [rng.sample(ids, 4) for _ in range(rng.randint(1, 14))]
            if rng.random() < 0.2:
                tets.append(rng.sample(ids, rng.randint(1, 3)))
        else:
            tets = []
            for _ in range(rng.choice((2, 2, 3))):
                place = rng.sample(range(14), 5)
                tets += [[place[v] for v in t] for t in bd4]
            if rng.random() < 0.3:
                tets.pop(rng.randrange(len(tets)))
        yield f"soup{i}", build_complex(tets)


def complexes():
    """(label, complex) of the corpus, in a fixed order."""
    for name in ("cell600", "boundary_4_simplex"):
        yield name, gen(name)
    for shared, where in ((1, "vertex"), (2, "edge"), (3, "triangle")):
        yield f"bd4 pair at a {where}", bd4_pair(shared)
    yield "suspended torus", suspended_torus()
    yield "suspended pinched octahedra", suspended_pinched_octahedra()
    yield "suspended pinched bipyramids", suspension(pinched_pair(BIPYRAMID, (0, 4)))
    yield from soups()


def record(X, path: Path):
    """Exit code and stdout of each command on ``X`` written at ``path``,
    and its ``five_six_star_verdict``."""
    dump_path(X, path)
    out = {}
    for command in COMMANDS:
        stdout = io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            code = cli_main(["--json", command, str(path)])
        out[command] = [code, stdout.getvalue()]
    out["five_six_star"] = five_six_star_verdict(X).to_json()
    return out


def tally(counts, validate_json: str) -> None:
    """Count the stage failures and vertex-link reasons of one ``validate``."""
    doc = json.loads(validate_json)
    if "report" not in doc:
        counts["not pure"] += 1
        return
    for stage, verdict in doc["report"]["stages"].items():
        counts[f"{stage} fail"] += verdict["status"] == "fail"
    detail = doc["report"]["stages"]["vertex_links_spheres"].get("detail") or ""
    if detail:
        counts["vertex link: " + re.sub(r"-?\d+", "#", detail.partition(": ")[2])] += 1


def digest(items):
    """SHA-256 over the records of ``items``, (label, complex) pairs, and
    the counts of :func:`tally`."""
    h = hashlib.sha256()
    counts = Counter()
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "input.cplx"
        for label, X in items:
            rec = record(X, path)
            h.update(json.dumps([label, rec], sort_keys=True, separators=(",", ":")).encode())
            counts["complexes"] += 1
            tally(counts, rec["validate"][1])
    return h.hexdigest(), counts


def main() -> int:
    hexdigest, counts = digest(complexes())
    print(hexdigest)
    print(f"complexes {counts.pop('complexes')}")
    for key, n in sorted(counts.items()):
        print(f"{key} {n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
