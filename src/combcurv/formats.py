"""Reading and writing complexes.

Text format: UTF-8 lines, ``#`` starts a comment, every other non-blank
line is one maximal simplex as whitespace-separated non-negative integers.
JSON alternative: an object with optional ``name`` and a
``maximal_simplices`` array of integer arrays.  :func:`load_path` reads
either as UTF-8 and skips a leading byte-order mark.

Each simplex is read as one sorted tuple, checked, and filed by its
dimension; the complex is then the
:func:`~combcurv.complexes.downward_closure` of those, with no other copy.
Labels that are already 0 .. n - 1 are kept; sparse vertex ids are
compacted in order on the given simplices, so either way the closure is
built once, on dense ids.  The original labels are kept in
``vertex_labels`` alongside the complex.
Serialization always emits the canonical form: sorted maximal simplices
over dense ids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Optional

from .complexes import MAX_DIM, SimplicialComplex, downward_closure
from .errors import DimensionTooHigh, ParseError


@dataclass(frozen=True)
class ParsedComplex:
    complex: SimplicialComplex
    vertex_labels: tuple  # dense id -> original id


def _parsed(given, name) -> ParsedComplex:
    """The complex of the simplices ``given`` by dimension, as
    :func:`~combcurv.complexes.downward_closure` takes them, on dense ids:
    labels that are already 0 .. n - 1 are kept, and any others are
    compacted in order in ``given`` before the one closure."""
    labels = set(chain.from_iterable(chain.from_iterable(given)))
    n = len(labels)
    if n and max(labels) >= n:
        labels = sorted(labels)
        back = {v: i for i, v in enumerate(labels)}.__getitem__
        # back is increasing, so each relabelled simplex stays sorted
        given = [[tuple(map(back, s)) for s in simplices] for simplices in given]
    else:
        labels = range(n)
    faces = downward_closure(given)
    return ParsedComplex(SimplicialComplex(n, faces, name=name), tuple(labels))


def parse_text(text: str, name: Optional[str] = None) -> ParsedComplex:
    given = [[] for _ in range(MAX_DIM + 1)]  # d -> the sorted d-simplices of the lines
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        try:
            vs = tuple(sorted(map(int, parts)))
        except ValueError as exc:
            raise ParseError(f"not an integer: {exc}", line=lineno) from None
        if vs[0] < 0:
            raise ParseError("negative vertex id", line=lineno)
        if len(vs) > MAX_DIM + 1:
            raise DimensionTooHigh(
                f"line {lineno}: simplex with {len(vs)} vertices (max {MAX_DIM + 1})")
        if len(set(vs)) != len(vs):
            raise ParseError("repeated vertex in simplex", line=lineno)
        given[len(vs) - 1].append(vs)
    return _parsed(given, name)


def parse_json(text: str) -> ParsedComplex:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), line=exc.lineno) from None
    if not isinstance(doc, dict) or "maximal_simplices" not in doc:
        raise ParseError("expected an object with 'maximal_simplices'")
    simplices = doc["maximal_simplices"]
    if not isinstance(simplices, list):
        raise ParseError("'maximal_simplices' must be an array")
    # JSON true/false load as bool, a subclass of int: they are not vertex ids
    if not all(isinstance(s, list)
               and all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in s)
               for s in simplices):
        raise ParseError("'maximal_simplices' must be arrays of non-negative integers")
    given = [[] for _ in range(MAX_DIM + 1)]
    for s in simplices:
        if len(s) > MAX_DIM + 1:
            raise DimensionTooHigh(f"simplex with {len(s)} vertices (max {MAX_DIM + 1})")
        if len(set(s)) != len(s):
            raise ParseError(f"repeated vertex in simplex {s}")
        if s:
            given[len(s) - 1].append(tuple(sorted(s)))
    return _parsed(given, doc.get("name"))


def serialize_text(X: SimplicialComplex) -> str:
    lines = [" ".join(str(v) for v in s) for s in X.maximal_simplices()]
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_json(X: SimplicialComplex) -> str:
    doc = {"maximal_simplices": [list(s) for s in X.maximal_simplices()]}
    if X.name:
        doc = {"name": X.name, **doc}
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def load_path(path) -> ParsedComplex:
    p = Path(path)
    text = p.read_text(encoding="utf-8-sig")
    if p.suffix == ".json":
        return parse_json(text)
    return parse_text(text, name=p.stem)


def dump_path(X: SimplicialComplex, path) -> None:
    p = Path(path)
    if p.suffix == ".json":
        p.write_text(serialize_json(X), encoding="utf-8")
    else:
        p.write_text(serialize_text(X), encoding="utf-8")
