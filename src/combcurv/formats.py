"""Reading and writing complexes.

Text format: UTF-8 lines, ``#`` starts a comment, every other non-blank
line is one maximal simplex as whitespace-separated non-negative integers.
JSON alternative: an object with optional ``name`` and a
``maximal_simplices`` array of integer arrays.

Sparse vertex ids are compacted on parse; the original labels are kept in
``vertex_labels`` alongside the complex.  Serialization always emits the
canonical form: sorted maximal simplices over dense ids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .complexes import MAX_DIM, SimplicialComplex, build_complex
from .errors import DimensionTooHigh, ParseError


@dataclass(frozen=True)
class ParsedComplex:
    complex: SimplicialComplex
    vertex_labels: tuple  # dense id -> original id


def _compact(simplices, name) -> ParsedComplex:
    labels = sorted({v for s in simplices for v in s})
    back = {v: i for i, v in enumerate(labels)}
    dense = [[back[v] for v in s] for s in simplices]
    return ParsedComplex(build_complex(dense, name=name), tuple(labels))


def parse_text(text: str, name: Optional[str] = None) -> ParsedComplex:
    simplices = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            verts = list(map(int, parts))
        except ValueError as exc:
            raise ParseError(f"not an integer: {exc}", line=lineno) from None
        if min(verts) < 0:
            raise ParseError("negative vertex id", line=lineno)
        if len(verts) > MAX_DIM + 1:
            raise DimensionTooHigh(
                f"line {lineno}: simplex with {len(verts)} vertices (max {MAX_DIM + 1})")
        if len(set(verts)) != len(verts):
            raise ParseError("repeated vertex in simplex", line=lineno)
        simplices.append(verts)
    return _compact(simplices, name)


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
    for s in simplices:
        if len(s) > MAX_DIM + 1:
            raise DimensionTooHigh(f"simplex with {len(s)} vertices (max {MAX_DIM + 1})")
        if len(set(s)) != len(s):
            raise ParseError(f"repeated vertex in simplex {s}")
    return _compact(simplices, doc.get("name"))


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
    text = p.read_text(encoding="utf-8")
    if p.suffix == ".json":
        return parse_json(text)
    return parse_text(text, name=p.stem)


def dump_path(X: SimplicialComplex, path) -> None:
    p = Path(path)
    if p.suffix == ".json":
        p.write_text(serialize_json(X), encoding="utf-8")
    else:
        p.write_text(serialize_text(X), encoding="utf-8")
