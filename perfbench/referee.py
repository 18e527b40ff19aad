"""Expected answers and witness re-validation.

Answers that are not known in closed form come from the brute-force
referees in ``tests/oracles.py``, run on :class:`RefComplex` inputs before
any timing starts.  Every witness a check returns is re-checked here with
the benchmark's own code; each validator returns a list of problems, empty
when the witness holds.
"""

from __future__ import annotations

import copy

import oracles

from refcomplex import RefComplex, flag_problem


# -- referees ----------------------------------------------------------------


def link_not_k_large(X: RefComplex, sigma, k) -> bool:
    link = X.link(sigma)
    if not link.vertices:
        return False
    return flag_problem(link) is not None or bool(oracles.naive_full_cycles(link, 4, k - 1))


def failing_vertices(X: RefComplex, k) -> list:
    return [v for v in X.vertices if link_not_k_large(X, (v,), k)]


def ref_wheels(X: RefComplex, k_min, k_max) -> list:
    """``oracles.naive_wheels`` computed per center: a rim is a chordless
    cycle of X, so it is a chordless cycle of the span of its center's
    neighbors.  Same output, without enumerating every path of X."""
    out = set()
    for v in X.vertices:
        for rim in oracles.naive_full_cycles(X.span(X.neighbors(v)), k_min, k_max):
            k = len(rim)
            if all(X.has_simplex((v, rim[i], rim[(i + 1) % k])) for i in range(k)):
                out.add((v, rim))
    return sorted(out)


def ref_dwheels(X: RefComplex, max_boundary) -> list:
    """``oracles.naive_dwheels`` with :func:`ref_wheels` as its wheel list."""
    saved = oracles.naive_wheels
    oracles.naive_wheels = ref_wheels
    try:
        return oracles.naive_dwheels(X, max_boundary)
    finally:
        oracles.naive_wheels = saved


def ref_m_located(X: RefComplex, m) -> bool:
    for (apexes, shared, arc1, arc2, _junction) in ref_dwheels(X, m):
        vs = set(apexes) | {shared} | set(arc1) | set(arc2)
        if not any(X.in_closed_ball(y, vs) for y in X.vertices):
            return False
    return True


# -- witness validators ----------------------------------------------------------


def _chordless_cycle_problems(X: RefComplex, cycle, cone=()) -> list:
    """``cycle`` is a chordless cycle of the link of ``cone`` (of X itself
    when ``cone`` is empty)."""
    c = list(cycle)
    k = len(c)
    cone = tuple(cone)
    if len(set(c)) != k or k < 4 or set(c) & set(cone):
        return [f"not a cycle of distinct vertices outside {cone}: {c}"]
    for i in range(k):
        for j in range(i + 1, k):
            consecutive = j - i == 1 or (i == 0 and j == k - 1)
            if X.has_simplex(cone + (c[i], c[j])) != consecutive:
                return [f"pair {c[i]},{c[j]} breaks the chordless {k}-cycle"]
    return []


def cycle_in_link_problems(X: RefComplex, w, k, length=None) -> list:
    if not isinstance(w, dict) or w.get("kind") != "cycle_in_link":
        return [f"expected a cycle_in_link witness, got {w!r}"]
    sigma, cycle = tuple(w["simplex"]), w["cycle"]
    if not X.has_simplex(sigma):
        return [f"simplex {sigma} not in the complex"]
    if len(cycle) >= k or (length is not None and len(cycle) != length):
        return [f"cycle length {len(cycle)} does not refute {k}-largeness"]
    return _chordless_cycle_problems(X, cycle, sigma)


def dwheel_problems(X: RefComplex, dw, m) -> list:
    """Structure of a dwheel JSON record: two wheels glued along
    (apex, apex', shared), the junction, the type and boundary length."""
    (v0, v0p), w = dw["apexes"], dw["shared"]
    rim1, rim2 = list(dw["rims"][0]), list(dw["rims"][1])
    for center, rim in ((v0, rim1 + [w, v0p]), (v0p, rim2 + [w, v0])):
        if not X.has_simplex((center,)):
            return [f"apex {center} not a vertex"]
        probs = _chordless_cycle_problems(X, rim)
        if probs:
            return probs
        if center in rim or not all(X.has_simplex((center, rim[i], rim[(i + 1) % len(rim)]))
                                    for i in range(len(rim))):
            return [f"{center} is not the center of a wheel on {rim}"]
    a, b = rim1[0], rim2[0]
    junction = "identified" if a == b else "edge" if X.adjacent(a, b) else None
    if junction != dw["junction"]:
        return [f"junction {dw['junction']!r} does not match rims {a}, {b}"]
    k, l = len(rim1) + 2, len(rim2) + 2
    blen = k + l - (4 if junction == "identified" else 3)
    if list(dw["type"]) != [k, l] or dw["boundary_length"] != blen or blen > m:
        return [f"type {dw['type']} / boundary {dw['boundary_length']} inconsistent or above {m}"]
    return []


def unlocated_problems(X: RefComplex, w, m) -> list:
    if not isinstance(w, dict) or w.get("kind") != "unlocated_dwheel":
        return [f"expected an unlocated_dwheel witness, got {w!r}"]
    dw = w["dwheel"]
    probs = dwheel_problems(X, dw, m)
    if probs:
        return probs
    vs = set(dw["apexes"]) | {dw["shared"]} | set(dw["rims"][0]) | set(dw["rims"][1])
    hits = [y for y in X.vertices if X.in_closed_ball(y, vs)]
    return [f"dwheel lies in the 1-ball of {hits[0]}"] if hits else []


def low_triangle_problems(X: RefComplex, degrees, w) -> list:
    if not isinstance(w, dict) or w.get("kind") != "triangle_two_low_edges":
        return [f"expected a triangle_two_low_edges witness, got {w!r}"]
    tri, edges = tuple(w["triangle"]), [tuple(sorted(e)) for e in w["edges"]]
    if not X.has_simplex(tri) or len(set(edges)) < 2:
        return [f"triangle {tri} with edges {edges} is not a witness"]
    if any(not set(e) < set(tri) or degrees.get(e) != 5 for e in edges):
        return [f"edges {edges} are not degree-5 edges of {tri}"]
    return []


def edge_degree_problems(degrees, w) -> list:
    if not isinstance(w, dict) or w.get("kind") != "edge_degree":
        return [f"expected an edge_degree witness, got {w!r}"]
    e = tuple(sorted(w["edge"]))
    if degrees.get(e) != w["degree"] or w["degree"] in (5, 6):
        return [f"edge {e} has degree {degrees.get(e)}, witness says {w['degree']}"]
    return []


def adjacent_low_problems(X: RefComplex, degrees, v, w) -> list:
    """Witness of a vertex link, in the link's ids: link vertex i is the
    i-th smallest neighbor of ``v``."""
    if not isinstance(w, dict) or w.get("kind") != "adjacent_low_degree":
        return [f"expected an adjacent_low_degree witness, got {w!r}"]
    nbrs = sorted(X.neighbors(v))
    if not all(0 <= i < len(nbrs) for i in w["edge"]):
        return [f"link ids {w['edge']} out of range"]
    a, b = (nbrs[i] for i in w["edge"])
    if not X.has_simplex((v, a, b)):
        return [f"{a},{b} not an edge of the link of {v}"]
    if degrees[tuple(sorted((v, a)))] != 5 or degrees[tuple(sorted((v, b)))] != 5:
        return [f"link vertices {a},{b} of {v} are not both of degree 5"]
    return []


def tamper(w, X: RefComplex):
    """A copy of a witness altered so that it no longer holds; its
    validator must reject it."""
    t = copy.deepcopy(w)
    if t["kind"] == "cycle_in_link":
        t["cycle"][0] = t["cycle"][2]
    elif t["kind"] == "unlocated_dwheel":
        t["dwheel"]["shared"] = t["dwheel"]["apexes"][0]
    elif t["kind"] == "triangle_two_low_edges":
        t["triangle"] = [t["triangle"][0], t["triangle"][1], max(X.vertices) + 1]
    elif t["kind"] == "edge_degree":
        t["degree"] += 1
    elif t["kind"] == "adjacent_low_degree":
        t["edge"] = [t["edge"][0], t["edge"][0]]
    return t

