"""A small simplicial-complex model written independently of combcurv.

The benchmark builds inputs, checks the 600-cell, feeds the referees in
``tests/oracles.py`` and re-validates witnesses with this class only, so a
defect in the checker being timed cannot hide in its own re-validation.
It offers the attributes the oracles read (``vertices``, ``vertex_count``,
``adjacent``, ``has_simplex``, ``simplices``).
"""

from __future__ import annotations

from collections import deque
from itertools import combinations


class RefComplex:
    def __init__(self, maximal):
        faces = set()
        for s in maximal:
            s = tuple(sorted(s))
            for r in range(1, len(s) + 1):
                faces.update(combinations(s, r))
        self.faces = faces
        self.vertices = tuple(sorted(f[0] for f in faces if len(f) == 1))
        self.vertex_count = self.vertices[-1] + 1 if self.vertices else 0
        self.adj = {v: set() for v in self.vertices}
        for f in faces:
            if len(f) == 2:
                self.adj[f[0]].add(f[1])
                self.adj[f[1]].add(f[0])

    def has_simplex(self, vs) -> bool:
        return tuple(sorted(vs)) in self.faces

    def adjacent(self, u, v) -> bool:
        return v in self.adj.get(u, ())

    def neighbors(self, v) -> set:
        return self.adj.get(v, set())

    def simplices(self, d) -> set:
        return {f for f in self.faces if len(f) == d + 1}

    def counts(self) -> tuple:
        return tuple(len(self.simplices(d)) for d in range(4))

    def span(self, vs) -> "RefComplex":
        keep = set(vs)
        return RefComplex([f for f in self.faces if keep.issuperset(f)])

    def link(self, sigma) -> "RefComplex":
        """Link of a simplex, on the ambient vertex ids."""
        s = set(sigma)
        return RefComplex([tuple(v for v in f if v not in s) for f in self.faces
                           if s < set(f)])

    def distances(self, source) -> dict:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for u in self.adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        return dist

    def in_closed_ball(self, y, vs) -> bool:
        return all(a == y or a in self.adj[y] for a in vs)


def edge_degrees(tets) -> dict:
    """Number of tetrahedra around each edge."""
    out = {}
    for t in tets:
        for e in combinations(sorted(t), 2):
            out[e] = out.get(e, 0) + 1
    return out


def flag_problem(X: RefComplex):
    """A clique spanning no simplex (5-cliques always count), or None."""
    for (u, v) in sorted(X.simplices(1)):
        for w in X.adj[u] & X.adj[v]:
            if w > v and not X.has_simplex((u, v, w)):
                return (u, v, w)
    for tri in sorted(X.simplices(2)):
        for x in X.adj[tri[0]] & X.adj[tri[1]] & X.adj[tri[2]]:
            if x > tri[2]:
                tet = tri + (x,)
                if not X.has_simplex(tet):
                    return tet
                fifth = X.adj[x] & X.adj[tri[0]] & X.adj[tri[1]] & X.adj[tri[2]]
                if fifth:
                    return tet + (min(fifth),)
    return None
