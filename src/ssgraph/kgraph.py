"""Finite higher-rank graphs with explicit factorization tables.

A graph of rank k stores its edges in k color classes together with one
factorization table per ordered color pair.  Paths are kept in canonical
form: the edge sequence is sorted by color, ties kept in composition
order, so equal morphisms compare equal as tuples.  Colors are 0-based
throughout the package.

``Edge`` and ``Path`` are named tuples, so hashing and equality run in
C.  They therefore compare equal to plain tuples with the same fields:
keep them out of dicts and sets that also hold unrelated tuple keys.
"""
from __future__ import annotations

import itertools
import operator
from typing import NamedTuple

from .errors import BadRange, NonComposable, ValidationReport

Degree = tuple[int, ...]


def zero_degree(k: int) -> Degree:
    return (0,) * k

def unit_degree(k: int, color: int) -> Degree:
    return tuple(1 if i == color else 0 for i in range(k))

def add_degrees(a: Degree, b: Degree) -> Degree:
    return tuple(map(operator.add, a, b))

def sub_degrees(a: Degree, b: Degree) -> Degree:
    return tuple(map(operator.sub, a, b))

def meet_degrees(a: Degree, b: Degree) -> Degree:
    return tuple(map(min, a, b))

def join_degrees(a: Degree, b: Degree) -> Degree:
    return tuple(map(max, a, b))

def leq_degrees(a: Degree, b: Degree) -> bool:
    return all(x <= y for x, y in zip(a, b))


class Edge(NamedTuple):
    """A single edge; ``id`` is unique within its color class.

    A named tuple: equal to any tuple with the same four fields."""

    id: int
    color: int
    source: int
    range_vertex: int


class Path(NamedTuple):
    """A morphism in canonical color-sorted form.

    ``edges`` is the edge sequence in composition order (range end
    first).  Degree-0 paths carry no edges and are identified with
    their vertex.  A named tuple: equal to any tuple with the same
    three fields, so it hashes in C but must not share a dict with
    unrelated tuple keys.
    """

    range_vertex: int
    edges: tuple[Edge, ...]
    degree: Degree

    @property
    def source(self) -> int:
        return self.edges[-1].source if self.edges else self.range_vertex


class KGraph:
    """A finite rank-k graph.

    Parameters
    ----------
    k : int
        Number of colors.
    num_vertices : int
        Vertices are the integers ``0..num_vertices-1``.
    edges : sequence of sequences of Edge
        One list per color, indexed by edge id.
    squares : mapping
        ``squares[(i, j)][(f, g)] = (g2, f2)`` for colors ``i < j``
        records that the color-i edge ``f`` followed by the color-j
        edge ``g`` equals ``g2`` followed by ``f2`` as a morphism.
    """

    def __init__(self, k, num_vertices, edges, squares, vertex_names=None):
        self.k = k
        self.num_vertices = num_vertices
        self.edges = tuple(tuple(row) for row in edges)
        self.squares = {pair: dict(table) for pair, table in squares.items()}
        self.vertex_names = tuple(vertex_names) if vertex_names \
            else tuple(f"v{i}" for i in range(num_vertices))
        self._desc_to_asc = {
            pair: {val: key for key, val in table.items()}
            for pair, table in self.squares.items()
        }
        # edges_from[color][v] lists edges with range v, sorted by id
        self._edges_from = [
            [[] for _ in range(num_vertices)] for _ in range(k)
        ]
        for row in self.edges:
            for e in row:
                self._edges_from[e.color][e.range_vertex].append(e)

    # -- basic access ---------------------------------------------------

    def edge(self, color: int, eid: int) -> Edge:
        return self.edges[color][eid]

    def edges_from(self, v: int, color: int) -> list[Edge]:
        """All edges of the given color with range ``v``."""
        return self._edges_from[color][v]

    def vertex_path(self, v: int) -> Path:
        return Path(v, (), zero_degree(self.k))

    def path(self, edges, range_vertex=None) -> Path:
        """Build the canonical path for a composable edge sequence."""
        seq = list(edges)
        for a, b in zip(seq, seq[1:]):
            if a.source != b.range_vertex:
                raise NonComposable(f"edges {a} and {b} do not compose")
        if not seq:
            if range_vertex is None:
                raise NonComposable("a degree-0 path needs an explicit vertex")
            return self.vertex_path(range_vertex)
        rv = seq[0].range_vertex
        if range_vertex is not None and range_vertex != rv:
            raise NonComposable("explicit range does not match first edge")
        seq = self._canonical(seq)
        return Path(rv, tuple(seq), self._degree_of(seq))

    def _degree_of(self, seq) -> Degree:
        deg = [0] * self.k
        for e in seq:
            deg[e.color] += 1
        return tuple(deg)

    # -- factorization rewriting ---------------------------------------

    def _swap_to_asc(self, a: Edge, b: Edge) -> tuple[Edge, Edge]:
        # a then b with color(a) > color(b); returns the color-sorted pair
        pair = (b.color, a.color)
        f_id, g_id = self._desc_to_asc[pair][(a.id, b.id)]
        return self.edge(b.color, f_id), self.edge(a.color, g_id)

    def _swap_to_desc(self, f: Edge, g: Edge) -> tuple[Edge, Edge]:
        # f then g with color(f) < color(g); returns the reversed factorization
        pair = (f.color, g.color)
        g2_id, f2_id = self.squares[pair][(f.id, g.id)]
        return self.edge(g.color, g2_id), self.edge(f.color, f2_id)

    def _canonical(self, seq: list[Edge]) -> list[Edge]:
        # bubble color-descending neighbours; each swap removes one inversion
        done = False
        while not done:
            done = True
            for t in range(len(seq) - 1):
                if seq[t].color > seq[t + 1].color:
                    seq[t], seq[t + 1] = self._swap_to_asc(seq[t], seq[t + 1])
                    done = False
        return seq

    # -- path operations ------------------------------------------------

    def compose(self, mu: Path, nu: Path) -> Path:
        """The morphism ``mu`` followed by ``nu``; requires s(mu) = r(nu)."""
        if mu.source != nu.range_vertex:
            raise NonComposable(
                f"source {mu.source} does not match range {nu.range_vertex}")
        if not mu.edges:
            return nu
        if not nu.edges:
            return mu
        seq = self._canonical(list(mu.edges) + list(nu.edges))
        return Path(mu.range_vertex, tuple(seq),
                    add_degrees(mu.degree, nu.degree))

    def shift_edge(self, alpha: Path, f: Edge) -> tuple[Edge, Path]:
        """Factor ``alpha . f = e . tail`` with ``e`` of f's color and
        ``d(tail) = d(alpha)``; the same factors as ``split_front`` of
        ``compose(alpha, path([f]))`` at f's unit degree."""
        if alpha.source != f.range_vertex:
            raise NonComposable(
                f"source {alpha.source} does not match range {f.range_vertex}")
        color = f.color
        seq = [*alpha.edges, f]
        t = len(seq) - 1
        # f sinks below the higher colors: the canonical form of alpha.f
        while t > 0 and seq[t - 1].color > color:
            seq[t - 1], seq[t] = self._swap_to_asc(seq[t - 1], seq[t])
            t -= 1
        # the first color-f edge follows the lower colors; lift it past them
        t = sum(alpha.degree[:color])
        while t > 0:
            seq[t - 1], seq[t] = self._swap_to_desc(seq[t - 1], seq[t])
            t -= 1
        e = seq[0]
        return e, Path(e.source, tuple(seq[1:]), alpha.degree)

    def split_front(self, mu: Path, p: Degree) -> tuple[Path, Path]:
        """Factor ``mu = beta . alpha`` with ``d(beta) = p``."""
        p = tuple(p)
        d = mu.degree
        if len(p) != self.k or not all(0 <= a <= b for a, b in zip(p, d)):
            raise BadRange(f"degree {p} not within 0..{d}")
        if p == d:
            return mu, self.vertex_path(mu.source)
        if not any(p):
            return self.vertex_path(mu.range_vertex), mu
        seq = list(mu.edges)
        prefix: list[Edge] = []
        # seq stays colour-sorted: once the colour-c prefix edges are
        # due, t leftover edges of lower colours precede the first one
        t = 0
        for color in range(self.k):
            for _ in range(p[color]):
                for i in range(t, 0, -1):
                    seq[i - 1], seq[i] = self._swap_to_desc(seq[i - 1], seq[i])
                prefix.append(seq.pop(0))
            t += d[color] - p[color]
        beta = Path(mu.range_vertex, tuple(prefix), p)
        alpha = Path(prefix[-1].source, tuple(seq), sub_degrees(d, p))
        return beta, alpha

    def segment(self, mu: Path, p: Degree, q: Degree) -> Path:
        """The middle factor ``mu(p, q)`` of degree ``q - p``."""
        if len(q) != self.k or not leq_degrees(p, q) \
                or not leq_degrees(q, mu.degree):
            raise BadRange(f"need 0 <= {p} <= {q} <= {mu.degree}")
        _, tail = self.split_front(mu, p)
        mid, _ = self.split_front(tail, sub_degrees(q, p))
        return mid

    def paths_of_degree(self, n: Degree, from_vertex=None, to_vertex=None):
        """All canonical paths of degree ``n``, in lexicographic edge order."""
        ranges = [from_vertex] if from_vertex is not None \
            else range(self.num_vertices)
        out: list[Path] = []
        colors = [c for c in range(self.k) for _ in range(n[c])]
        for rv in ranges:
            stack = [(rv, [])]
            # depth-first over composition order keeps edge ids lexicographic
            while stack:
                v, acc = stack.pop()
                if len(acc) == len(colors):
                    if to_vertex is None or v == to_vertex:
                        out.append(Path(rv, tuple(acc), n))
                    continue
                color = colors[len(acc)]
                for e in reversed(self._edges_from[color][v]):
                    stack.append((e.source, acc + [e]))
        return out

    def first_path_of_degree(self, n: Degree, from_vertex: int) -> Path:
        """The lexicographically first path of degree ``n`` from a vertex."""
        v = from_vertex
        acc = []
        for color in range(self.k):
            for _ in range(n[color]):
                e = self._edges_from[color][v][0]
                acc.append(e)
                v = e.source
        return Path(from_vertex, tuple(acc), n)

    def meet_tails(self, mu: Path, nu: Path, split=None):
        """Split ``mu`` and ``nu`` at the meet of their degrees: their
        tails ``(alpha, beta)`` when the two heads agree, else None.

        The tails have degrees of disjoint support.  ``split`` stands in
        for ``split_front``, e.g. a caller's memo of it."""
        split = split or self.split_front
        common = meet_degrees(mu.degree, nu.degree)
        mu_head, alpha = split(mu, common)
        nu_head, beta = split(nu, common)
        return (alpha, beta) if mu_head == nu_head else None

    def lambda_min(self, mu: Path, nu: Path, split=None):
        """Minimal common extensions ``[(alpha, beta)]`` with
        ``mu.alpha == nu.beta`` of degree ``d(mu) v d(nu)``.

        By unique factorisation they are those of the ``meet_tails``:
        none when the heads differ, else the extensions of mu's tail.
        ``split`` is passed on to ``meet_tails``.  Nothing is cached;
        each call returns a new list.
        """
        tails = self.meet_tails(mu, nu, split)
        if tails is None:
            return []
        alpha0, beta0 = tails
        out = []
        for alpha in self.paths_of_degree(beta0.degree,
                                          from_vertex=mu.source):
            head, beta = self.split_front(self.compose(alpha0, alpha),
                                          beta0.degree)
            if head == beta0:
                out.append((alpha, beta))
        return out

    # -- graph-level data ----------------------------------------------

    def coordinate_matrix(self, color: int) -> tuple[tuple[int, ...], ...]:
        """Vertex matrix of the color: entry (v, w) counts ``v Lambda w``."""
        mat = [[0] * self.num_vertices for _ in range(self.num_vertices)]
        for e in self.edges[color]:
            mat[e.range_vertex][e.source] += 1
        return tuple(map(tuple, mat))

    def strongly_connected(self) -> bool:
        fwd = [set() for _ in range(self.num_vertices)]
        bwd = [set() for _ in range(self.num_vertices)]
        for row in self.edges:
            for e in row:
                fwd[e.source].add(e.range_vertex)
                bwd[e.range_vertex].add(e.source)
        for adj in (fwd, bwd):
            seen = {0}
            frontier = [0]
            while frontier:
                v = frontier.pop()
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
            if len(seen) != self.num_vertices:
                return False
        return True


def validate_kgraph(graph: KGraph) -> ValidationReport:
    """Check structure, source/sink-freeness, square tables, and for
    rank >= 3 the associativity of the factorization rules."""
    rep = ValidationReport()
    if graph.num_vertices < 1:
        rep.add("graph has no vertices")
        return rep
    for color, row in enumerate(graph.edges):
        for i, e in enumerate(row):
            if e.id != i:
                rep.add(f"color {color}: edge at position {i} has id {e.id}")
            if e.color != color:
                rep.add(f"color {color}: edge {e.id} claims color {e.color}")
            if not (0 <= e.source < graph.num_vertices
                    and 0 <= e.range_vertex < graph.num_vertices):
                rep.add(f"color {color}: edge {e.id} has endpoints off the vertex set")
    if rep.problems:
        return rep

    for color in range(graph.k):
        has_out = [False] * graph.num_vertices
        has_in = [False] * graph.num_vertices
        for e in graph.edges[color]:
            has_out[e.range_vertex] = True
            has_in[e.source] = True
        for v in range(graph.num_vertices):
            if not has_out[v]:
                rep.add(f"vertex {v} has no color-{color} edge with range {v} (source)")
            if not has_in[v]:
                rep.add(f"vertex {v} has no color-{color} edge with source {v} (sink)")

    for i, j in itertools.combinations(range(graph.k), 2):
        table = graph.squares.get((i, j))
        if table is None:
            rep.add(f"missing factorization table for colors ({i}, {j})")
            continue
        composable = {
            (f.id, g.id)
            for f in graph.edges[i] for g in graph.edges[j]
            if f.source == g.range_vertex
        }
        reversed_composable = {
            (g.id, f.id)
            for g in graph.edges[j] for f in graph.edges[i]
            if g.source == f.range_vertex
        }
        seen_values = set()
        for key, val in table.items():
            if key not in composable:
                rep.add(f"colors ({i},{j}): table entry {key} is not a composable pair")
                continue
            f = graph.edge(i, key[0])
            g = graph.edge(j, key[1])
            if val not in reversed_composable:
                rep.add(f"colors ({i},{j}): image {val} of {key} is not composable")
                continue
            g2 = graph.edge(j, val[0])
            f2 = graph.edge(i, val[1])
            if g2.range_vertex != f.range_vertex or f2.source != g.source:
                rep.add(f"colors ({i},{j}): entry {key} -> {val} moves endpoints")
            if val in seen_values:
                rep.add(f"colors ({i},{j}): image {val} repeated; "
                        "factorization is not a bijection")
            seen_values.add(val)
        for key in composable:
            if key not in table:
                rep.add(f"colors ({i},{j}): composable pair {key} missing; "
                        "factorization is not a bijection")
        if len(seen_values) != len(reversed_composable):
            rep.add(f"colors ({i},{j}): factorization is not a bijection "
                    "onto the reversed pairs")
    if rep.problems:
        return rep

    if graph.k >= 3:
        _check_cubes(graph, rep)
    return rep


def _check_cubes(graph: KGraph, rep: ValidationReport) -> None:
    # two rewriting routes from ascending (f, g, h) to descending order
    # must agree, else canonical forms are ill-defined
    for i, j, l in itertools.combinations(range(graph.k), 3):
        for f in graph.edges[i]:
            for g in graph.edges[j]:
                if f.source != g.range_vertex:
                    continue
                for h in graph.edges[l]:
                    if g.source != h.range_vertex:
                        continue
                    g1, f1 = graph._swap_to_desc(f, g)
                    h1, f2 = graph._swap_to_desc(f1, h)
                    h2, g2 = graph._swap_to_desc(g1, h1)
                    ha, ga = graph._swap_to_desc(g, h)
                    hb, fb = graph._swap_to_desc(f, ha)
                    gb, fc = graph._swap_to_desc(fb, ga)
                    if (h2, g2, f2) != (hb, gb, fc):
                        rep.add(
                            f"associativity cube fails at colors ({i},{j},{l}) "
                            f"edges ({f.id},{g.id},{h.id})")
                        return
