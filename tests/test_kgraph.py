import itertools
import random

import pytest

from ssgraph.algebra import Monomial
from ssgraph.errors import BadRange, NonComposable
from ssgraph.kgraph import Edge, KGraph, Path, add_degrees, join_degrees, \
    leq_degrees, meet_degrees, sub_degrees, unit_degree, validate_kgraph
from ssgraph.models import build_katsura, build_odometer
from ssgraph.periodicity import CyclineState


def test_degree_helpers():
    assert add_degrees((1, 2), (3, 0)) == (4, 2)
    assert sub_degrees((3, 2), (1, 2)) == (2, 0)
    assert meet_degrees((1, 2), (2, 1)) == (1, 1)
    assert join_degrees((1, 2), (2, 1)) == (2, 2)
    assert leq_degrees((1, 1), (2, 1))
    assert not leq_degrees((3, 0), (2, 1))


def test_vertex_path_and_edges_from(odo23):
    g = odo23.graph
    v = g.vertex_path(0)
    assert v.degree == (0, 0)
    assert v.source == 0 and v.range_vertex == 0
    assert [e.id for e in g.edges_from(0, 0)] == [0, 1]
    assert [e.id for e in g.edges_from(0, 1)] == [0, 1, 2]


def test_path_counts_odometer(odo23):
    # |Lambda^(a,b)| = 2^a 3^b over the single vertex
    g = odo23.graph
    for a in range(3):
        for b in range(3):
            paths = g.paths_of_degree((a, b))
            assert len(paths) == 2 ** a * 3 ** b
            assert len(set(paths)) == len(paths)


def test_paths_filters(fibonacci_graph):
    # path count = sum of the entries of [[1,1],[1,0]] squared
    g = fibonacci_graph
    assert len(g.paths_of_degree((2,))) == 5
    from_v0 = g.paths_of_degree((2,), from_vertex=0)
    assert all(p.range_vertex == 0 for p in from_v0)
    to_v1 = g.paths_of_degree((2,), to_vertex=1)
    assert all(p.source == 1 for p in to_v1)


def test_compose_requires_matching_endpoint(fibonacci_graph):
    g = fibonacci_graph
    loop = g.path([g.edge(0, 0)])
    up = g.path([g.edge(0, 2)])
    assert g.compose(up, loop).degree == (2,)
    with pytest.raises(NonComposable):
        g.compose(loop, up)


def test_value_types_are_frozen_and_hash_by_value(odo22):
    g = odo22.graph
    e = g.edge(0, 1)
    mu = g.path([e, g.edge(1, 0)])
    h = odo22.element(1)
    mono = Monomial(mu, odo22.identity, mu)
    state = CyclineState(mu, h, mu)
    for value, field in ((e, "id"), (mu, "edges"), (h, "key"),
                         (mono, "g"), (state, "beta")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    twins = ((e, Edge(1, 0, 0, 0)),
             (mu, Path(0, (Edge(1, 0, 0, 0), Edge(0, 1, 0, 0)), (1, 1))),
             (h, odo22.element_from_word((1,))),
             (mono, Monomial(g.path([e, g.edge(1, 0)]), odo22.identity, mu)),
             (state, CyclineState(mu, odo22.element(1), mu)))
    for a, b in twins:
        assert a == b and a is not b
        assert hash(a) == hash(b)


def test_edge_repr_is_kept_in_error_texts(odo22, fibonacci_graph):
    text = "Edge(id=1, color=0, source=0, range_vertex=0)"
    assert repr(odo22.graph.edge(0, 1)) == text
    assert str(odo22.graph.edge(0, 1)) == text
    g = fibonacci_graph
    with pytest.raises(NonComposable) as err:
        g.path([g.edge(0, 0), g.edge(0, 2)])
    assert str(err.value) == (
        "edges Edge(id=0, color=0, source=0, range_vertex=0) and "
        "Edge(id=2, color=0, source=0, range_vertex=1) do not compose")


def test_split_and_segment_roundtrip(odo23):
    g = odo23.graph
    rng = random.Random(7)
    paths = g.paths_of_degree((2, 2))
    for _ in range(25):
        mu = rng.choice(paths)
        p = (rng.randint(0, 2), rng.randint(0, 2))
        head, tail = g.split_front(mu, p)
        assert head.degree == p
        assert g.compose(head, tail) == mu
        assert g.segment(mu, (0, 0), p) == head
    with pytest.raises(BadRange):
        g.split_front(paths[0], (3, 0))


def test_split_front_rejects_a_degree_of_the_wrong_length(odo23):
    g = odo23.graph
    mu = g.paths_of_degree((1, 1))[0]
    for p in ((1, 1, 5), (0, 0, 0), (1,)):
        with pytest.raises(BadRange):
            g.split_front(mu, p)
        with pytest.raises(BadRange):
            g.segment(mu, p, (1, 1))
    with pytest.raises(BadRange):
        g.segment(mu, (0, 0), (1, 1, 0))


@pytest.mark.parametrize("name,bound,count", [
    ("odo23", (2, 2), (1 + 2 + 4) * (1 + 3 + 9)),
    ("flip_square_system", (2, 2), 7 * 7),
    ("odo222", (2, 2, 2), 7 ** 3)])
def test_split_front_factors_every_path_at_every_degree(name, bound, count,
                                                        request):
    # unique factorisation: the head and tail of degrees p and d - p
    # that compose to mu are the only ones, so this is a full oracle
    system = (build_odometer((2, 2, 2)) if name == "odo222"
              else request.getfixturevalue(name))
    g = system.graph
    paths = _paths_up_to(g, bound)
    assert len(paths) == count
    for mu in paths:
        d = mu.degree
        for p in itertools.product(*(range(b + 1) for b in d)):
            head, tail = g.split_front(mu, p)
            assert head.degree == p
            assert tail.degree == sub_degrees(d, p)
            assert g.compose(head, tail) == mu
        zero = (0,) * g.k
        for p, ends in ((zero, (g.vertex_path(mu.range_vertex), mu)),
                        (d, (mu, g.vertex_path(mu.source)))):
            head, tail = g.split_front(mu, list(p))
            assert (head, tail) == ends
            assert type(head.degree) is tuple and len(head.degree) == g.k
            assert type(tail.degree) is tuple and len(tail.degree) == g.k
        for color in range(g.k):
            for step in (-1, d[color] + 1):
                p = tuple(step if c == color else 0 for c in range(g.k))
                with pytest.raises(BadRange):
                    g.split_front(mu, p)


def test_canonical_form_is_color_ascending(odo623):
    g = odo623.graph
    for mu in g.paths_of_degree((1, 1, 1)):
        colors = [e.color for e in mu.edges]
        assert colors == sorted(colors)


def test_factorization_is_consistent(odo23):
    # rebuilding a path from any split must give the same canonical form
    g = odo23.graph
    rng = random.Random(11)
    paths = g.paths_of_degree((2, 1))
    for _ in range(20):
        mu = rng.choice(paths)
        head, tail = g.split_front(mu, (1, 1))
        assert g.compose(head, tail) == mu


def _paths_up_to(g, bound):
    return [mu for d in itertools.product(*(range(b + 1) for b in bound))
            for mu in g.paths_of_degree(d)]


def _assert_shift_matches_split(g, bound):
    checked = 0
    for alpha in _paths_up_to(g, bound):
        for color in range(g.k):
            for f in g.edges_from(alpha.source, color):
                e, tail = g.shift_edge(alpha, f)
                head, rest = g.split_front(g.compose(alpha, g.path([f])),
                                           unit_degree(g.k, color))
                assert (g.path([e]), tail) == (head, rest)
                checked += 1
    return checked


def test_shift_edge_matches_compose_then_split(odo623):
    g = odo623.graph
    # 1 + 6 + 2 + 3 + 12 + 18 + 6 + 36 paths, each with 6 + 2 + 3 edges
    assert _assert_shift_matches_split(g, (1, 1, 1)) == 84 * 11


def test_shift_edge_matches_on_multi_vertex_graphs(fibonacci_graph):
    katsura = build_katsura([[2, 1], [1, 2]], [[1, 1], [1, 1]]).graph
    for g in (fibonacci_graph, katsura):
        assert g.num_vertices == 2
        assert _assert_shift_matches_split(g, (3,)) > 0


def test_shift_edge_rejects_non_composable_edge(fibonacci_graph):
    g = fibonacci_graph
    loop = g.path([g.edge(0, 0)])          # source v0
    at_v1 = g.edge(0, 2)                   # range v1
    with pytest.raises(NonComposable):
        g.shift_edge(loop, at_v1)
    with pytest.raises(NonComposable):
        g.shift_edge(g.vertex_path(0), at_v1)


def test_lambda_min_covers_extensions(odo22):
    g = odo22.graph
    mu = g.paths_of_degree((1, 0))[0]
    nus = g.paths_of_degree((0, 1))
    seen = set()
    for nu in nus:
        for alpha, beta in g.lambda_min(mu, nu):
            tau = g.compose(mu, alpha)
            assert tau == g.compose(nu, beta)
            assert tau.degree == (1, 1)
            seen.add(tau)
    # every degree-(1,1) extension of mu arises from exactly one nu
    extensions = {g.compose(mu, lam)
                  for lam in g.paths_of_degree((0, 1))}
    assert seen == extensions


def test_lambda_min_empty_on_disconnected_ranges(fibonacci_graph):
    g = fibonacci_graph
    at_v0 = g.path([g.edge(0, 0)])
    at_v1 = g.path([g.edge(0, 2)])
    assert g.lambda_min(at_v0, at_v1) == []


def test_lambda_min_returns_a_fresh_list(odo22):
    g = odo22.graph
    mu = g.paths_of_degree((1, 0))[0]
    nu = g.paths_of_degree((0, 1))[0]
    first = g.lambda_min(mu, nu)
    expected = list(first)
    assert expected
    first.clear()
    first.append("junk")
    assert g.lambda_min(mu, nu) == expected


def reference_lambda_min(g, mu, nu):
    """Every extension of mu to degree d(mu) v d(nu) whose head of
    degree d(nu) is nu, enumerated in full."""
    if mu.range_vertex != nu.range_vertex:
        return []
    top = join_degrees(mu.degree, nu.degree)
    out = []
    for alpha in g.paths_of_degree(sub_degrees(top, mu.degree),
                                   from_vertex=mu.source):
        head, beta = g.split_front(g.compose(mu, alpha), nu.degree)
        if head == nu:
            out.append((alpha, beta))
    return out


@pytest.mark.parametrize("name,bound", [
    ("odo23", (2, 2)), ("flip_square_system", (2, 2)), ("kat2v", (3,)),
    ("odo222", (1, 1, 1))])
def test_lambda_min_matches_full_enumeration(name, bound, request):
    system = (build_odometer((2, 2, 2)) if name == "odo222"
              else request.getfixturevalue(name))
    # a fresh graph, so that no pair is answered from the memo
    g = KGraph(system.graph.k, system.graph.num_vertices, system.graph.edges,
               system.graph.squares)
    paths = _paths_up_to(g, bound)
    found = refuted = 0
    for mu, nu in itertools.product(paths, paths):
        expected = reference_lambda_min(g, mu, nu)
        assert g.lambda_min(mu, nu) == expected
        found += bool(expected)
        refuted += g.meet_tails(mu, nu) is None
    assert found and refuted
    # the Katsura pair has two vertices, so some pairs differ in range
    assert (g.num_vertices > 1) == any(
        mu.range_vertex != nu.range_vertex and g.meet_tails(mu, nu) is None
        for mu in paths for nu in paths)


def test_vertex_matrix_counts_match_paths(odo24, fibonacci_graph):
    # entry (v, w) of the product of coordinate matrices counts vLambda^p w
    for system, p in ((odo24, (2, 1)), (fibonacci_graph, (3,))):
        g = system.graph if hasattr(system, "graph") else system
        n = g.num_vertices
        total = [[int(v == w) for w in range(n)] for v in range(n)]
        for color in range(g.k):
            mat = g.coordinate_matrix(color)
            for _ in range(p[color]):
                total = [[sum(row[u] * mat[u][w] for u in range(n))
                          for w in range(n)] for row in total]
        for v in range(n):
            for w in range(n):
                count = sum(1 for mu in g.paths_of_degree(p)
                            if mu.range_vertex == v and mu.source == w)
                assert count == total[v][w]


def test_validate_accepts_builtins(odo22, odo623, kat21, fibonacci_graph):
    for g in (odo22.graph, odo623.graph, kat21.graph, fibonacci_graph):
        assert validate_kgraph(g).ok


def test_validate_rejects_missing_square():
    g = build_odometer((2, 2)).graph
    squares = {k: dict(v) for k, v in g.squares.items()}
    del squares[(0, 1)][(0, 0)]
    broken = KGraph(2, 1, g.edges, squares)
    report = validate_kgraph(broken)
    assert not report.ok
    assert any("bijection" in p for p in report.problems)


def test_validate_rejects_repeated_image():
    g = build_odometer((2, 2)).graph
    squares = {k: dict(v) for k, v in g.squares.items()}
    squares[(0, 1)][(0, 0)] = squares[(0, 1)][(1, 1)]
    report = validate_kgraph(KGraph(2, 1, g.edges, squares))
    assert not report.ok
    assert any("bijection" in p for p in report.problems)


def test_validate_rejects_sink():
    edges = [[Edge(0, 0, 0, 0), Edge(1, 0, 0, 1)]]
    report = validate_kgraph(KGraph(1, 2, edges, {}))
    assert not report.ok


def test_cube_condition_checked_for_rank_three(odo623):
    g = odo623.graph
    assert validate_kgraph(g).ok
    squares = {k: dict(v) for k, v in g.squares.items()}
    # swap two images in one table; bijectivity survives but the two
    # rewriting routes through three colors disagree
    table = squares[(0, 1)]
    (ka, va), (kb, vb) = list(table.items())[:2]
    table[ka], table[kb] = vb, va
    report = validate_kgraph(KGraph(3, 1, g.edges, squares))
    assert not report.ok


def test_strongly_connected(fibonacci_graph):
    assert fibonacci_graph.strongly_connected()
    two_loops = KGraph(1, 2, [[Edge(0, 0, 0, 0), Edge(1, 0, 1, 1)]], {})
    assert not two_loops.strongly_connected()
