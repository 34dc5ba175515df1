import random

import pytest

from ssgraph.action import check_degenerate_property, restriction_graph
from ssgraph.errors import DomainError, NotBalanced, SpecViolation
from ssgraph.models import BUILTIN_KATSURA, BUILTIN_ODOMETERS, build_katsura, \
    build_odometer, degree_weight, expected_odometer_per, gamma_bijection, \
    odometer_commute, odometer_path, odometer_value


def test_builtin_lists():
    assert BUILTIN_ODOMETERS == ((2, 2), (2, 3), (2, 4), (6, 2, 3))
    assert len(BUILTIN_KATSURA) == 2
    for t, b in BUILTIN_KATSURA:
        build_katsura(t, b)


def test_odometer_graph_shape(odo23):
    g = odo23.graph
    assert g.k == 2 and g.num_vertices == 1
    assert [len(row) for row in g.edges] == [2, 3]


def test_odometer_rejects_small_sizes():
    with pytest.raises(SpecViolation):
        build_odometer((1, 3))


def test_value_path_roundtrip(odo23):
    for degree in ((0, 0), (1, 0), (0, 2), (2, 2), (3, 1)):
        weight = degree_weight(odo23.n, degree)
        for value in range(weight):
            mu = odometer_path(odo23, degree, value)
            assert mu.degree == degree
            assert odometer_value(odo23, mu) == value
    with pytest.raises(DomainError):
        odometer_path(odo23, (1, 0), 2)


def test_squares_agree_with_commutation_rule(odo23, odo623):
    # the factorization tables must match the arithmetic rule
    # s + t*n_i = t2 + s2*n_j re-derived edge by edge
    for system in (odo23, odo623):
        g = system.graph
        for (i, j), table in g.squares.items():
            for (s, t), (t2, s2) in table.items():
                right_out, left_out = odometer_commute(
                    system, [(i, (s,))], [(j, (t,))])
                assert right_out == [(j, (t2,))]
                assert left_out == [(i, (s2,))]


def test_odometer_commute_merge_value(odo22):
    # both factorizations carry the same two-digit value
    g = odo22.graph
    for s in range(2):
        for t in range(2):
            t2, s2 = odo22.graph.squares[(0, 1)][(s, t)]
            assert s + t * 2 == t2 + s2 * 2


def test_gamma_bijection_two_four(odo24):
    gamma = gamma_bijection(odo24, (2, 0), (0, 1))
    assert len(gamma) == 4
    for mu, nu in gamma.items():
        assert mu.degree == (2, 0) and nu.degree == (0, 1)
        assert odometer_value(odo24, mu) == odometer_value(odo24, nu)
    mu = odometer_path(odo24, (2, 0), 1)
    assert gamma[mu] == odometer_path(odo24, (0, 1), 1)


def test_gamma_bijection_identity_on_zero(odo22):
    gamma = gamma_bijection(odo22, (0, 0), (0, 0))
    zero = odo22.graph.vertex_path(0)
    assert gamma == {zero: zero}


def test_gamma_bijection_binary_pair(odo22):
    gamma = gamma_bijection(odo22, (1, 0), (0, 1))
    for s in range(2):
        assert gamma[odometer_path(odo22, (1, 0), s)] == \
            odometer_path(odo22, (0, 1), s)


def test_gamma_bijection_rejects_unbalanced(odo23):
    with pytest.raises(NotBalanced):
        gamma_bijection(odo23, (1, 0), (0, 1))


def test_expected_periodicity_lattices():
    assert expected_odometer_per((2, 3), 4) == ()
    assert expected_odometer_per((2, 2), 4) == ((1, -1),)
    assert expected_odometer_per((2, 4), 4) == ((2, -1),)
    assert expected_odometer_per((6, 2, 3), 4) == ((1, -1, -1),)


def test_expected_periodicity_is_box_independent():
    for box in (2, 3, 5):
        assert expected_odometer_per((2, 4), box) == ((2, -1),)


def test_katsura_binary_matches_odometer_color():
    system = build_katsura([[2]], [[1]])
    machine = build_odometer((2,))
    kat = system.generators[0]
    odo = machine.generators[0]
    assert kat.act == odo.act
    assert kat.restrict == odo.restrict


def test_katsura_action_rule(kat32):
    # g.(v,w,m) determined by g*B + m = h*T + n with 0 <= n < T
    table = kat32.generators[0]
    for eid in range(3):
        n = (2 * 1 + eid) % 3
        h = (2 * 1 + eid) // 3
        assert table.act[(0, eid)] == n
        assert table.restrict[(0, eid)] == ((1,) if h == 1 else ())


def test_katsura_rejects_bad_specs():
    with pytest.raises(SpecViolation):
        build_katsura([[1]], [[1]])
    with pytest.raises(SpecViolation):
        build_katsura([[2, 1], [1, 2]], [[1, 0], [1, 1]])
    with pytest.raises(SpecViolation):
        build_katsura([[2, 1]], [[1, 1]])
    with pytest.raises(SpecViolation):
        build_katsura([[2]], [[3]])
    with pytest.raises(SpecViolation):
        build_katsura([[-2]], [[1]])


def test_katsura_two_vertex_build():
    system = build_katsura([[2, 1], [1, 2]], [[1, 1], [1, 1]])
    g = system.graph
    assert g.num_vertices == 2
    assert len(g.edges[0]) == 6
    plus = system.element(1)
    for e in g.edges[0]:
        image = system.act_path(plus, g.path([e]))
        assert image.degree == (1,)


def test_degenerate_property_on_builtins(odo22, odo23, odo623, kat21, kat32):
    for system in (odo22, odo23, odo623, kat21, kat32):
        assert check_degenerate_property(system, restriction_graph(system)) \
            is True


def test_degenerate_property_fails_on_self_restriction(self_restrict_system):
    assert check_degenerate_property(
        self_restrict_system, restriction_graph(self_restrict_system)) is False


def test_degenerate_witness_edges(odo23):
    # any edge with a digit below n_i - 1 restricts +1 to the identity
    plus = odo23.element(1)
    e = odo23.graph.path([odo23.graph.edge(1, 0)])
    assert odo23.is_identity(odo23.restrict_path(plus, e))


def test_exact_element_equality_matches_bisimulation(odo22, word_odometer22):
    rng = random.Random(31)
    for _ in range(20):
        m = rng.randint(-5, 5)
        word = [1] * m if m >= 0 else [-1] * -m
        exact_equal = odo22.equal(odo22.element(m), odo22.identity)
        bisim_equal = word_odometer22.is_identity(
            word_odometer22.element_from_word(word))
        assert exact_equal == bisim_equal == (m == 0)
