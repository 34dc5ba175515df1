import random
from fractions import Fraction

import pytest

from ssgraph.algebra import add, adjoint, diagonal_identity, \
    edge_monomial, element, element_from_json, element_to_json, \
    elements_equal, expectation, generator_unitary, \
    identity_element, is_central_on_generators, max_deviation, monomial, \
    multiply, periodicity_unitary, refine, scale, vertex_projection, \
    zero_element
from ssgraph.algebra import _checked_monomial, _monomial_product
from ssgraph.errors import IncompleteTriples, NotPeriodic, \
    PreconditionViolated
from ssgraph.kms import _MonomialBlock
from ssgraph.models import odometer_path
from ssgraph.periodicity import SOURCE_CONDITION, is_cycline


def random_element(system, rng, exact=False, size=3):
    graph = system.graph
    ball = system.word_ball(1)
    degrees = [(0, 0), (1, 0), (0, 1), (1, 1)]
    entries = []
    for _ in range(size):
        mu = rng.choice(graph.paths_of_degree(rng.choice(degrees)))
        nu = rng.choice(graph.paths_of_degree(rng.choice(degrees)))
        g = rng.choice(ball)
        if system.act_vertex(g, nu.source) != mu.source:
            continue
        if exact:
            coeff = Fraction(rng.randint(-3, 3), 2)
        else:
            coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        entries.append((mu, g, nu, coeff))
    return element(system, entries)


def test_exactness_follows_the_coefficients(odo22):
    mu = odometer_path(odo22, (1, 0), 0)
    a = monomial(odo22, mu, odo22.identity, mu, coeff=Fraction(1, 3))
    square = multiply(a, a)
    assert square.exact and adjoint(square).exact
    assert square.terms == {(mu, odo22.identity, mu): Fraction(1, 9)}
    assert adjoint(square).terms == square.terms
    assert not multiply(scale(a, 0.5), a).exact
    # exact elements compare on the nose, float ones within COEFF_TOL
    near = add(a, monomial(odo22, mu, odo22.identity, mu,
                           coeff=Fraction(1, 10**15)))
    assert near.exact and not elements_equal(a, near)
    assert elements_equal(scale(a, 1.0), scale(near, 1.0))


def test_monomial_requires_compatible_endpoints(odo22, locally_blind_system):
    system = locally_blind_system
    graph = system.graph
    at_v0 = graph.path([graph.edge(0, 0)])
    at_v1 = graph.path([graph.edge(0, 3)])
    with pytest.raises(PreconditionViolated):
        monomial(system, at_v0, system.identity, at_v1)
    # fine within one vertex
    mu = odometer_path(odo22, (1, 0), 0)
    monomial(odo22, mu, odo22.element(1), mu)


def test_source_condition_text_is_shared(swap_system):
    # the swap moves the one-vertex path's source, so s(mu) != g.s(nu)
    graph = swap_system.graph
    g = swap_system.generator_element("swap")
    mu = nu = graph.path([graph.edge(0, 0)])
    assert swap_system.act_vertex(g, nu.source) != mu.source
    messages = []
    for build in (is_cycline, monomial):
        with pytest.raises(PreconditionViolated) as caught:
            build(swap_system, mu, g, nu)
        messages.append(str(caught.value))
    assert messages == [SOURCE_CONDITION] * 2


def test_vertex_projections_multiply(locally_blind_system):
    system = locally_blind_system
    p0 = vertex_projection(system, 0)
    p1 = vertex_projection(system, 1)
    assert elements_equal(multiply(p0, p0), p0)
    assert multiply(p0, p1).terms == {}


def test_edge_relations(odo22):
    # s_e* s_f = delta_ef p_v for same-color edges over one vertex
    e0 = edge_monomial(odo22, odo22.graph.edge(0, 0))
    e1 = edge_monomial(odo22, odo22.graph.edge(0, 1))
    p = vertex_projection(odo22, 0)
    assert elements_equal(multiply(adjoint(e0), e0), p)
    assert multiply(adjoint(e0), e1).terms == {}


def test_exhaustive_decomposition_refines_identity(odo22, kat21):
    for system, degree in ((odo22, (1, 0)), (odo22, (1, 1)), (kat21, (2,))):
        one = identity_element(system)
        assert elements_equal(one, diagonal_identity(system, degree))


def test_refinement_detects_real_differences(odo22):
    e0 = edge_monomial(odo22, odo22.graph.edge(0, 0))
    e1 = edge_monomial(odo22, odo22.graph.edge(0, 1))
    assert not elements_equal(e0, e1)
    assert not elements_equal(e0, identity_element(odo22))


def test_multiplication_associative(odo22):
    rng = random.Random(41)
    for _ in range(60):
        a = random_element(odo22, rng)
        b = random_element(odo22, rng)
        c = random_element(odo22, rng)
        left = multiply(multiply(a, b), c)
        right = multiply(a, multiply(b, c))
        assert max_deviation(left, right) < 1e-9


def test_multiplication_distributes(odo23):
    rng = random.Random(43)
    for _ in range(30):
        a = random_element(odo23, rng)
        b = random_element(odo23, rng)
        c = random_element(odo23, rng)
        left = multiply(a, add(b, c))
        right = add(multiply(a, b), multiply(a, c))
        assert max_deviation(left, right) < 1e-9


def test_adjoint_is_antimultiplicative_involution(odo22):
    rng = random.Random(47)
    for _ in range(30):
        a = random_element(odo22, rng)
        b = random_element(odo22, rng)
        assert max_deviation(adjoint(adjoint(a)), a) < 1e-12
        left = adjoint(multiply(a, b))
        right = multiply(adjoint(b), adjoint(a))
        assert max_deviation(left, right) < 1e-9


def test_exact_elements_obey_the_algebra_laws(odo22):
    # rational coefficients stay rational, so every law holds on the nose
    rng = random.Random(53)
    for _ in range(30):
        a, b, c = (random_element(odo22, rng, exact=True) for _ in range(3))
        sides = [(multiply(multiply(a, b), c), multiply(a, multiply(b, c))),
                 (multiply(a, add(b, c)), add(multiply(a, b), multiply(a, c))),
                 (adjoint(adjoint(a)), a),
                 (adjoint(multiply(a, b)), multiply(adjoint(b), adjoint(a)))]
        for left, right in sides:
            assert left.exact and right.exact
            assert elements_equal(left, right)


def test_scalars_do_not_multiply_elements_from_the_left(odo22):
    # an element is a named tuple, and 2 * a must not repeat it
    with pytest.raises(TypeError):
        2 * identity_element(odo22)


def test_generator_unitaries_represent_the_group(odo22):
    one = odo22.element(1)
    two = odo22.element(2)
    u1 = generator_unitary(odo22, one)
    u2 = generator_unitary(odo22, two)
    assert elements_equal(multiply(u1, u1), u2)
    assert elements_equal(multiply(u1, adjoint(u1)), identity_element(odo22))
    assert elements_equal(adjoint(u1), generator_unitary(odo22,
                                                         odo22.element(-1)))


def reference_product(system, left, right):
    """The monomials of left * right, computed in one loop over the
    minimal common extensions: the reference for ``_monomial_product``."""
    graph = system.graph
    g, h = left.g, right.g
    h_inv = system.inverse(h)
    out = []
    for lam, omega in graph.lambda_min(left.nu, right.mu):
        mu = graph.compose(left.mu, system.act_path(g, lam))
        pulled = system.act_path(h_inv, omega)
        mid = system.multiply(system.restrict_path(g, lam),
                              system.restrict_path(h, pulled))
        nu = graph.compose(right.nu, pulled)
        out.append(_checked_monomial(system, mu, mid, nu))
    return out


@pytest.mark.parametrize("name", ["odo22", "kat21", "kat2v"])
def test_monomial_product_matches_reference(name, request):
    system = request.getfixturevalue(name)
    block = list(_MonomialBlock(system, (1,) * system.graph.k,
                                system.generator_closure()))
    for left in block:
        for right in block:
            assert _monomial_product(system, left, right) == \
                reference_product(system, left, right)


def test_covariance_relation(odo22, odo23):
    # u_g s_e = s_(g.e) u_(g|_e)
    for system in (odo22, odo23):
        g = system.element(1)
        u = generator_unitary(system, g)
        for color in range(system.graph.k):
            for e in system.graph.edges[color]:
                s_e = edge_monomial(system, e)
                image = system.act_path(g, system.graph.path([e]))
                rest = system.restrict_path(g, system.graph.path([e]))
                left = multiply(u, s_e)
                right = multiply(
                    monomial(system, image, system.identity,
                             system.graph.vertex_path(image.source)),
                    generator_unitary(system, rest))
                assert elements_equal(left, right)


def test_scale_and_zero(odo22):
    p = vertex_projection(odo22, 0)
    doubled = scale(p, 2)
    assert max_deviation(add(p, p), doubled) < 1e-12
    assert scale(p, 0).terms == {}
    z = zero_element(odo22)
    assert add(p, z).terms == p.terms


def test_exact_mode_stays_rational(odo22):
    mu = odometer_path(odo22, (1, 0), 0)
    a = monomial(odo22, mu, odo22.identity, mu,
                 coeff=Fraction(1, 3))
    b = multiply(a, a)
    for value in b.terms.values():
        assert isinstance(value, Fraction)
        assert value.denominator == 9


def test_periodicity_unitary_on_balanced_machine(odo22):
    v = periodicity_unitary(odo22, (1, 0), (0, 1))
    assert v.exact
    one = identity_element(odo22)
    assert elements_equal(multiply(v, adjoint(v)), one)
    assert elements_equal(multiply(adjoint(v), v), one)
    assert is_central_on_generators(odo22, v)
    v2 = periodicity_unitary(odo22, (2, 0), (0, 2))
    assert elements_equal(multiply(v, v), v2)


def test_periodicity_unitary_requires_cycline_pairs(odo23):
    with pytest.raises(NotPeriodic):
        periodicity_unitary(odo23, (1, 0), (0, 1))


def test_edge_monomial_not_central(odo22):
    e0 = edge_monomial(odo22, odo22.graph.edge(0, 0))
    assert not is_central_on_generators(odo22, e0)


def test_expectation_projects_onto_cycline_span(odo22):
    rng = random.Random(53)
    for _ in range(20):
        a = random_element(odo22, rng, size=4)
        ea = expectation(odo22, a)
        eea = expectation(odo22, ea)
        assert max_deviation(ea, eea) < 1e-12
        for key in ea.terms:
            from ssgraph.periodicity import is_cycline
            assert is_cycline(odo22, key.mu, key.g, key.nu).verdict


def test_expectation_kills_off_diagonal(odo23):
    mu = odometer_path(odo23, (1, 0), 0)
    nu = odometer_path(odo23, (0, 1), 0)
    a = monomial(odo23, mu, odo23.identity, nu)
    assert expectation(odo23, a).terms == {}


def test_expectation_positive_on_vertex_projections(odo22):
    # only the degree-zero diagonal is a raw-coefficient invariant; at
    # higher degrees positive mass moves between refinement levels
    rng = random.Random(59)
    zero = odo22.graph.vertex_path(0)
    for _ in range(10):
        a = random_element(odo22, rng, size=3)
        gram = expectation(odo22, multiply(adjoint(a), a))
        for key, value in gram.terms.items():
            if key.mu == zero and key.nu == zero and odo22.is_identity(key.g):
                assert value.real > -1e-9


def test_json_roundtrip_float(odo22):
    rng = random.Random(61)
    a = random_element(odo22, rng, size=4)
    rows = element_to_json(a)
    b = element_from_json(odo22, rows)
    assert max_deviation(a, b) < 1e-12


def test_json_roundtrip_exact(odo22):
    v = periodicity_unitary(odo22, (1, 0), (0, 1))
    rows = element_to_json(v)
    back = element_from_json(odo22, rows)
    assert max_deviation(v, back) < 1e-12
    assert sorted(map(str, rows)) == sorted(map(str, element_to_json(v)))


def test_incomplete_triples_guard(odo22):
    # an element set missing the identity cannot produce the unitary
    ball = [odo22.element(1)]
    with pytest.raises((IncompleteTriples, NotPeriodic)):
        periodicity_unitary(odo22, (1, 0), (0, 1), elements=ball)
