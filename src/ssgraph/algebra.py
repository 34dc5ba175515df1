"""The dense symbolic *-algebra spanned by monomials s_mu u_g s_nu*.

Elements are finite formal sums over canonical monomial keys; no
operator norm exists here, so equality means equality of coefficient
maps.  Multiplication expands through minimal common extensions, so
the defining relation u_g s_mu = s_{g.mu} u_{g|mu} falls out of
``multiply`` rather than being applied as a rewrite rule.  Coefficients
are plain Python numbers: ints and Fractions stay exact under + and *,
which is what the golden identities are tested in.
"""
from __future__ import annotations

from numbers import Rational
from typing import NamedTuple

from .errors import IncompleteTriples, NonComposable, NotPeriodic, \
    ParseError, PreconditionViolated, need_field
from .kgraph import Path, join_degrees, zero_degree
from .periodicity import SOURCE_CONDITION, cycline_triples, is_cycline

COEFF_TOL = 1e-12


class Monomial(NamedTuple):
    """The formal product s_mu u_g s_nu*; requires s(mu) = g.s(nu).

    A named tuple, so monomial dicts hash in C; it equals any tuple
    with the same three fields."""

    mu: Path
    g: "GroupElement"
    nu: Path


class AlgebraElement(NamedTuple):
    """A finite sum of monomials with nonzero coefficients.

    An element is exact when every coefficient is rational (an int or a
    Fraction); exact elements compare on the nose, others within
    ``COEFF_TOL``.  Scalars multiply through ``scale``: ``2 * a`` raises
    TypeError instead of repeating the tuple.
    """

    system: "ActionSystem"
    terms: dict

    @property
    def exact(self) -> bool:
        return all(isinstance(val, Rational) for val in self.terms.values())

    def coefficient(self, key: Monomial):
        return self.terms.get(key, 0)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return add(self, other)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return add(self, scale(other, -1))

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return multiply(self, other)

    def __rmul__(self, other):
        return NotImplemented


def _checked_monomial(system, mu: Path, g, nu: Path) -> Monomial:
    if system.act_vertex(g, nu.source) != mu.source:
        raise PreconditionViolated(SOURCE_CONDITION)
    return Monomial(mu, g, nu)


def element(system, triples) -> AlgebraElement:
    """Build an element from ``(mu, g, nu, coefficient)`` entries."""
    terms: dict = {}
    for mu, g, nu, coeff in triples:
        key = _checked_monomial(system, mu, g, nu)
        terms[key] = terms.get(key, 0) + coeff
    return AlgebraElement(system, _drop_zeros(terms))


def _drop_zeros(terms: dict) -> dict:
    return {key: val for key, val in terms.items() if val}


def zero_element(system) -> AlgebraElement:
    return AlgebraElement(system, {})


def monomial(system, mu: Path, g, nu: Path, coeff=1) -> AlgebraElement:
    return element(system, [(mu, g, nu, coeff)])


def vertex_projection(system, v: int) -> AlgebraElement:
    p = system.graph.vertex_path(v)
    return monomial(system, p, system.identity, p)


def edge_monomial(system, e) -> AlgebraElement:
    """The partial isometry s_e as the monomial (e, 1, s(e))."""
    graph = system.graph
    return monomial(system, graph.path([e]), system.identity,
                    graph.vertex_path(e.source))


def generator_unitary(system, g) -> AlgebraElement:
    """u_g as the sum over vertices of (g.v, g, v)."""
    graph = system.graph
    entries = []
    for v in range(graph.num_vertices):
        image = graph.vertex_path(system.act_vertex(g, v))
        entries.append((image, g, graph.vertex_path(v), 1))
    return element(system, entries)


def identity_element(system) -> AlgebraElement:
    return generator_unitary(system, system.identity)


def diagonal_identity(system, degree) -> AlgebraElement:
    """The identity refined along degree: sum of (lam, 1, lam) over
    all paths lam of the given degree.  Multiplying by it rewrites an
    element through the exhaustive-decomposition relation."""
    entries = [(lam, system.identity, lam, 1)
               for lam in system.graph.paths_of_degree(tuple(degree))]
    return element(system, entries)


def add(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    terms = dict(a.terms)
    for key, val in b.terms.items():
        terms[key] = terms.get(key, 0) + val
    return AlgebraElement(a.system, _drop_zeros(terms))


def scale(a: AlgebraElement, factor) -> AlgebraElement:
    terms = {key: val * factor for key, val in a.terms.items()}
    return AlgebraElement(a.system, _drop_zeros(terms))


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the minimal-common-extension product."""
    if a.system is not b.system:
        raise PreconditionViolated("elements live over different systems")
    system = a.system
    terms: dict = {}
    for left, cl in a.terms.items():
        for right, cr in b.terms.items():
            coeff = cl * cr
            for key in _monomial_product(system, left, right):
                terms[key] = terms.get(key, 0) + coeff
    return AlgebraElement(system, _drop_zeros(terms))


def _monomial_product(system, left: Monomial, right: Monomial):
    """The product monomials (mu.head, mid, nu.pulled) around the
    middle of ``_product_middle``."""
    graph = system.graph
    compose = graph.compose
    return [Monomial(compose(left.mu, head), mid, compose(right.nu, pulled))
            for head, mid, pulled in _product_middle(
                system, left.g, graph.lambda_min(left.nu, right.mu),
                right.g)]


def _product_middle(system, g, extensions, h):
    """The part of (mu0, g, nu) * (mu, h, nu1) that does not depend on
    the outer legs, given ``extensions = lambda_min(nu, mu)``: per
    (lam, omega) in it, in its order, the triple
    (g.lam, g|lam * h|(h^-1.omega), h^-1.omega).

    The source of ``compose(p, q)`` is the source of q, so the
    monomial condition of each product term is checked here."""
    h_inv = system.inverse(h)
    out = []
    for lam, omega in extensions:
        head = system.act_path(g, lam)
        pulled = system.act_path(h_inv, omega)
        mid = system.multiply(system.restrict_path(g, lam),
                              system.restrict_path(h, pulled))
        if system.act_vertex(mid, pulled.source) != head.source:
            raise PreconditionViolated(SOURCE_CONDITION)
        out.append((head, mid, pulled))
    return out


def adjoint(a: AlgebraElement) -> AlgebraElement:
    system = a.system
    terms: dict = {}
    for key, val in a.terms.items():
        flipped = _checked_monomial(system, key.nu,
                                      system.inverse(key.g), key.mu)
        terms[flipped] = terms.get(flipped, 0) + val.conjugate()
    return AlgebraElement(system, _drop_zeros(terms))


def max_deviation(a: AlgebraElement, b: AlgebraElement) -> float:
    """Largest raw coefficient difference between two elements."""
    keys = set(a.terms) | set(b.terms)
    worst = 0.0
    for key in keys:
        ca = complex(a.coefficient(key))
        cb = complex(b.coefficient(key))
        worst = max(worst, abs(ca - cb))
    return worst


def _terms_match(a: AlgebraElement, b: AlgebraElement) -> bool:
    if a.exact and b.exact:
        return a.terms == b.terms
    return max_deviation(a, b) <= COEFF_TOL


def refine(a: AlgebraElement, degree) -> AlgebraElement:
    """Rewrite through the exhaustive decomposition at the given
    degree: every monomial's right leg is extended to degree-v-join."""
    return multiply(a, diagonal_identity(a.system, degree))


def elements_equal(a: AlgebraElement, b: AlgebraElement) -> bool:
    """Equality at the dense-span level.

    Formal sums that differ as coefficient maps can still represent
    the same element through the exhaustive decomposition (the sum of
    s_e s_e* over a vertex's edges is that vertex's projection), so a
    raw mismatch is retried after refining both sides to the join of
    all right-leg degrees.
    """
    if _terms_match(a, b):
        return True
    target = zero_degree(a.system.graph.k)
    for part in (a, b):
        for key in part.terms:
            target = join_degrees(target, key.nu.degree)
    return _terms_match(refine(a, target), refine(b, target))


def periodicity_unitary(system, m, n, elements=None,
                        ball_radius: int = 3) -> AlgebraElement:
    """V_{m,n}: the sum of all cycline monomials at degrees (m, n).

    Every degree-m path must head exactly one triple; a partial fiber
    means the group ball was too small to witness periodicity."""
    m = tuple(m)
    n = tuple(n)
    if elements is None:
        elements = system.restriction_closure(system.word_ball(ball_radius))
    triples = list(dict.fromkeys(cycline_triples(system, m, n, elements)))
    if not triples:
        raise NotPeriodic(f"no cycline triples at degrees {m}, {n}")
    heads = [mu for mu, _, _ in triples]
    fiber = system.graph.paths_of_degree(m)
    if len(heads) != len(set(heads)) or len(heads) != len(fiber):
        raise IncompleteTriples(
            f"{len(heads)} triples for a fiber of {len(fiber)} paths")
    return element(system, [(mu, g, nu, 1) for mu, g, nu in triples])


def expectation(system, a: AlgebraElement) -> AlgebraElement:
    """Keep exactly the cycline monomials; the conditional expectation
    onto the self-similar cycline subalgebra."""
    terms = {
        key: val for key, val in a.terms.items()
        if is_cycline(system, key.mu, key.g, key.nu).verdict
    }
    return AlgebraElement(system, terms)


def is_central_on_generators(system, a: AlgebraElement) -> bool:
    """Whether ``a`` commutes with every edge monomial, vertex
    projection, and generator unitary."""
    graph = system.graph
    probes = []
    for row in graph.edges:
        for e in row:
            probes.append(edge_monomial(system, e))
    for v in range(graph.num_vertices):
        probes.append(vertex_projection(system, v))
    for gen in system.generators:
        probes.append(generator_unitary(
            system, system.generator_element(gen.name)))
    return all(elements_equal(multiply(a, x), multiply(x, a))
               for x in probes)


# -- serialization -------------------------------------------------------

def _path_to_json(p: Path):
    return {"range": p.range_vertex,
            "edges": [[e.color + 1, e.id] for e in p.edges]}


def _path_from_json(graph, row, side, where) -> Path:
    obj = need_field(row, side, dict, where)
    where = f"{where} {side}"
    edges = []
    for pair in need_field(obj, "edges", list, where):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(type(x) is int for x in pair)
                and 1 <= pair[0] <= graph.k
                and 0 <= pair[1] < len(graph.edges[pair[0] - 1])):
            raise ParseError(f"{where}: no edge {pair}")
        edges.append(graph.edge(pair[0] - 1, pair[1]))
    range_vertex = need_field(obj, "range", int, where)
    if not 0 <= range_vertex < graph.num_vertices:
        raise ParseError(f"{where}: no vertex {range_vertex}")
    try:
        return graph.path(edges, range_vertex=range_vertex)
    except NonComposable as err:
        raise ParseError(f"{where}: {err}") from err


def element_to_json(a: AlgebraElement) -> list:
    out = []
    for key, val in a.terms.items():
        coeff = complex(val)
        out.append({
            "mu": _path_to_json(key.mu),
            "g": list(key.g.key),
            "nu": _path_to_json(key.nu),
            "re": coeff.real,
            "im": coeff.imag,
        })
    out.sort(key=lambda row: (row["mu"]["range"], row["mu"]["edges"],
                              row["nu"]["range"], row["nu"]["edges"],
                              str(row["g"])))
    return out


def element_from_json(system, rows) -> AlgebraElement:
    """Inverse of :func:`element_to_json`.  Rows come from outside the
    program, so each malformed one raises ParseError."""
    if not isinstance(rows, list):
        raise ParseError("an element must be a list of rows")
    entries = []
    for i, row in enumerate(rows):
        where = f"element row {i}"
        mu = _path_from_json(system.graph, row, "mu", where)
        nu = _path_from_json(system.graph, row, "nu", where)
        word = need_field(row, "g", list, where)
        if not all(type(x) is int for x in word):
            raise ParseError(f"{where}: g must be a list of generator indices")
        try:
            g = system.element_from_word(tuple(word))
        except PreconditionViolated as err:
            raise ParseError(f"{where}: {err}") from err
        re, im = need_field(row, "re", object, where), row.get("im", 0.0)
        if not all(type(x) in (int, float) for x in (re, im)):
            raise ParseError(f"{where}: re and im must be numbers")
        entries.append((mu, g, nu, complex(re, im)))
    return element(system, entries)
