"""Equilibrium states at inverse temperature 1 for the gauge dynamics.

A state is parametrized by Perron data, a periodicity lattice, and a
trace on the lattice group: Haar (vanishing off 0), a character given
by a point of the torus, or a convex mixture of characters.  On a
cycline monomial the state evaluates to rho**(-d(mu)) x(s(mu))
tau(d(mu)-d(nu)); every other monomial evaluates to 0.  The dynamics
is fixed to r = ln rho per color, the only inverse-temperature-1
choice admitting equilibrium states.
"""
from __future__ import annotations

import bisect
import cmath
import functools
import itertools
import math
import random
from collections.abc import Sequence
from dataclasses import dataclass

from . import algebra
from .errors import ClosureExceeded, NotInLattice, SimplexEmpty
from .intlattice import lattice_coordinates
from .kgraph import sub_degrees, unit_degree
from .periodicity import (CyclineState, PeriodicityLattice, cycline_search,
                          is_cycline, periodicity_group)
from .perron import (PerronData, check_g_invariance, pf_state_value,
                     spectral_data)


@dataclass(frozen=True)
class TraceSpec:
    """A tracial state of the lattice group's C*-algebra.

    ``theta`` lists one torus coordinate per lattice basis vector;
    ``weights`` pairs mixture weights with such coordinate tuples.
    """

    kind: str
    theta: tuple[float, ...] | None = None
    weights: tuple[tuple[float, tuple[float, ...]], ...] | None = None


def haar_trace() -> TraceSpec:
    return TraceSpec("haar")


def _finite(values) -> tuple[float, ...]:
    out = tuple(float(t) for t in values)
    if not all(map(math.isfinite, out)):
        raise ValueError(f"trace coordinates and weights must be finite, "
                         f"got {out}")
    return out


def character_trace(theta) -> TraceSpec:
    return TraceSpec("character", theta=_finite(theta))


def mixture_trace(weights) -> TraceSpec:
    rows = tuple((float(w), _finite(theta)) for w, theta in weights)
    total = sum(_finite(w for w, _ in rows))
    if any(w < 0 for w, _ in rows) or abs(total - 1.0) > 1e-9:
        raise ValueError("mixture weights must be a convex combination")
    return TraceSpec("mixture", weights=rows)


def trace_value(trace: TraceSpec, lattice: PeriodicityLattice, z) -> complex:
    """tau(z) for z in the lattice; coordinates are solved exactly
    against the Hermite basis."""
    coords = lattice_coordinates(lattice.basis, tuple(z))
    if coords is None:
        raise NotInLattice(
            f"degree difference {tuple(z)} is outside the computed lattice")
    if trace.kind == "haar":
        return 1.0 + 0j if not any(coords) else 0j
    if trace.kind == "character":
        phase = sum(t * c for t, c in zip(trace.theta, coords))
        return cmath.exp(2j * cmath.pi * phase)
    acc = 0j
    for weight, theta in trace.weights:
        phase = sum(t * c for t, c in zip(theta, coords))
        acc += weight * cmath.exp(2j * cmath.pi * phase)
    return acc


@dataclass
class KmsState:
    """An equilibrium state, defined when the eigenvector is constant
    on generator vertex orbits; otherwise the simplex is empty."""

    system: "ActionSystem"
    data: PerronData
    lattice: PeriodicityLattice
    trace: TraceSpec
    exists: bool


def make_kms_state(system, trace: TraceSpec | None = None,
                   data: PerronData | None = None,
                   lattice: PeriodicityLattice | None = None,
                   box_radius: int = 4, ball_radius: int = 3,
                   tol: float = 1e-9) -> KmsState:
    if data is None:
        data = spectral_data(system.graph)
    exists = check_g_invariance(data, system, tol)
    if lattice is None:
        lattice = periodicity_group(system, box_radius, ball_radius,
                                    perron_data=data, tol=tol)
    if trace is None:
        trace = haar_trace()
    if trace.kind == "character" and len(trace.theta) != lattice.rank:
        raise ValueError(
            f"character needs {lattice.rank} coordinates, got {len(trace.theta)}")
    if trace.kind == "mixture":
        for _, theta in trace.weights:
            if len(theta) != lattice.rank:
                raise ValueError(
                    f"mixture characters need {lattice.rank} coordinates")
    return KmsState(system, data, lattice, trace, exists)


def _require(state: KmsState) -> None:
    if not state.exists:
        raise SimplexEmpty(
            "the eigenvector is not constant on generator vertex orbits")


def evaluate(state: KmsState, a: "algebra.AlgebraElement") -> complex:
    """The state applied to an element; linear over monomials."""
    _require(state)
    total = 0j
    for key, coeff in a.terms.items():
        value = _evaluate_monomial(state, key)
        if value:
            total += algebra._as_coeff(coeff, False) * value
    return total


def _evaluate_monomial(state: KmsState, key) -> complex:
    if not is_cycline(state.system, key.mu, key.g, key.nu).verdict:
        return 0j
    return _cycline_value(state, key)


def _cycline_value(state: KmsState, key) -> complex:
    """The state's value on a monomial key known to be cycline."""
    z = sub_degrees(key.mu.degree, key.nu.degree)
    weight = pf_state_value(state.data, key.mu)
    return weight * trace_value(state.trace, state.lattice, z)


def gauge_scale(state: KmsState, a: "algebra.AlgebraElement"):
    """The analytic continuation of the dynamics at inverse temperature
    1: each monomial picks up rho**-(d(mu)-d(nu))."""
    entries = []
    for key, coeff in a.terms.items():
        entries.append((key.mu, key.g, key.nu,
                        algebra._as_coeff(coeff, False)
                        * _gauge_factor(state, key)))
    return algebra.element(state.system, entries)


def _gauge_factor(state: KmsState, key) -> float:
    """rho**-(d(mu)-d(nu)), the factor ``gauge_scale`` puts on a
    monomial key."""
    return 1.0 / state.data.rho_power(
        sub_degrees(key.mu.degree, key.nu.degree))


@dataclass
class KmsReport:
    """``nonzero`` counts the checked pairs whose left side phi(xy)
    is nonzero; the rest hold vacuously, as 0 = 0."""

    ok: bool
    max_deviation: float
    checked: int
    tol: float
    nonzero: int = 0


class _MonomialBlock(Sequence):
    """The monomial keys (mu, g, nu) with g in ``elements`` and both
    degrees at most ``bound``, ordered by g, then nu, then mu.

    An indexable view: it stores the paths and one running count per
    (g, nu), and builds a monomial only when it is indexed, so
    ``random.choice`` draws from it in memory O(elements x paths)."""

    def __init__(self, system, bound, elements):
        graph = system.graph
        paths = [p for d in itertools.product(*(range(b + 1) for b in bound))
                 for p in graph.paths_of_degree(d)]
        by_source = [[] for _ in range(graph.num_vertices)]
        for p in paths:
            by_source[p.source].append(p)
        self._system = system
        self._legs = []     # (g, nu, the mu with s(mu) = g.s(nu))
        self._ends = []     # monomials up to and including each (g, nu)
        total = 0
        for g in elements:
            for nu in paths:
                mus = by_source[system.act_vertex(g, nu.source)]
                total += len(mus)
                self._legs.append((g, nu, mus))
                self._ends.append(total)

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, i: int):
        if not 0 <= i < len(self):
            raise IndexError(i)
        j = bisect.bisect_right(self._ends, i)
        g, nu, mus = self._legs[j]
        mu = mus[i - self._ends[j] + len(mus)]
        return algebra._checked_monomial(self._system, mu, g, nu)


def verify_kms(state: KmsState, sample_count: int = 500,
               tol: float = 1e-9, seed: int = 20_08,
               max_checks: int = 10_000_000) -> KmsReport:
    """Check phi(xy) = phi(y * scale(x)) over all monomial pairs with
    degrees at most (1,...,1) plus ``sample_count`` random pairs up to
    (2,...,2); more than ``max_checks`` checks raise ClosureExceeded
    before any product is made.

    Each unordered pair {x, y} of the (1,...,1) block costs two
    monomial products, xy and yx, which serve both ordered checks:
    phi(yx) is the left side of (y, x) and, scaled by x's gauge
    factor, the right side of (x, y).  Only live pairs are visited:
    those where x's mu meets y's nu and x's nu meets y's mu, that is,
    the two paths agree at the meet of their degrees (one verdict per
    unordered pair of path ids).  Both products of any other pair are
    empty: a term (mu.a, h, nu'.b) of xy has the heads of x's mu and
    y's nu' at their degree meet, so it is not cycline unless they
    meet, and ``lambda_min`` of x's nu and y's mu is empty unless they
    meet.  The block is bucketed on (mu, nu), and each bucket keeps
    one sorted list of the block indices in the buckets (c, d) with c
    meeting its nu and d its mu; x enters that list at its own index,
    diagonal first, so live pairs run in the order of the full
    (i, j >= i) loop.  A sampled pair, drawn as an index into the
    (2,...,2) block, makes the same two tests before its products.
    Products run on integer handles local to the call, the ids of mu,
    (g, nu), (mu, g) and nu: a middle (the terms without the outer
    legs) is built once per distinct (g, nu) and (mu', h) from one
    ``lambda_min`` per pair of x's nu and y's mu ids, and each distinct
    (mu, term, nu') cell is composed and evaluated once, with cycline
    verdicts from caches local to the call: one ``split_front`` per
    (path, meet degree) and one fixpoint search per reduced state.  A
    pair whose products have no nonzero value is counted as 0 = 0
    without summing.  The sums take ``evaluate``'s terms in its order
    with ``multiply``'s coefficients, so the result equals
    ``evaluate(multiply(x, y))`` against
    ``evaluate(multiply(y, gauge_scale(state, x)))`` exactly."""
    _require(state)
    if sample_count < 0:
        raise ValueError(
            f"sample count must be at least 0, got {sample_count}")
    system = state.system
    graph = system.graph
    elements = system.generator_closure()
    ones = tuple(1 for _ in range(graph.k))
    twos = tuple(2 for _ in range(graph.k))
    block = _MonomialBlock(system, ones, elements)
    needed = len(block) ** 2 + sample_count
    if needed > max_checks:
        raise ClosureExceeded(
            f"KMS check needs {needed} checks ({len(block)}**2 block "
            f"pairs + {sample_count} samples), over the max_checks cap "
            f"of {max_checks}; raise it with --max-checks")
    big = _MonomialBlock(system, twos, elements)
    # ids of paths, (g, nu), (mu, g) and product terms, interned apart
    # from the memos keyed on them (named tuples equal plain tuples);
    # a memo key packs its ids into one int, and every path, (g, nu)
    # and (mu, g) id is below ``span``, one per (g, nu) of ``big``
    span = len(big._legs)
    paths: dict = {}
    gnus: dict = {}
    mugs: dict = {}
    terms: dict = {}
    term_list = []
    extensions: dict = {}
    middles: dict = {}
    lefts: dict = {}
    rights: dict = {}
    cells: dict = {}
    values: dict = {}
    compose = graph.compose
    # one split per (path, degree), for the meets, the extensions and
    # the cycline verdicts, and one fixpoint search per reduced state,
    # cached for this call only
    split = functools.cache(graph.split_front)
    verdict = functools.cache(lambda s: cycline_search(system, s).verdict)
    met: dict = {}

    def evaluate_monomial(key):
        # _evaluate_monomial, with is_cycline's source check
        algebra._checked_monomial(system, key.mu, key.g, key.nu)
        tails = graph.meet_tails(key.mu, key.nu, split)
        if tails is None \
                or not verdict(CyclineState(tails[0], key.g, tails[1])):
            return 0j
        return _cycline_value(state, key)

    def handle(m):
        # the ids of m's mu, (g, nu), (mu, g) and nu, then m itself
        return (paths.setdefault(m.mu, len(paths)),
                gnus.setdefault((m.g, m.nu), len(gnus)),
                mugs.setdefault((m.mu, m.g), len(mugs)),
                paths.setdefault(m.nu, len(paths)), m)

    def term_id(term):
        t = terms.get(term)
        if t is None:
            t = terms[term] = len(term_list)
            term_list.append(term)
        return t

    def meets(p, mu, q, nu):
        # whether paths mu and nu, of ids p and q, agree at their degree meet
        pair = p * span + q if p < q else q * span + p
        hit = met.get(pair)
        if hit is None:
            hit = met[pair] = graph.meet_tails(mu, nu, split) is not None
        return hit

    def product(x, y):
        # the nonzero values of xy's monomials in ``multiply``'s order;
        # distinct extensions give distinct keys (unique factorization),
        # so each key carries coefficient one, as in ``multiply``
        inner = x[1] * span + y[2]
        middle = middles.get(inner)
        if middle is None:
            xm, ym = x[4], y[4]
            legs = x[3] * span + y[0]
            ext = extensions.get(legs)
            if ext is None:
                ext = extensions[legs] = graph.lambda_min(xm.nu, ym.mu, split)
            middle = middles[inner] = tuple(map(term_id, (
                algebra._product_middle(system, xm.g, ext, ym.g)
                if ext else ())))
        out = []
        for t in middle:
            cell = (t * span + x[0]) * span + y[3]
            value = cells.get(cell)
            if value is None:
                head, mid, pulled = term_list[t]
                left = lefts.get(t * span + x[0])
                if left is None:
                    left = lefts[t * span + x[0]] = compose(x[4].mu, head)
                right = rights.get(t * span + y[3])
                if right is None:
                    right = rights[t * span + y[3]] = compose(y[4].nu, pulled)
                key = algebra.Monomial(left, mid, right)
                value = values.get(key)
                if value is None:
                    value = values[key] = evaluate_monomial(key)
                cells[cell] = value
            if value:
                out.append(value)
        return out

    worst = 0.0
    nonzero = 0

    def tally(left, right, scale):
        # evaluate's sum, term by term from 0j
        nonlocal worst, nonzero
        lhs = sum(left, 0j)
        rhs = sum((scale * value for value in right), 0j)
        worst = max(worst, abs(lhs - rhs))
        if lhs:
            nonzero += 1

    handles = [handle(x) for x in block]
    scales = [complex(_gauge_factor(state, x[4])) for x in handles]
    # the block's paths have ids 0, 1, ... in ``paths``'s order; the
    # buckets are keyed on (mu id, nu id)
    near = [[q for q, nu in enumerate(paths) if meets(p, mu, q, nu)]
            for p, mu in enumerate(paths)]
    buckets: dict = {}
    for i, x in enumerate(handles):
        buckets.setdefault((x[0], x[3]), []).append(i)
    partners = {(a, b): sorted(j for c in near[b] for d in near[a]
                               for j in buckets.get((c, d), ()))
                for a, b in buckets}
    for i, x in enumerate(handles):
        row = partners[x[0], x[3]]
        start = bisect.bisect_left(row, i)
        if start < len(row) and row[start] == i:
            start += 1
            xx = product(x, x)
            if xx:
                tally(xx, xx, scales[i])
        for j in row[start:]:
            y = handles[j]
            xy = product(x, y)
            yx = product(y, x)
            if xy or yx:
                tally(xy, yx, scales[i])
                tally(yx, xy, scales[j])
    # rng.choice reads only len and one index, so drawing from a range
    # of len(big) gives the indices of rng.choice(big)'s draws
    rng = random.Random(seed)
    indices = range(len(big))
    drawn: dict = {}

    def draw():
        # a sampled monomial's handle, built once per index
        i = rng.choice(indices)
        h = drawn.get(i)
        if h is None:
            h = drawn[i] = handle(big[i])
        return h

    for _ in range(sample_count):
        hx = draw()
        hy = draw()
        if not (meets(hx[0], hx[4].mu, hy[3], hy[4].nu)
                and meets(hx[3], hx[4].nu, hy[0], hy[4].mu)):
            continue
        xy = product(hx, hy)
        yx = product(hy, hx)
        if xy or yx:
            tally(xy, yx, complex(_gauge_factor(state, hx[4])))
    return KmsReport(worst < tol, worst, needed, tol, nonzero)


@dataclass
class DiagonalReport:
    ok: bool
    max_deviation: float
    checked: int


def restrict_to_diagonal(state: KmsState, tol: float = 1e-9) -> DiagonalReport:
    """The state restricted to diagonal monomials must agree with the
    Perron-Frobenius values, vertex values must be constant on
    generator orbits, and they must satisfy the Cuntz-Krieger relation
    phi(p_v) = sum of phi(s_e s_e*) over the edges e of each colour
    with range v and sum to 1 (Kumjian-Pask).  The last two test the
    Perron data itself, which the other checks take as given."""
    _require(state)
    system = state.system
    graph = system.graph
    worst = 0.0
    checked = 0
    twos = tuple(2 for _ in range(graph.k))
    for degree in itertools.product(*(range(b + 1) for b in twos)):
        for mu in graph.paths_of_degree(tuple(degree)):
            got = evaluate(state, algebra.monomial(
                system, mu, system.identity, mu))
            worst = max(worst, abs(got - pf_state_value(state.data, mu)))
            checked += 1
    vertex_values = [evaluate(state, algebra.vertex_projection(system, v))
                     for v in range(graph.num_vertices)]
    for gen in system.generators:
        g = system.generator_element(gen.name)
        for v in range(graph.num_vertices):
            moved = vertex_values[system.act_vertex(g, v)]
            worst = max(worst, abs(moved - vertex_values[v]))
            checked += 1
    for v, value in enumerate(vertex_values):
        for color in range(graph.k):
            edges = graph.paths_of_degree(unit_degree(graph.k, color),
                                          from_vertex=v)
            below = sum((evaluate(state, algebra.monomial(
                system, e, system.identity, e)) for e in edges), 0j)
            worst = max(worst, abs(value - below))
            checked += 1
    worst = max(worst, abs(sum(vertex_values, 0j) - 1))
    checked += 1
    return DiagonalReport(worst < tol, worst, checked)


@dataclass
class SimplexSummary:
    exists: bool
    rank: int | None
    verdict: str
    basis: tuple | None
    lattice: PeriodicityLattice | None = None


def simplex_summary(system, box_radius: int = 4, ball_radius: int = 3,
                    tol: float = 1e-9, data: PerronData | None = None,
                    lattice: PeriodicityLattice | None = None
                    ) -> SimplexSummary:
    """Classify the equilibrium-state simplex: empty when the
    invariance assumption fails, unique at lattice rank 0, otherwise
    the measures on a torus of the lattice rank.  ``data`` and
    ``lattice`` are computed here unless passed in; the lattice only
    when the simplex is nonempty."""
    if data is None:
        data = spectral_data(system.graph)
    if not check_g_invariance(data, system, tol):
        return SimplexSummary(False, None, "empty", None)
    if lattice is None:
        lattice = periodicity_group(system, box_radius, ball_radius,
                                    perron_data=data, tol=tol)
    if lattice.rank == 0:
        verdict = "unique KMS state"
    else:
        verdict = (f"simplex of tracial states of C*(Z^{lattice.rank}): "
                   f"probability measures on the {lattice.rank}-torus")
    return SimplexSummary(True, lattice.rank, verdict, lattice.basis, lattice)
