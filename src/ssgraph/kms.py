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
from typing import NamedTuple

from . import algebra
from .errors import ClosureExceeded, NotInLattice, SimplexEmpty
from .intlattice import lattice_coordinates, lattice_residue
from .kgraph import add_degrees, sub_degrees, unit_degree
from .periodicity import (CyclineState, PeriodicityLattice, cycline_search,
                          is_cycline, periodicity_group)
from .perron import (PerronData, check_g_invariance, pf_state_value,
                     spectral_data)


class TraceSpec(NamedTuple):
    """A tracial state of the lattice group's C*-algebra: Haar when
    ``weights`` is None, otherwise a convex mixture of characters, each
    weight paired with one torus coordinate per lattice basis vector.
    A character is a one-point mixture."""

    weights: tuple[tuple[float, tuple[float, ...]], ...] | None = None


def haar_trace() -> TraceSpec:
    return TraceSpec()


def _finite(values) -> tuple[float, ...]:
    out = tuple(float(t) for t in values)
    if not all(map(math.isfinite, out)):
        raise ValueError(f"trace coordinates and weights must be finite, "
                         f"got {out}")
    return out


def character_trace(theta) -> TraceSpec:
    return mixture_trace([(1.0, theta)])


def mixture_trace(weights) -> TraceSpec:
    rows = tuple((float(w), _finite(theta)) for w, theta in weights)
    total = sum(_finite(w for w, _ in rows))
    if any(w < 0 for w, _ in rows) or abs(total - 1.0) > 1e-9:
        raise ValueError("mixture weights must be a convex combination")
    return TraceSpec(rows)


def trace_value(trace: TraceSpec, lattice: PeriodicityLattice, z) -> complex:
    """tau(z) for z in the lattice; coordinates are solved exactly
    against the Hermite basis."""
    coords = lattice_coordinates(lattice.basis, tuple(z))
    if coords is None:
        raise NotInLattice(
            f"degree difference {tuple(z)} is outside the computed lattice")
    if trace.weights is None:
        return 1.0 + 0j if not any(coords) else 0j
    acc = 0j
    for weight, theta in trace.weights:
        phase = sum(t * c for t, c in zip(theta, coords))
        acc += weight * cmath.exp(2j * cmath.pi * phase)
    return acc


class KmsState(NamedTuple):
    """The equilibrium simplex and, when it is nonempty, its state of
    ``trace``.  The simplex is nonempty (``exists``) exactly when the
    eigenvector is constant on generator vertex orbits, and is then the
    tracial state space of C*(Per).  ``lattice`` is Per, None on an
    empty simplex.  Build it with ``make_kms_state``, which checks that
    the trace gives one coordinate per basis vector."""

    system: "ActionSystem"
    data: PerronData
    lattice: PeriodicityLattice | None
    trace: TraceSpec
    exists: bool

    @property
    def rank(self) -> int | None:
        return self.lattice.rank if self.exists else None

    @property
    def basis(self) -> tuple | None:
        return self.lattice.basis if self.exists else None

    @property
    def verdict(self) -> str:
        """Empty, unique at lattice rank 0, otherwise the measures on a
        torus of the lattice rank."""
        if not self.exists:
            return "empty"
        if self.rank == 0:
            return "unique KMS state"
        return (f"simplex of tracial states of C*(Z^{self.rank}): "
                f"probability measures on the {self.rank}-torus")


def make_kms_state(system, trace: TraceSpec | None = None,
                   box_radius: int = 4, ball_radius: int = 3,
                   tol: float = 1e-9) -> KmsState:
    """The state of ``trace`` (Haar when None).  The lattice of
    (``box_radius``, ``ball_radius``) is computed only when the simplex
    is nonempty, and then every character of ``trace`` must give one
    coordinate per lattice basis vector."""
    data = spectral_data(system.graph)
    exists = check_g_invariance(data, system, tol)
    lattice = periodicity_group(system, box_radius, ball_radius,
                                perron_data=data, tol=tol) if exists else None
    if trace is None:
        trace = haar_trace()
    elif lattice is not None:
        for _, theta in trace.weights or ():
            if len(theta) != lattice.rank:
                raise ValueError(f"character needs {lattice.rank} "
                                 f"coordinates, got {len(theta)}")
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
            total += coeff * value
    return total


def _evaluate_monomial(state: KmsState, key) -> complex:
    if not is_cycline(state.system, key.mu, key.g, key.nu).verdict:
        return 0j
    z = sub_degrees(key.mu.degree, key.nu.degree)
    weight = pf_state_value(state.data, key.mu)
    return weight * trace_value(state.trace, state.lattice, z)


def gauge_scale(state: KmsState, a: "algebra.AlgebraElement"):
    """The analytic continuation of the dynamics at inverse temperature
    1: each monomial picks up rho**-(d(mu)-d(nu))."""
    entries = []
    for key, coeff in a.terms.items():
        entries.append((key.mu, key.g, key.nu,
                        coeff * _gauge_factor(state, key)))
    return algebra.element(state.system, entries)


def _gauge_factor(state: KmsState, key) -> float:
    """rho**-(d(mu)-d(nu)), the factor ``gauge_scale`` puts on a
    monomial key."""
    return 1.0 / state.data.rho_power(
        sub_degrees(key.mu.degree, key.nu.degree))


class KmsReport(NamedTuple):
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

    An indexable view of ``paths``, those of degree at most ``bound``:
    per (g, nu) it keeps the indices of g and nu, the indices of the mu
    whose source is g.s(nu) and the count before it.  ``ids(i)``
    indexes lists, and ``block[i]`` builds a monomial, so
    ``random.choice`` draws in memory O(elements x paths)."""

    def __init__(self, system, bound, elements):
        graph = system.graph
        self.paths = [p for d in itertools.product(
            *(range(b + 1) for b in bound)) for p in graph.paths_of_degree(d)]
        by_source = [[] for _ in range(graph.num_vertices)]
        for i, p in enumerate(self.paths):
            by_source[p.source].append(i)
        self._system, self._elements = system, elements
        self._legs = []     # (g, nu, the mu of source g.s(nu), count before)
        self._ends = []     # monomials up to and including each (g, nu)
        self._size = 0
        for g, element in enumerate(elements):
            for q, nu in enumerate(self.paths):
                mus = by_source[system.act_vertex(element, nu.source)]
                self._legs.append((g, q, mus, self._size))
                self._size += len(mus)
                self._ends.append(self._size)

    def __len__(self) -> int:
        return self._size

    def ids(self, i: int) -> tuple:
        """Monomial i's (mu, g, nu) as indices of ``paths`` and of the
        elements."""
        if not 0 <= i < self._size:
            raise IndexError(i)
        j = bisect.bisect_right(self._ends, i)
        g, q, mus, start = self._legs[j]
        return mus[i - start], g, q

    def __getitem__(self, i: int):
        p, g, q = self.ids(i)
        return algebra._checked_monomial(self._system, self.paths[p],
                                         self._elements[g], self.paths[q])


def _draws(rng: random.Random, n: int):
    """Endless indices below n > 0, as CPython's ``rng.choice(range(n))``
    draws them: n.bit_length() random bits, redrawn while they reach n."""
    return filter(n.__gt__, iter(
        functools.partial(rng.getrandbits, n.bit_length()), None))


def _live_pairs(block, big, handle, meet, classes, sample_count, seed):
    """The pairs whose products ``verify_kms`` computes, as (x, y,
    whether yx is a pair of its own) of ``handle``'s handles: the live
    pairs of ``block`` in the order of the full (i, j >= i) loop, then
    those of ``sample_count`` draws from ``big``.

    A pair is live when x's mu and y's nu, and x's nu and y's mu, agree
    at the meet of their degrees (``meet``), and the ``classes`` of d(x)
    and -d(y) agree, with d(m) = d(mu) - d(nu).  Any other pair's
    products are 0 under the state: off the meets they are empty, and
    every term of xy and of yx has degree difference d(x) + d(y), while
    a state vanishes off cycline monomials, whose degree differences lie
    in Per.  ``_draws`` draws each sample's indices as
    ``random.Random(seed).choice(big)`` would; a sample is refuted by
    its indices' path ids and classes, and its handles are built once
    per index, for computed pairs only."""
    handles = [handle(x) for x in block]
    # the block's path ids in block order: each is a nu of the first element
    block_ids = list(dict.fromkeys(x[3] for x in handles))
    # (mu id, nu id) buckets of sorted block indices, indexed by class
    # pair; a bucket's partners are those of the cancelling class pair
    # whose paths meet its own, so x's row from its index on is its j >= i
    near = {p: {q for q in block_ids if meet(p, q) >= 0} for p in block_ids}
    buckets: dict = {}
    for i, x in enumerate(handles):
        buckets.setdefault(x[5:], {}).setdefault(x[0], {}).setdefault(
            x[3], []).append(i)
    partners = {(a, b): sorted(j for c in near[b].intersection(others)
                               for d in near[a].intersection(others[c])
                               for j in others[c][d])
                for (z, w), group in buckets.items()
                for others in [buckets.get((w, z), {})]
                for a, row in group.items() for b in row}
    for i, x in enumerate(handles):
        row = partners[x[0], x[3]]
        for j in row[bisect.bisect_left(row, i):]:
            yield x, handles[j], j != i
    draws = _draws(random.Random(seed), len(big))

    @functools.cache
    def drawn(i):
        # big's monomial i as its mu id, nu id and classes
        p, _, q = big.ids(i)
        return p, q, *classes(p, q)

    built = functools.cache(lambda i: handle(big[i]))
    for i, j in itertools.islice(zip(draws, draws), sample_count):
        x, y = drawn(i), drawn(j)
        if x[2] == y[3] and meet(x[0], y[1]) >= 0 and meet(x[1], y[0]) >= 0:
            yield built(i), built(j), False


def verify_kms(state: KmsState, sample_count: int = 500,
               tol: float = 1e-9, seed: int = 20_08,
               max_checks: int = 10_000_000) -> KmsReport:
    """Check phi(xy) = phi(y * scale(x)) over all monomial pairs with
    degrees at most (1,...,1) plus ``sample_count`` random pairs up to
    (2,...,2), drawn by ``random.Random(seed)``; more than
    ``max_checks`` checks (the block size squared plus the samples)
    raise ClosureExceeded before any product is made.

    Only the pairs of ``_live_pairs`` are computed, and each check
    equals ``evaluate(multiply(x, y))`` against
    ``evaluate(multiply(y, gauge_scale(state, x)))`` exactly, so the
    report is that of that loop, and so is any error of a computed pair.

    The products are memoised in tables that live for the call.  A
    path's id is its index in ``big.paths``; (g, nu) and (mu, g) have
    the id (g's index in the closure) x (the path count) + the path's,
    below ``span``, so a memo key packs its ids into one int.  A
    monomial's handle is (mu id, (g, nu) id, (mu, g) id, nu id, its
    gauge factor, the classes of z = d(mu) - d(nu) and of -z).  A class
    is z's residue modulo Per's Hermite basis on an exact lattice, () on
    any other, where a cycline term outside the lattice raises
    NotInLattice.  ``meet(p, q)`` is the id of paths p and q's
    ``meet_tails``, -1 where their heads differ.  Unique factorisation
    cancels matched heads, so a middle (a product's terms without the
    outer legs), memoised on ((g, nu) id, (mu, h) id), is built once per
    (tails of x's nu and y's mu, g, h), from one ``lambda_min`` of the
    tails and only when that list is nonempty.  A cell, memoised on
    (term, x's mu id, y's nu id), is the term with x's mu and y's nu
    composed on; its cycline verdict is found once per (term, tails of
    x's mu and y's nu), and it is then worth x(s(head)) /
    rho**(d(mu) + d(head)) tau(z).  Only the middle checks a term's
    source condition.  Cycline verdicts come from one ``split_front``
    per (path, meet degree) and one fixpoint search per reduced state
    over one ``shift_edge`` memo, and gauge factors and classes from one
    ``_gauge_factor`` and two residues per degree pair."""
    _require(state)
    if sample_count < 0:
        raise ValueError(
            f"sample count must be at least 0, got {sample_count}")
    system, data = state.system, state.data
    graph = system.graph
    elements = system.generator_closure()
    block = _MonomialBlock(system, (1,) * graph.k, elements)
    needed = len(block) ** 2 + sample_count
    if needed > max_checks:
        raise ClosureExceeded(
            f"KMS check needs {needed} checks ({len(block)}**2 block "
            f"pairs + {sample_count} samples), over the max_checks cap "
            f"of {max_checks}; raise it with --max-checks")
    big = _MonomialBlock(system, (2,) * graph.k, elements)
    paths = big.paths
    n = len(paths)
    span = len(elements) * n
    area = span * span
    ids = {p: i for i, p in enumerate(paths)}
    element_ids = {g: i for i, g in enumerate(elements)}
    middles, cells, gauges = {}, {}, {}
    worst = 0.0
    nonzero = 0

    def interned(items):
        # an item's id: its index in ``items``, appended when new
        return functools.cache(
            lambda item: items.append(item) or len(items) - 1)

    terms, tails = [], []
    term_id, tails_id = interned(terms), interned(tails)
    residue = (functools.partial(lattice_residue, state.lattice.basis)
               if state.lattice.exact else lambda z: ())
    split = functools.cache(graph.split_front)
    shift = functools.cache(graph.shift_edge)
    verdict = functools.cache(
        lambda s: cycline_search(system, s, shift).verdict)
    extensions = functools.cache(
        lambda t: graph.lambda_min(*tails[t], split))

    @functools.cache
    def degree_classes(d, e):
        return residue(sub_degrees(d, e)), residue(sub_degrees(e, d))

    def classes(p, q):
        return degree_classes(paths[p].degree, paths[q].degree)

    @functools.cache
    def meet(p, q):
        found = graph.meet_tails(paths[p], paths[q], split)
        return -1 if found is None else tails_id(found)

    @functools.cache
    def tail_middle(t, g, h):
        # term ids of the middle of elements g and h over tails t
        ext = extensions(t)
        return tuple(term_id(term) for term in (algebra._product_middle(
            system, elements[g], ext, elements[h]) if ext else ()))

    @functools.cache
    def cycline(t, outer):
        # is_cycline of term t with the tails ``outer`` composed on
        head, g, pulled = terms[t]
        alpha, beta = tails[outer]
        inner = graph.meet_tails(graph.compose(alpha, head),
                                 graph.compose(beta, pulled), split)
        return inner is not None and verdict(
            CyclineState(inner[0], g, inner[1]))

    def cell(t, a, b):
        # _evaluate_monomial of term t of ab, a's mu and b's nu composed on
        if not cycline(t, meet(a[0], b[3])):
            return 0j
        head, _, pulled = terms[t]
        mu = add_degrees(paths[a[0]].degree, head.degree)
        z = sub_degrees(mu, add_degrees(paths[b[3]].degree, pulled.degree))
        return data.x[head.source] / data.rho_power(mu) * trace_value(
            state.trace, state.lattice, z)

    def handle(m):
        p, q = ids[m.mu], ids[m.nu]
        g = element_ids[m.g] * n
        degrees = m.mu.degree, m.nu.degree
        gauge = gauges.get(degrees) or gauges.setdefault(
            degrees, complex(_gauge_factor(state, m)))
        return (p, g + q, g + p, q, gauge, *classes(p, q))

    def tally(left, right, scale):
        # evaluate's sum, term by term from 0j
        nonlocal worst, nonzero
        lhs = sum(left, 0j)
        rhs = sum((scale * value for value in right), 0j)
        worst = max(worst, abs(lhs - rhs))
        if lhs:
            nonzero += 1

    for x, y, mirrored in _live_pairs(block, big, handle, meet, classes,
                                      sample_count, seed):
        sides = []
        for a, b in (x, y), (y, x):
            # ab's nonzero monomial values in ``multiply``'s order;
            # distinct extensions give distinct keys, of coefficient one
            middle = middles.get(a[1] * span + b[2])
            if middle is None:
                # a's nu and b's mu meet on every computed pair
                middle = middles[a[1] * span + b[2]] = tail_middle(
                    meet(a[3], b[0]), a[1] // n, b[2] // n)
            base, side = a[0] * span + b[3], []
            for t in middle:
                value = cells.get(t * area + base)
                if value is None:
                    value = cells[t * area + base] = cell(t, a, b)
                if value:
                    side.append(value)
            sides.append(side)
        xy, yx = sides
        if xy or yx:
            tally(xy, yx, x[4])
            if mirrored:
                tally(yx, xy, y[4])
    return KmsReport(worst < tol, worst, needed, tol, nonzero)


class DiagonalReport(NamedTuple):
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


def simplex_summary(system, box_radius: int = 4, ball_radius: int = 3,
                    tol: float = 1e-9) -> KmsState:
    """The Haar state of ``make_kms_state``, read for its ``exists``,
    ``rank``, ``basis`` and ``verdict``."""
    return make_kms_state(system, None, box_radius, ball_radius, tol)
