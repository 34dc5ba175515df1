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
from .intlattice import lattice_coordinates, lattice_residue
from .kgraph import sub_degrees, unit_degree
from .periodicity import (CyclineState, PeriodicityLattice, cycline_search,
                          is_cycline, periodicity_group)
from .perron import (PerronData, check_g_invariance, pf_state_value,
                     spectral_data)


@dataclass(frozen=True)
class TraceSpec:
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


@dataclass
class KmsState:
    """The equilibrium simplex and, when it is nonempty, its state of
    ``trace``.  The simplex is nonempty (``exists``) exactly when the
    eigenvector is constant on generator vertex orbits, and is then the
    tracial state space of C*(Per).  ``lattice`` is Per, None on an
    empty simplex; a trace must give one coordinate per basis vector."""

    system: "ActionSystem"
    data: PerronData
    lattice: PeriodicityLattice | None
    trace: TraceSpec
    exists: bool

    def __post_init__(self):
        if self.lattice is None:
            return
        for _, theta in self.trace.weights or ():
            if len(theta) != self.lattice.rank:
                raise ValueError(f"character needs {self.lattice.rank} "
                                 f"coordinates, got {len(theta)}")

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
    is nonempty."""
    data = spectral_data(system.graph)
    exists = check_g_invariance(data, system, tol)
    lattice = periodicity_group(system, box_radius, ball_radius,
                                perron_data=data, tol=tol) if exists else None
    return KmsState(system, data, lattice,
                    haar_trace() if trace is None else trace, exists)


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


class _Products:
    """The monomial products of one ``verify_kms`` call, memoised in
    tables that are dropped with the call.

    ``handle(m)`` is (mu id, (g, nu) id, (mu, g) id, nu id, m, m's
    gauge factor, the class of z = d(mu) - d(nu), the class of -z).  A
    class is z's residue modulo Per's Hermite basis when the lattice is
    exact, and () on any other lattice, where no pair is refuted by
    class.  Paths, (g, nu), (mu, g) and product terms are
    interned apart from the memos keyed on them (named tuples equal
    plain tuples); every path, (g, nu) and (mu, g) id is below
    ``span``, one per (g, nu) of the (2,...,2) block ``big``, so a memo
    key packs its ids into one int.  Two paths meet when they agree at
    the meet of their degrees, one verdict per unordered pair of ids.
    A product's middle (its terms without the outer legs) is built
    once per distinct (g, nu) and (mu', h), from one ``lambda_min`` per
    pair of x's nu and y's mu ids, and only when that list is nonempty;
    each distinct (mu, term, nu') cell is composed and evaluated once,
    its source condition checked only by the middle, on its term.  Cycline
    verdicts come from one ``split_front`` per (path, meet degree) and
    one fixpoint search per reduced state, all over one ``shift_edge``
    memo, and gauge factors and classes from one ``_gauge_factor`` and
    two residues per degree pair."""

    def __init__(self, state: KmsState, big: _MonomialBlock):
        system = state.system
        self.state, self.system, self.graph = state, system, system.graph
        self.span = len(big._legs)
        self.paths: dict = {}
        self._gnus: dict = {}
        self._mugs: dict = {}
        self._terms: dict = {}
        self._term_list = []
        (self._met, self._extensions, self._middles, self._lefts,
         self._rights, self._cells, self._values, self._graded) = (
            {}, {}, {}, {}, {}, {}, {}, {})
        self._class = (functools.partial(lattice_residue, state.lattice.basis)
                       if state.lattice.exact else lambda z: ())
        self._split = functools.cache(self.graph.split_front)
        shift = functools.cache(self.graph.shift_edge)
        self._verdict = functools.cache(
            lambda s: cycline_search(system, s, shift).verdict)

    def handle(self, m) -> tuple:
        paths = self.paths
        degrees = m.mu.degree, m.nu.degree
        graded = self._graded.get(degrees)
        if graded is None:
            graded = self._graded[degrees] = (
                complex(_gauge_factor(self.state, m)),
                self._class(sub_degrees(*degrees)),
                self._class(sub_degrees(*degrees[::-1])))
        return (paths.setdefault(m.mu, len(paths)),
                self._gnus.setdefault((m.g, m.nu), len(self._gnus)),
                self._mugs.setdefault((m.mu, m.g), len(self._mugs)),
                paths.setdefault(m.nu, len(paths)), m, *graded)

    def meets(self, p: int, mu, q: int, nu) -> bool:
        """Whether paths mu and nu, of ids p and q, meet."""
        pair = p * self.span + q if p < q else q * self.span + p
        hit = self._met.get(pair)
        if hit is None:
            hit = self._met[pair] = \
                self.graph.meet_tails(mu, nu, self._split) is not None
        return hit

    def _middle(self, x: tuple, y: tuple) -> tuple:
        legs = x[3] * self.span + y[0]
        ext = self._extensions.get(legs)
        if ext is None:
            ext = self._extensions[legs] = self.graph.lambda_min(
                x[4].nu, y[4].mu, self._split)
        return tuple(map(self._term_id, algebra._product_middle(
            self.system, x[4].g, ext, y[4].g) if ext else ()))

    def _term_id(self, term) -> int:
        t = self._terms.setdefault(term, len(self._terms))
        if t == len(self._term_list):
            self._term_list.append(term)
        return t

    def _cell(self, t: int, x: tuple, y: tuple) -> complex:
        # the value of term t of xy, with x's mu and y's nu composed on
        head, g, pulled = self._term_list[t]
        span, compose = self.span, self.graph.compose
        left = self._lefts.get(t * span + x[0])
        if left is None:
            left = self._lefts[t * span + x[0]] = compose(x[4].mu, head)
        right = self._rights.get(t * span + y[3])
        if right is None:
            right = self._rights[t * span + y[3]] = compose(y[4].nu, pulled)
        key = algebra.Monomial(left, g, right)
        value = self._values.get(key)
        if value is None:
            # _evaluate_monomial; _product_middle made its source check
            tails = self.graph.meet_tails(left, right, self._split)
            value = self._values[key] = (
                0j if tails is None or not self._verdict(
                    CyclineState(tails[0], g, tails[1]))
                else _cycline_value(self.state, key))
        return value


def _draws(rng: random.Random, n: int):
    """Endless indices below n > 0, as CPython's ``rng.choice(range(n))``
    draws them: n.bit_length() random bits, redrawn while they reach n."""
    return filter(n.__gt__, iter(
        functools.partial(rng.getrandbits, n.bit_length()), None))


def verify_kms(state: KmsState, sample_count: int = 500,
               tol: float = 1e-9, seed: int = 20_08,
               max_checks: int = 10_000_000) -> KmsReport:
    """Check phi(xy) = phi(y * scale(x)) over all monomial pairs with
    degrees at most (1,...,1) plus ``sample_count`` random pairs up to
    (2,...,2), drawn by ``random.Random(seed)``; more than
    ``max_checks`` checks (the block size squared plus the samples)
    raise ClosureExceeded before any product is made.

    Only live pairs are computed: those where x's mu meets y's nu and
    x's nu meets y's mu, that is, the two paths agree at the meet of
    their degrees, and, on an exact lattice, where d(x) + d(y) lies in
    Per, with d(m) = d(mu) - d(nu).  Both products of any other pair
    are 0 under the state: off the meets they are empty, and every term
    of xy and of yx has degree difference d(x) + d(y), while a state
    vanishes off cycline monomials, whose degree differences lie in
    Per.  On a lattice that is not exact the class test is off, so a
    cycline term outside the lattice raises NotInLattice.  Live block
    pairs run in the order of the full (i, j >= i) loop, each unordered
    pair on its two products xy and yx.  ``_draws`` draws each sample's
    indices as ``rng.choice(big)`` would.  Every check equals
    ``evaluate(multiply(x, y))`` against
    ``evaluate(multiply(y, gauge_scale(state, x)))`` exactly, so the
    report is that of that loop, and so is any error of a computed
    pair.  The products and their memos are a ``_Products`` table that
    lives for the call."""
    _require(state)
    if sample_count < 0:
        raise ValueError(
            f"sample count must be at least 0, got {sample_count}")
    system = state.system
    elements = system.generator_closure()
    block = _MonomialBlock(system, (1,) * system.graph.k, elements)
    needed = len(block) ** 2 + sample_count
    if needed > max_checks:
        raise ClosureExceeded(
            f"KMS check needs {needed} checks ({len(block)}**2 block "
            f"pairs + {sample_count} samples), over the max_checks cap "
            f"of {max_checks}; raise it with --max-checks")
    big = _MonomialBlock(system, (2,) * system.graph.k, elements)
    table = _Products(state, big)
    span, middles, cells = table.span, table._middles, table._cells
    area = span * span
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

    handles = [table.handle(x) for x in block]
    # the block's paths have ids 0, 1, ... in ``table.paths``'s order;
    # each (mu id, nu id) bucket lists the sorted block indices of the
    # buckets whose pairs with it are live and whose degree classes
    # cancel modulo Per, so x's row from its own index on is its j >= i
    near = [[q for q, nu in enumerate(table.paths)
             if table.meets(p, mu, q, nu)]
            for p, mu in enumerate(table.paths)]
    buckets: dict = {}
    for i, x in enumerate(handles):
        buckets.setdefault((x[0], x[3], x[6], x[7]), []).append(i)
    partners = {(a, b): sorted(j for c in near[b] for d in near[a]
                               for j in buckets.get((c, d, w, z), ()))
                for a, b, z, w in buckets}

    def pairs():
        # live block pairs in the full (i, j >= i) loop's order, with
        # whether yx is a pair of its own, then the live samples
        for i, x in enumerate(handles):
            row = partners[x[0], x[3]]
            for j in row[bisect.bisect_left(row, i):]:
                yield x, handles[j], j != i
        draws = _draws(random.Random(seed), len(big))
        drawn: dict = {}
        for i, j in itertools.islice(zip(draws, draws), sample_count):
            x = drawn.get(i) or drawn.setdefault(i, table.handle(big[i]))
            y = drawn.get(j) or drawn.setdefault(j, table.handle(big[j]))
            if x[6] == y[7] and table.meets(
                    x[0], x[4].mu, y[3], y[4].nu) and table.meets(
                    x[3], x[4].nu, y[0], y[4].mu):
                yield x, y, False

    for x, y, mirrored in pairs():
        sides = []
        for a, b in (x, y), (y, x):
            # ab's nonzero monomial values in ``multiply``'s order;
            # distinct extensions give distinct keys, of coefficient one
            middle = middles.get(a[1] * span + b[2])
            if middle is None:
                middle = middles[a[1] * span + b[2]] = table._middle(a, b)
            base, side = a[0] * span + b[3], []
            for t in middle:
                value = cells.get(t * area + base)
                if value is None:
                    value = cells[t * area + base] = table._cell(t, a, b)
                if value:
                    side.append(value)
            sides.append(side)
        xy, yx = sides
        if xy or yx:
            tally(xy, yx, x[5])
            if mirrored:
                tally(yx, xy, y[5])
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


def simplex_summary(system, box_radius: int = 4, ball_radius: int = 3,
                    tol: float = 1e-9) -> KmsState:
    """The Haar state of ``make_kms_state``, read for its ``exists``,
    ``rank``, ``basis`` and ``verdict``."""
    return make_kms_state(system, None, box_radius, ball_radius, tol)
