"""Built-in model families: products of odometers and Katsura graphs.

In both families the group is the integers, acting by addition with
carry through a single generator ``+1``; elements are words in ``+1``
on the word engine of :mod:`ssgraph.action`.  The odometer family also
carries an independent positional-arithmetic oracle (digit words are
least-significant-first), used to cross-check the factorization-table
machinery and the periodicity search.  The hypothesis checks apply to
any action and live in :mod:`ssgraph.action`.
"""
from __future__ import annotations

import itertools

from .action import ActionCaps, ActionSystem, GeneratorTable, GroupElement
from .errors import DomainError, NotBalanced, SpecViolation
from .intlattice import hnf_basis, prime_exponents
from .kgraph import Edge, KGraph, Path

BUILTIN_ODOMETERS = ((2, 2), (2, 3), (2, 4), (6, 2, 3))
BUILTIN_KATSURA = ((((2,),), ((1,),)), (((3,),), ((2,),)))


# -- products of odometers ----------------------------------------------

def odometer_graph(n: tuple[int, ...]) -> KGraph:
    """Single-vertex rank-k graph with ``n[i]`` loops of color ``i``.

    The factorization rule identifies the color-i edge ``s`` followed
    by the color-j edge ``t`` (for i < j) with the pair determined by
    ``s + t*n[i] = t2 + s2*n[j]``.
    """
    if any(m < 2 for m in n):
        raise SpecViolation("odometer sizes must be at least 2")
    k = len(n)
    edges = [
        [Edge(s, color, 0, 0) for s in range(n[color])]
        for color in range(k)
    ]
    squares = {}
    for i, j in itertools.combinations(range(k), 2):
        table = {}
        for s in range(n[i]):
            for t in range(n[j]):
                value = s + t * n[i]
                table[(s, t)] = (value % n[j], value // n[j])
        squares[(i, j)] = table
    return KGraph(k, 1, edges, squares)


class _IntegerSystem(ActionSystem):
    """The integers acting through the one generator ``+1``."""

    def element(self, m: int) -> GroupElement:
        """The integer ``m`` as the word ``(+1)^m``."""
        return self.element_from_word((1 if m >= 0 else -1,) * abs(m))


class OdometerSystem(_IntegerSystem):
    """The integers adding with carry on a product of odometers."""

    def __init__(self, n: tuple[int, ...], caps: ActionCaps | None = None):
        self.n = tuple(int(m) for m in n)
        graph = odometer_graph(self.n)
        act = {}
        restrict = {}
        for color, size in enumerate(self.n):
            for s in range(size):
                act[(color, s)] = (s + 1) % size
                restrict[(color, s)] = () if s < size - 1 else (1,)
        table = GeneratorTable("+1", (0,), act, restrict)
        super().__init__(graph, (table,), caps)


def build_odometer(n, caps=None) -> OdometerSystem:
    return OdometerSystem(tuple(n), caps)


def degree_weight(n: tuple[int, ...], degree: tuple[int, ...]) -> int:
    """The radix ``n ** degree`` of a degree box."""
    out = 1
    for base, exp in zip(n, degree):
        out *= base ** exp
    return out


def odometer_value(system: OdometerSystem, mu: Path) -> int:
    """Mixed-radix value of a path; edge digits are read least
    significant first along the composition order."""
    value = 0
    place = 1
    idx = 0
    for color, size in enumerate(system.n):
        for _ in range(mu.degree[color]):
            value += mu.edges[idx].id * place
            place *= size
            idx += 1
    return value


def odometer_path(system: OdometerSystem, degree: tuple[int, ...],
                  value: int) -> Path:
    """Inverse of :func:`odometer_value` on the degree box."""
    total = degree_weight(system.n, degree)
    if not 0 <= value < total:
        raise DomainError(f"value {value} outside [0, {total})")
    edges = []
    rest = value
    for color, size in enumerate(system.n):
        for _ in range(degree[color]):
            edges.append(system.graph.edge(color, rest % size))
            rest //= size
    return Path(0, tuple(edges), tuple(degree))


def _word_value(base: int, digits: tuple[int, ...]) -> int:
    value = 0
    for digit in reversed(digits):
        value = value * base + digit
    return value


def _word_digits(base: int, length: int, value: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        out.append(value % base)
        value //= base
    return tuple(out)


def _multiword_value(n, words) -> tuple[int, int]:
    value = 0
    place = 1
    for color, digits in words:
        base = n[color]
        if any(not 0 <= d < base for d in digits):
            raise DomainError(f"digit out of range for color {color}")
        value += _word_value(base, digits) * place
        place *= base ** len(digits)
    return value, place


def _multiword_from_value(n, shape, value):
    out = []
    for color, length in shape:
        base = n[color]
        block = base ** length
        out.append((color, _word_digits(base, length, value % block)))
        value //= block
    return out


def odometer_commute(system: OdometerSystem, left, right):
    """Rewrite the concatenation ``left . right`` of two multi-words on
    disjoint color sets as ``right' . left'``.

    Each argument is a list of ``(color, digits)`` blocks with strictly
    increasing colors.  Returns ``(right', left')``.
    """
    n = system.n
    for words in (left, right):
        colors = [color for color, _ in words]
        if colors != sorted(set(colors)):
            raise DomainError("multi-word colors must be strictly increasing")
    if {c for c, _ in left} & {c for c, _ in right}:
        raise DomainError("left and right color sets must be disjoint")
    m_value, m_place = _multiword_value(n, left)
    n_value, n_place = _multiword_value(n, right)
    total = m_value + n_value * m_place
    new_right = total % n_place
    new_left = total // n_place
    right_out = _multiword_from_value(n, [(c, len(d)) for c, d in right], new_right)
    left_out = _multiword_from_value(n, [(c, len(d)) for c, d in left], new_left)
    return right_out, left_out


def gamma_bijection(system: OdometerSystem, p, q) -> dict[Path, Path]:
    """The value-preserving bijection between the degree-``p`` and
    degree-``q`` path fibers; requires equal fiber cardinalities."""
    p = tuple(p)
    q = tuple(q)
    if degree_weight(system.n, p) != degree_weight(system.n, q):
        raise NotBalanced(
            f"fibers at {p} and {q} have different cardinalities")
    out = {}
    for mu in system.graph.paths_of_degree(p):
        out[mu] = odometer_path(system, q, odometer_value(system, mu))
    return out


def expected_odometer_per(n: tuple[int, ...], box_radius: int):
    """Oracle for the odometer periodicity lattice: the integer vectors
    ``z`` in the box with ``n ** z == 1``, in Hermite basis form.

    Works on prime exponent vectors, so the arithmetic is exact.
    """
    n = tuple(n)
    k = len(n)
    primes = sorted({p for m in n for p in prime_exponents(m)})
    exponents = [[prime_exponents(m).get(p, 0) for m in n] for p in primes]
    members = []
    for z in itertools.product(range(-box_radius, box_radius + 1), repeat=k):
        if all(v == 0 for v in z):
            continue
        if all(sum(row[i] * z[i] for i in range(k)) == 0 for row in exponents):
            members.append(z)
    return hnf_basis(members, k)


# -- Katsura graphs ------------------------------------------------------

def _as_matrix(rows) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(x) for x in row) for row in rows)


class KatsuraSystem(_IntegerSystem):
    """The integers acting on the 1-graph of a Katsura pair (T, B).

    Edges with range v and source w are ``(v, w, 0..T[v][w]-1)``; the
    generator sends ``(v, w, m)`` to ``(v, w, n)`` and restricts to
    ``h`` where ``B[v][w] + m = h*T[v][w] + n`` with ``0 <= n < T[v][w]``.
    """

    def __init__(self, t_matrix, b_matrix, caps: ActionCaps | None = None):
        self.t_matrix = _as_matrix(t_matrix)
        self.b_matrix = _as_matrix(b_matrix)
        _validate_katsura(self.t_matrix, self.b_matrix)
        size = len(self.t_matrix)
        triples = []
        for v in range(size):
            for w in range(size):
                for m in range(self.t_matrix[v][w]):
                    triples.append((v, w, m))
        self.triples = tuple(triples)
        ids = {trip: i for i, trip in enumerate(triples)}
        edges = [[Edge(i, 0, w, v) for i, (v, w, _) in enumerate(triples)]]
        graph = KGraph(1, size, edges, {})
        act = {}
        restrict = {}
        for i, (v, w, m) in enumerate(triples):
            total = self.b_matrix[v][w] + m
            h, n = divmod(total, self.t_matrix[v][w])
            act[(0, i)] = ids[(v, w, n)]
            restrict[(0, i)] = () if h == 0 else (h,) if h == 1 else (-1,)
        table = GeneratorTable("+1", tuple(range(size)), act, restrict)
        super().__init__(graph, (table,), caps)


def _validate_katsura(t_matrix, b_matrix) -> None:
    size = len(t_matrix)
    if size == 0 or any(len(row) != size for row in t_matrix) \
            or len(b_matrix) != size or any(len(row) != size for row in b_matrix):
        raise SpecViolation("T and B must be square matrices of equal size")
    # B[v][v] = 1 is assumed by the classification results but not
    # needed for the action itself, so it is not enforced here.
    for v in range(size):
        if t_matrix[v][v] < 2:
            raise SpecViolation(f"T[{v}][{v}] must be at least 2")
        for w in range(size):
            if t_matrix[v][w] < 0:
                raise SpecViolation("T entries must be nonnegative")
            if abs(b_matrix[v][w]) > t_matrix[v][w]:
                raise SpecViolation(
                    f"|B[{v}][{w}]| must not exceed T[{v}][{w}]")
            if (b_matrix[v][w] == 0) != (t_matrix[v][w] == 0):
                raise SpecViolation(
                    f"B[{v}][{w}] must vanish exactly when T[{v}][{w}] does")


def build_katsura(t_matrix, b_matrix, caps=None) -> KatsuraSystem:
    return KatsuraSystem(t_matrix, b_matrix, caps)
