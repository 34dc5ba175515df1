"""Cycline triples and the periodicity group of a self-similar action.

A triple (mu, g, nu) is cycline when mu.(g.x) = nu.x for every
infinite path x out of s(nu).  The decision procedure runs a greatest
fixpoint over comparison states (alpha, h, beta) whose degrees have
disjoint support.  Each step is a one-edge shift: for an edge e out
of s(beta), ``KGraph.shift_edge`` refactors alpha.(h.e) and beta.e as
a front edge of e's color followed by a tail of the old degree.  A
state survives when, for every such e, the two front edges agree and
the successor state (left tail, h|e, right tail) survives.  The triple
is cycline exactly when its reduced state survives, and the forward
reachable set doubles as a certificate.  ``KGraph.meet_tails`` gives
the reduced state (g between the tails of mu and nu past the meet of
their degrees), or refutes the triple when the heads differ;
``cycline_search`` runs the fixpoint from a reduced state, so a caller
meeting one state many times can search it once.  Nothing is cached
here: a search visits at most ``ActionCaps.state_cap`` states.

The periodicity group Per lies inside K = {z : rho ** z == 1}.  When
the radii carry an integer certificate, K is computed exactly and its
basis vectors are tested with the nucleus of the action; if they all
pass, Per = K.  Only float radii, a nucleus search that hits a cap, or
a kernel basis that does not pass fall back to scanning an integer
search box with a group-ball cutoff, and only such results are
relative to (box, ball); ``PeriodicityLattice.exact`` says which.
"""
from __future__ import annotations

import itertools
from collections import deque
from typing import NamedTuple

from .errors import (BoxClosureViolation, ClosureExceeded,
                     PreconditionViolated)
from .intlattice import hnf_basis, lattice_contains, lattice_coordinates
from .kgraph import Path, join_degrees
from .perron import (PerronData, rho_kernel_lattice, rho_power_is_one,
                     spectral_data)

SOURCE_CONDITION = "source of mu must be the g-image of the source of nu"


class CyclineState(NamedTuple):
    """A comparison state of the fixpoint; a named tuple, so the
    ``seen`` set hashes in C."""

    alpha: Path
    h: "GroupElement"
    beta: Path


class CyclineCertificate(NamedTuple):
    """Outcome of the fixpoint; ``states`` is the surviving reachable
    set on success, ``failure`` the refuting state and edge otherwise."""

    verdict: bool
    reduced: CyclineState | None
    states: tuple[CyclineState, ...]
    failure: tuple[CyclineState, "Edge"] | None


def is_cycline(system, mu: Path, g, nu: Path) -> CyclineCertificate:
    """Decide whether (mu, g, nu) is a cycline triple: the source
    check, the reduction by ``meet_tails`` and ``cycline_search``."""
    if system.act_vertex(g, nu.source) != mu.source:
        raise PreconditionViolated(SOURCE_CONDITION)
    tails = system.graph.meet_tails(mu, nu)
    if tails is None:
        return CyclineCertificate(False, None, (), None)
    return cycline_search(system, CyclineState(tails[0], g, tails[1]))


def cycline_search(system, start: CyclineState,
                   shift=None) -> CyclineCertificate:
    """The fixpoint from a reduced state, whose degrees have disjoint
    support: a breadth-first search of at most ``system.caps.state_cap``
    states.  ``shift`` stands in for ``KGraph.shift_edge``, e.g. a
    caller's memo of it shared by many searches on one graph."""
    graph = system.graph
    shift = shift or graph.shift_edge
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for color in range(graph.k):
            for e in graph.edges_from(state.beta.source, color):
                left_head, left_tail = shift(
                    state.alpha, system.act_edge(state.h, e))
                right_head, right_tail = shift(state.beta, e)
                if left_head != right_head:
                    return CyclineCertificate(False, start, (),
                                              (state, e))
                succ = CyclineState(left_tail,
                                    system.restrict_edge(state.h, e),
                                    right_tail)
                if succ not in seen:
                    if len(seen) >= system.caps.state_cap:
                        raise ClosureExceeded.cap(
                            "cycline fixpoint", "state_cap",
                            system.caps.state_cap, len(seen) + 1)
                    seen.add(succ)
                    queue.append(succ)
    return CyclineCertificate(True, start, tuple(seen), None)


def cycline_partner(system, mu: Path, g, n) -> Path | None:
    """The only degree-``n`` path that could complete (mu, g, .) to a
    cycline triple: the degree-n prefix of mu.(g.probe).  Returns None
    when the probe prefix has an incompatible source."""
    graph = system.graph
    n = tuple(n)
    w = system.act_vertex(system.inverse(g), mu.source)
    probe = graph.first_path_of_degree(n, w)
    joined = graph.compose(mu, system.act_path(g, probe))
    candidate, _ = graph.split_front(joined, n)
    if system.act_vertex(g, candidate.source) != mu.source:
        return None
    return candidate


def cycline_triples(system, m, n, elements):
    """Yield every cycline triple (mu, g, nu) with d(mu) = m, d(nu) = n
    and g drawn from ``elements``.  Complete for the given element set:
    for fixed (mu, g) the partner nu is forced, so testing it is
    exhaustive."""
    for mu in system.graph.paths_of_degree(tuple(m)):
        for g in elements:
            nu = cycline_partner(system, mu, g, n)
            if nu is not None and is_cycline(system, mu, g, nu).verdict:
                yield mu, g, nu


def sigma_contains(system, p, q, g, v) -> bool:
    """Whether sigma^p(x) = sigma^q(g.x) for every infinite path x out
    of v, reduced to cycline checks over the degree p-join-q fiber."""
    graph = system.graph
    p = tuple(p)
    q = tuple(q)
    top = join_degrees(p, q)
    for kappa in graph.paths_of_degree(top, from_vertex=v):
        mu = graph.segment(system.act_path(g, kappa), q, top)
        h = system.restrict_path(g, kappa)
        nu = graph.segment(kappa, p, top)
        if not is_cycline(system, mu, h, nu).verdict:
            return False
    return True


class PeriodicityLattice(NamedTuple):
    """The periodicity group as a Hermite basis.

    ``exact`` is True when the basis spans all of Per: the kernel K of
    the radii was computed exactly and every vector deciding it was
    tested.  Otherwise the basis spans the members found in the box of
    ``box_radius``; membership witnessed only outside the box, or
    only by elements outside the ball, is not excluded.  ``vectors``
    names where the tested vectors came from (``kernel`` or ``box``),
    ``elements`` the group elements tried (``nucleus``, ``ball``, or
    None when K = {0} made a search unnecessary).
    """

    rank: int
    basis: tuple[tuple[int, ...], ...]
    box_radius: int
    ball_radius: int
    exact: bool = False
    vectors: str = "box"
    elements: str | None = "ball"

    def contains(self, z) -> bool:
        return lattice_contains(self.basis, tuple(z))


def periodicity_group(system, box_radius: int = 4, ball_radius: int = 3,
                      perron_data: PerronData | None = None,
                      tol: float = 1e-9) -> PeriodicityLattice:
    """The periodicity group, exactly whenever ``rho_int`` is set.

    Per is a subgroup of the exact kernel K.  K = {0} settles it at
    once.  Otherwise each basis vector b of K is tested once, at its
    minimal degree pair, with the nucleus (the ball when the nucleus
    search hits a cap); -b needs no search of its own, because both
    element sets are closed under inverses and (mu, g, nu) is cycline
    exactly when (nu, g^-1, mu) is.  If all pass, Per = K.  If some fail, the box
    scan finds a lattice L of members; when the nucleus was used and L
    has full rank in K, one vector per nonzero coset of K/L decides the
    rest exactly.  Float radii, and the remaining failures, report the
    box scan relative to (box, ball).
    """
    data = perron_data if perron_data is not None else spectral_data(
        system.graph)
    if data.rho_int is None:
        return box_scan_group(system, box_radius, ball_radius, data, tol)
    kernel = rho_kernel_lattice(data)

    def lattice(basis, exact, vectors, elements):
        return PeriodicityLattice(len(basis), basis, box_radius, ball_radius,
                                  exact, vectors, elements)

    if not kernel:
        return lattice((), True, "kernel", None)
    try:
        elements, source = system.nucleus(), "nucleus"
    except ClosureExceeded:
        elements, source = _ball(system, ball_radius), "ball"
    members = [b for b in kernel if _per_member(system, b, elements)]
    if len(members) == len(kernel):
        return lattice(kernel, True, "kernel", source)
    found = hnf_basis(members + list(_box_scan(
        system, data, box_radius, elements, tol)), system.graph.k)
    if source == "nucleus" and len(found) == len(kernel):
        return lattice(_complete_cosets(system, kernel, found, elements),
                       True, "kernel", source)
    return lattice(found, False, "box", source)


def box_scan_group(system, box_radius: int = 4, ball_radius: int = 3,
                   perron_data: PerronData | None = None,
                   tol: float = 1e-9) -> PeriodicityLattice:
    """The members of the box with the ball as elements; relative to
    (box, ball).  The path for float radii, and the tests' oracle."""
    data = perron_data if perron_data is not None else spectral_data(
        system.graph)
    basis = _box_scan(system, data, box_radius, _ball(system, ball_radius),
                      tol)
    return PeriodicityLattice(len(basis), basis, box_radius, ball_radius)


def _ball(system, ball_radius):
    return system.restriction_closure(system.word_ball(ball_radius))


def _box_scan(system, data, box_radius, elements, tol):
    """Hermite basis of the box vectors that pass ``rho ** z == 1`` and
    have a cycline triple over ``elements``.  Each survivor is tested at
    its minimal degree pair z+ = z v 0, z- = (-z) v 0, which suffices
    because membership propagates to every degree pair with the same
    difference."""
    graph = system.graph
    members = []
    for z in itertools.product(range(-box_radius, box_radius + 1),
                               repeat=graph.k):
        if all(v == 0 for v in z):
            continue
        if not rho_power_is_one(data, z, tol):
            continue
        if _per_member(system, z, elements):
            members.append(z)
    member_set = set(members)
    for z in members:
        if tuple(-v for v in z) not in member_set:
            raise BoxClosureViolation(f"member {z} has no negative in the box")
    for z1 in members:
        for z2 in members:
            total = tuple(a + b for a, b in zip(z1, z2))
            if any(total) and max(abs(v) for v in total) <= box_radius \
                    and total not in member_set:
                raise BoxClosureViolation(
                    f"members {z1} + {z2} = {total} missing inside the box")
    return hnf_basis(members, graph.k)


def _complete_cosets(system, kernel, found, elements):
    """Per, given that ``found`` spans a full-rank sublattice L of K.

    Per is a group containing L, so a coset of K/L meets Per exactly
    when its representative is a member.  With the coordinates of L
    over K's basis in Hermite form, pivots d_i, the vectors
    sum c_i b_i with 0 <= c_i < d_i represent every coset once.
    """
    coords = hnf_basis((lattice_coordinates(kernel, v) for v in found),
                       len(kernel))
    pivots = [row[i] for i, row in enumerate(coords)]
    members = list(found)
    for c in itertools.product(*(range(d) for d in pivots)):
        z = tuple(sum(ci * b[j] for ci, b in zip(c, kernel))
                  for j in range(system.graph.k))
        if any(c) and not lattice_contains(hnf_basis(members, len(z)), z) \
                and _per_member(system, z, elements):
            members.append(z)
    return hnf_basis(members, system.graph.k)


def _per_member(system, z, elements) -> bool:
    p = tuple(max(v, 0) for v in z)
    q = tuple(max(-v, 0) for v in z)
    return next(cycline_triples(system, p, q, elements), None) is not None
