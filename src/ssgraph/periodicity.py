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
reachable set doubles as a certificate.

The periodicity group is collected over an integer search box with a
group-ball cutoff: membership outside the ball is not excluded, so
results are always reported relative to (box, ball).
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (BoxClosureViolation, ClosureExceeded,
                     PreconditionViolated)
from .intlattice import hnf_basis, lattice_contains
from .kgraph import Path, join_degrees, meet_degrees
from .perron import PerronData, rho_power_is_one, spectral_data

DEFAULT_STATE_CAP = 250_000


class CyclineState(NamedTuple):
    """A comparison state of the fixpoint; a named tuple, so the
    ``seen`` set hashes in C."""

    alpha: Path
    h: "GroupElement"
    beta: Path


@dataclass(frozen=True)
class CyclineCertificate:
    """Outcome of the fixpoint; ``states`` is the surviving reachable
    set on success, ``failure`` the refuting state and edge otherwise."""

    verdict: bool
    reduced: CyclineState | None
    states: tuple[CyclineState, ...]
    failure: tuple[CyclineState, "Edge"] | None


def is_cycline(system, mu: Path, g, nu: Path,
               state_cap: int = DEFAULT_STATE_CAP) -> CyclineCertificate:
    """Decide whether (mu, g, nu) is a cycline triple."""
    if system.act_vertex(g, nu.source) != mu.source:
        raise PreconditionViolated(
            "source of mu must be the g-image of the source of nu")
    memo_key = (mu, g.key, nu)
    hit = system.cycline_memo.get(memo_key)
    if hit is not None:
        return hit
    cert = _cycline_fixpoint(system, mu, g, nu, state_cap)
    system.cycline_memo[memo_key] = cert
    return cert


def _cycline_fixpoint(system, mu, g, nu, state_cap):
    graph = system.graph
    common = meet_degrees(mu.degree, nu.degree)
    mu_head, alpha0 = graph.split_front(mu, common)
    nu_head, beta0 = graph.split_front(nu, common)
    if mu_head != nu_head:
        return CyclineCertificate(False, None, (), None)
    start = CyclineState(alpha0, g, beta0)
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for color in range(graph.k):
            for e in graph.edges_from(state.beta.source, color):
                left_head, left_tail = graph.shift_edge(
                    state.alpha, system.act_edge(state.h, e))
                right_head, right_tail = graph.shift_edge(state.beta, e)
                if left_head != right_head:
                    return CyclineCertificate(False, start, (),
                                              (state, e))
                succ = CyclineState(left_tail,
                                    system.restrict_edge(state.h, e),
                                    right_tail)
                if succ not in seen:
                    if len(seen) >= state_cap:
                        raise ClosureExceeded(
                            f"cycline fixpoint exceeds {state_cap} states")
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


def cycline_triples(system, m, n, elements,
                    state_cap: int = DEFAULT_STATE_CAP):
    """All cycline triples (mu, g, nu) with d(mu) = m, d(nu) = n and g
    drawn from ``elements``.  Complete for the given element set: for
    fixed (mu, g) the partner nu is forced, so testing it is exhaustive."""
    graph = system.graph
    m = tuple(m)
    n = tuple(n)
    out = []
    for mu in graph.paths_of_degree(m):
        for g in elements:
            nu = cycline_partner(system, mu, g, n)
            if nu is None:
                continue
            if is_cycline(system, mu, g, nu, state_cap).verdict:
                out.append((mu, g, nu))
    return out


def sigma_contains(system, p, q, g, v,
                   state_cap: int = DEFAULT_STATE_CAP) -> bool:
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
        if not is_cycline(system, mu, h, nu, state_cap).verdict:
            return False
    return True


@dataclass(frozen=True)
class PeriodicityLattice:
    """Periodicity group inside the search box, as a Hermite basis.

    The result is complete relative to the parameters: membership
    witnessed only by group elements outside the ball, or by vectors
    outside the box, is not excluded.
    """

    rank: int
    basis: tuple[tuple[int, ...], ...]
    box_radius: int
    ball_radius: int

    def contains(self, z) -> bool:
        return lattice_contains(self.basis, tuple(z))


@dataclass(frozen=True)
class AperiodicityVerdict:
    aperiodic: bool
    lattice: PeriodicityLattice


def periodicity_group(system, box_radius: int = 4, ball_radius: int = 3,
                      perron_data: PerronData | None = None,
                      tol: float = 1e-9,
                      state_cap: int = DEFAULT_STATE_CAP) -> PeriodicityLattice:
    """Search the box for degree differences of cycline triples.

    Candidates failing ``rho ** z == 1`` are excluded up front (exact
    when the radii are integer-certified); each survivor is tested at
    its minimal degree pair z+ = z v 0, z- = (-z) v 0, which suffices
    because membership propagates to every degree pair with the same
    difference.
    """
    graph = system.graph
    data = perron_data if perron_data is not None else spectral_data(graph)
    ball = system.restriction_closure(system.word_ball(ball_radius))
    members = []
    for z in itertools.product(range(-box_radius, box_radius + 1),
                               repeat=graph.k):
        if all(v == 0 for v in z):
            continue
        if not rho_power_is_one(data, z, tol):
            continue
        if _per_member(system, z, ball, state_cap):
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
    basis = hnf_basis(members, graph.k)
    return PeriodicityLattice(len(basis), basis, box_radius, ball_radius)


def _per_member(system, z, ball, state_cap) -> bool:
    graph = system.graph
    p = tuple(max(v, 0) for v in z)
    q = tuple(max(-v, 0) for v in z)
    for mu in graph.paths_of_degree(p):
        for g in ball:
            nu = cycline_partner(system, mu, g, q)
            if nu is None:
                continue
            if is_cycline(system, mu, g, nu, state_cap).verdict:
                return True
    return False


def is_g_aperiodic(system, box_radius: int = 4, ball_radius: int = 3,
                   perron_data: PerronData | None = None,
                   tol: float = 1e-9,
                   state_cap: int = DEFAULT_STATE_CAP) -> AperiodicityVerdict:
    """Aperiodicity verdict relative to the search parameters: a trivial
    lattice means no periodicity was found within (box, ball); a
    nontrivial one refutes aperiodicity outright."""
    lattice = periodicity_group(system, box_radius, ball_radius,
                                perron_data, tol, state_cap)
    return AperiodicityVerdict(lattice.rank == 0, lattice)
