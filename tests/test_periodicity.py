import functools
import itertools
import random
import time
from types import SimpleNamespace

import pytest

import ssgraph.kms
import ssgraph.periodicity
import ssgraph.perron
from ssgraph.action import ActionCaps, ActionSystem, validate_action
from ssgraph.algebra import periodicity_unitary
from ssgraph.errors import BoxClosureViolation, ClosureExceeded, \
    PreconditionViolated
from ssgraph.intlattice import hnf_basis, lattice_contains
from ssgraph.kms import make_kms_state, verify_kms
from ssgraph.kgraph import validate_kgraph
from ssgraph.models import BUILTIN_KATSURA, BUILTIN_ODOMETERS, \
    build_katsura, build_odometer, expected_odometer_per, gamma_bijection, \
    odometer_path
from ssgraph.periodicity import box_scan_group, cycline_partner, \
    cycline_search, cycline_triples, is_cycline, periodicity_group, \
    sigma_contains
from ssgraph.perron import rho_kernel_lattice, spectral_data

from tests.conftest import BENCH_MODELS, bench_model


def brute_force_cycline(system, mu, g, nu, depth=3):
    """Direct reading of the defining equation on all paths of a fixed
    depth out of s(nu); independent of the fixpoint machinery."""
    graph = system.graph
    box = tuple(depth for _ in range(graph.k))
    for x in graph.paths_of_degree(box, from_vertex=nu.source):
        left = graph.compose(mu, system.act_path(g, x))
        right = graph.compose(nu, x)
        common = tuple(min(a, b) for a, b in zip(left.degree, right.degree))
        if graph.split_front(left, common)[0] != \
                graph.split_front(right, common)[0]:
            return False
    return True


def test_reflexive_triples_are_cycline(odo23, kat21):
    for system in (odo23, kat21):
        for mu in system.graph.paths_of_degree(
                tuple(1 for _ in range(system.graph.k))):
            cert = is_cycline(system, mu, system.identity, mu)
            assert cert.verdict is True


def test_mixed_color_pair_not_cycline(odo23):
    mu = odometer_path(odo23, (1, 0), 0)
    nu = odometer_path(odo23, (0, 1), 0)
    cert = is_cycline(odo23, mu, odo23.identity, nu)
    assert cert.verdict is False
    assert cert.failure is not None


def test_balanced_pairs_are_cycline(odo22):
    gamma = gamma_bijection(odo22, (1, 0), (0, 1))
    for mu, nu in gamma.items():
        assert is_cycline(odo22, mu, odo22.identity, nu).verdict is True


def test_gamma_certifies_cycline_pairs(odo22, odo24):
    cases = [(odo22, (1, 0), (0, 1)), (odo22, (2, 0), (0, 2)),
             (odo24, (2, 0), (0, 1))]
    for system, p, q in cases:
        for mu, nu in gamma_bijection(system, p, q).items():
            assert is_cycline(system, mu, system.identity, nu).verdict


def test_fixpoint_agrees_with_brute_force(odo22, odo23):
    rng = random.Random(23)
    for system in (odo22, odo23):
        ball = system.word_ball(2)
        paths = system.graph.paths_of_degree((1, 0)) + \
            system.graph.paths_of_degree((0, 1)) + \
            system.graph.paths_of_degree((1, 1))
        for _ in range(40):
            mu = rng.choice(paths)
            nu = rng.choice(paths)
            g = rng.choice(ball)
            if system.act_vertex(g, nu.source) != mu.source:
                continue
            cert = is_cycline(system, mu, g, nu)
            assert cert.verdict == brute_force_cycline(system, mu, g, nu)


def test_common_prefix_reduction(odo23):
    # differing heads settle the verdict without any search
    mu = odometer_path(odo23, (2, 0), 0)
    nu = odometer_path(odo23, (2, 0), 1)
    cert = is_cycline(odo23, mu, odo23.identity, nu)
    assert cert.verdict is False
    assert cert.states == ()


def test_precondition_on_vertices(locally_blind_system):
    system = locally_blind_system
    graph = system.graph
    at_v1 = graph.path([graph.edge(0, 3)])
    at_v0 = graph.path([graph.edge(0, 0)])
    with pytest.raises(PreconditionViolated):
        is_cycline(system, at_v1, system.identity, at_v0)


def test_state_cap_raises():
    # this balanced pair needs four fixpoint states
    system = build_odometer((2, 2), ActionCaps(state_cap=1))
    mu = odometer_path(system, (2, 0), 0)
    nu = odometer_path(system, (0, 2), 0)
    with pytest.raises(ClosureExceeded):
        is_cycline(system, mu, system.identity, nu)


def test_state_cap_names_cap_limit_and_reach():
    system = build_odometer((2, 2), ActionCaps(state_cap=2))
    mu = odometer_path(system, (2, 0), 0)
    nu = odometer_path(system, (0, 2), 0)
    with pytest.raises(ClosureExceeded) as err:
        is_cycline(system, mu, system.identity, nu)
    assert str(err.value) == ("cycline fixpoint exceeds cap state_cap=2 "
                              "(reached 3 states)")


def recorded_starts(module, monkeypatch, run):
    """The start states of the cycline searches that ``module`` makes
    while ``run()`` runs."""
    starts = []
    search = module.cycline_search

    def recorded(system, start, *args):
        starts.append(start)
        return search(system, start, *args)

    monkeypatch.setattr(module, "cycline_search", recorded)
    run()
    monkeypatch.setattr(module, "cycline_search", search)
    return starts


def test_shift_memo_keeps_every_certificate(odo22, kat2v, odo24, odo623,
                                            monkeypatch):
    # the reduced states verify_kms searches, and _per_member's searches
    # behind the kernel lattices; one memo serves all of a system's
    # searches, as in verify_kms
    cases = [(system, recorded_starts(ssgraph.kms, monkeypatch, lambda:
              verify_kms(make_kms_state(system), 500, seed=1)))
             for system in (odo22, kat2v)]
    cases += [(system, recorded_starts(ssgraph.periodicity, monkeypatch,
                                       lambda: periodicity_group(system)))
              for system in (odo24, odo623)]
    verdicts = set()
    for system, starts in cases:
        assert starts
        shift = functools.cache(system.graph.shift_edge)
        for start in starts:
            plain = cycline_search(system, start)
            memo = cycline_search(system, start, shift)
            assert (memo.verdict, memo.reduced, set(memo.states),
                    memo.failure) == (plain.verdict, plain.reduced,
                                      set(plain.states), plain.failure)
            verdicts.add(plain.verdict)
    assert verdicts == {True, False}


def test_partner_extraction(odo24):
    ball = odo24.word_ball(1)
    gamma = gamma_bijection(odo24, (2, 0), (0, 1))
    for mu, nu in gamma.items():
        partner = cycline_partner(odo24, mu, odo24.identity, (0, 1))
        assert partner == nu
    # the partner is a candidate only; distinct values never verify
    mu = odometer_path(odo24, (2, 0), 0)
    candidate = cycline_partner(odo24, mu, odo24.element(1), (0, 1))
    if candidate is not None:
        assert is_cycline(odo24, mu, odo24.element(1),
                          candidate).verdict in (True, False)


def test_triples_enumeration_matches_gamma(odo24):
    ball = odo24.restriction_closure(
        [odo24.identity, odo24.element(1), odo24.element(-1)])
    triples = cycline_triples(odo24, (2, 0), (0, 1), ball)
    gamma = gamma_bijection(odo24, (2, 0), (0, 1))
    identity_triples = {(mu, nu) for mu, g, nu in triples
                        if odo24.is_identity(g)}
    assert identity_triples == set(gamma.items())


def test_sigma_contains(odo22, odo23):
    ball23 = odo23.word_ball(2)
    for g in ball23:
        assert not sigma_contains(odo23, (1, 0), (0, 1), g, 0)
    assert sigma_contains(odo22, (1, 0), (0, 1), odo22.identity, 0)


def test_periodicity_groups_match_oracle(odo22, odo23, odo24, odo623):
    for system in (odo22, odo23, odo24, odo623):
        lattice = periodicity_group(system, box_radius=4, ball_radius=0)
        assert lattice.basis == expected_odometer_per(system.n, 4)


def test_periodicity_with_full_ball_matches_trivial_ball(odo22, odo24):
    # group elements contribute nothing extra on odometers
    for system in (odo22, odo24):
        with_ball = periodicity_group(system, box_radius=3, ball_radius=3)
        identity_only = periodicity_group(system, box_radius=3,
                                          ball_radius=0)
        assert with_ball.basis == identity_only.basis


def test_katsura_aperiodic(kat21, kat32):
    for system in (kat21, kat32):
        lattice = periodicity_group(system, box_radius=4, ball_radius=2)
        assert lattice.rank == 0


def test_aperiodicity_verdicts(odo22, odo23):
    # aperiodic means Per = {0}, settled only by an exact lattice
    lattice = periodicity_group(odo23, box_radius=4, ball_radius=2)
    assert (lattice.rank, lattice.exact) == (0, True)
    lattice = periodicity_group(odo22, box_radius=4, ball_radius=2)
    assert (lattice.rank, lattice.exact) == (1, True)
    assert lattice.basis == ((1, -1),)


def test_lattice_contains_helper(odo22):
    lattice = periodicity_group(odo22, box_radius=4, ball_radius=0)
    assert lattice.contains((2, -2))
    assert not lattice.contains((1, 0))


def test_periodicity_inside_rho_kernel(odo22, odo23, odo24, odo623, kat21,
                                       kat32):
    for system in (odo22, odo23, odo24, odo623, kat21, kat32):
        data = spectral_data(system.graph)
        per = periodicity_group(system, box_radius=3, ball_radius=1,
                                perron_data=data)
        kernel = rho_kernel_lattice(data)
        for vector in per.basis:
            assert lattice_contains(kernel, vector)


def test_box_scan_skips_non_kernel_vectors(odo23):
    # rank 0 oracle means no candidate ever reaches the BFS stage
    lattice = periodicity_group(odo23, box_radius=4, ball_radius=1)
    assert lattice.rank == 0
    assert lattice.basis == ()
    for z in itertools.product(range(-4, 5), repeat=2):
        if z != (0, 0):
            assert not lattice.contains(z)


# -- the exact periodicity group -----------------------------------------

@pytest.mark.parametrize("build, size", [
    (lambda: build_odometer((2, 2)), 3),
    (lambda: build_odometer((2, 3)), 3),
    (lambda: build_odometer((6, 2, 3)), 3),
    (lambda: build_odometer((2, 2, 2)), 3),
    (lambda: build_katsura([[2]], [[1]]), 3),
    (lambda: build_katsura([[3]], [[2]]), 5),
    (lambda: bench_model("grigorchuk"), 5),
    (lambda: bench_model("basilica"), 7),
    (lambda: bench_model("adding_machine"), 3),
], ids=["odometer22", "odometer23", "odometer623", "odometer222",
        "katsura21", "katsura32", "grigorchuk", "basilica", "adding_machine"])
def test_nucleus_sizes(build, size):
    system = build()
    nucleus = system.nucleus()
    assert len(nucleus) == size
    assert nucleus[0] == system.identity
    # restriction-closed, so every long restriction stays inside
    assert len(system.restriction_closure(nucleus)) == size


def test_nucleus_of_non_contracting_katsura_pair_hits_a_cap():
    # every (+1)^m lies on a restriction cycle through T = B = 1
    system = build_katsura([[2, 1], [1, 2]], [[1, 1], [1, 1]])
    start = time.perf_counter()
    with pytest.raises(ClosureExceeded):
        system.nucleus()
    assert time.perf_counter() - start < 1.0


def test_kernel_path_runs_no_box_scan(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("box scan ran")

    for module in (ssgraph.perron, ssgraph.periodicity):
        monkeypatch.setattr(module, "rho_power_is_one", refuse)
    lattice = periodicity_group(build_odometer((6, 2, 3)), box_radius=50)
    assert lattice.basis == ((1, -1, -1),)
    assert lattice.exact
    assert (lattice.vectors, lattice.elements) == ("kernel", "nucleus")


def test_trivial_kernel_needs_no_group_search(kat21):
    lattice = periodicity_group(kat21)
    assert (lattice.basis, lattice.exact) == ((), True)
    assert (lattice.vectors, lattice.elements) == ("kernel", None)


def test_kernel_basis_failing_falls_back_to_the_box(flip_square_system):
    system = flip_square_system
    assert validate_kgraph(system.graph).ok
    assert validate_action(system).ok
    data = spectral_data(system.graph)
    assert data.rho_int == (2, 2)
    assert rho_kernel_lattice(data) == ((1, -1),)
    lattice = periodicity_group(system, perron_data=data)
    assert lattice.basis == ()
    assert not lattice.exact
    assert lattice.vectors == "box"


def test_nucleus_cap_falls_back_to_the_ball(word_odometer22):
    # the nucleus products {0, +-1, +-2} overflow a cap of four
    capped = ActionSystem(word_odometer22.graph, word_odometer22.generators,
                          caps=ActionCaps(max_closure=4))
    with pytest.raises(ClosureExceeded):
        capped.nucleus()
    lattice = periodicity_group(capped, ball_radius=1)
    assert lattice.basis == ((1, -1),)
    assert lattice.exact
    assert (lattice.vectors, lattice.elements) == ("kernel", "ball")


def _oracle_cases():
    cases = [(f"odometer {n}", lambda n=n: build_odometer(n),
              3 if n == (6, 2, 3) else 4)
             for n in BUILTIN_ODOMETERS + ((2, 2, 2), (4, 2), (2,))]
    cases += [(f"katsura {t}/{b}", lambda t=t, b=b: build_katsura(t, b), 4)
              for t, b in BUILTIN_KATSURA + (([[2, 1], [1, 2]],
                                              [[1, 1], [1, 1]]),)]
    cases += [(name, lambda name=name: bench_model(name), 4)
              for name in BENCH_MODELS]
    return cases


@pytest.mark.parametrize("name, build, box", _oracle_cases(),
                         ids=[case[0] for case in _oracle_cases()])
def test_exact_lattice_matches_box_and_ball_oracle(name, build, box):
    lattice = periodicity_group(build(), box_radius=box, ball_radius=3)
    oracle = box_scan_group(build(), box_radius=box, ball_radius=3)
    assert lattice.basis == oracle.basis
    assert lattice.exact


@pytest.mark.parametrize("fixture", [
    "odo22", "odo23", "odo24", "kat21", "kat32", "swap_system",
    "trivial_lonely_system", "trivial_extension_system",
    "partial_fix_system", "self_restrict_system", "locally_blind_system",
    "word_odometer22", "flip_square_system"])
def test_fixture_lattice_matches_box_and_ball_oracle(request, fixture):
    system = request.getfixturevalue(fixture)
    assert periodicity_group(system).basis == box_scan_group(system).basis


# the fixtures of test_fixture_lattice_matches_box_and_ball_oracle
FIXTURES = ["odo22", "odo23", "odo24", "kat21", "kat32", "swap_system",
            "trivial_lonely_system", "trivial_extension_system",
            "partial_fix_system", "self_restrict_system",
            "locally_blind_system", "word_odometer22", "flip_square_system"]


@pytest.mark.parametrize("name", [case[0] for case in _oracle_cases()]
                         + FIXTURES)
def test_kernel_vectors_and_negatives_agree(request, name):
    # periodicity_group searches b alone: the nucleus and the ball
    # closure are closed under inverses, so -b must agree
    cases = {case[0]: case for case in _oracle_cases()}
    if name in cases:
        system = cases[name][1]()
    else:
        system = request.getfixturevalue(name)
    element_sets = [ssgraph.periodicity._ball(system, 3)]
    try:
        element_sets.append(system.nucleus())
    except ClosureExceeded:
        pass  # periodicity_group then searches the ball alone
    member = ssgraph.periodicity._per_member
    data = spectral_data(system.graph)
    # float radii take the box scan, which searches no kernel vector
    kernel = rho_kernel_lattice(data) if data.rho_int is not None else ()
    for elements in element_sets:
        for b in kernel:
            assert member(system, b, elements) \
                == member(system, tuple(-v for v in b), elements)


def test_accepted_kernel_vectors_have_complete_fibers():
    # _per_member needs one cycline triple per vector, a periodicity
    # unitary needs one for every path of the fiber
    for n in BUILTIN_ODOMETERS + ((2, 2, 2),):
        system = build_odometer(n)
        lattice = periodicity_group(system)
        assert lattice.exact and lattice.vectors == "kernel"
        for z in lattice.basis:
            p = tuple(max(v, 0) for v in z)
            q = tuple(max(-v, 0) for v in z)
            periodicity_unitary(system, p, q, elements=system.nucleus())


def _member_of(basis):
    """A stand-in for the cycline search: z is a member exactly when it
    lies in the lattice spanned by ``basis``."""
    def member(system, z, elements):
        return lattice_contains(hnf_basis(basis, len(z)), tuple(z))
    return member


def test_cosets_complete_a_full_rank_sublattice(monkeypatch):
    # Per = <(1,1), (0,2)> has index 2 in K = Z^2; L = 2Z^2 misses the
    # coset of (1,1), which one representative test adds
    monkeypatch.setattr(ssgraph.periodicity, "_per_member",
                        _member_of([(1, 1), (0, 2)]))
    system = SimpleNamespace(graph=SimpleNamespace(k=2))
    per = ssgraph.periodicity._complete_cosets(
        system, ((1, 0), (0, 1)), ((2, 0), (0, 2)), [])
    assert per == ((1, 1), (0, 2))


@pytest.mark.parametrize("box, basis, exact", [
    # the box holds a full-rank part of Per: the cosets make it exact
    (2, ((1, 1, -2), (0, 2, -2)), True),
    # only (1, -1, 0) fits: rank 1 < rank K, so the box result stands
    (1, ((1, -1, 0),), False),
])
def test_failing_kernel_basis_with_the_nucleus(monkeypatch, box, basis,
                                               exact):
    # on (2,2,2), K = <(1,0,-1), (0,1,-1)>; pretend Per is the index-2
    # sublattice where the first two coordinates have an even sum
    monkeypatch.setattr(ssgraph.periodicity, "_per_member",
                        _member_of([(1, 1, -2), (2, 0, -2)]))
    lattice = periodicity_group(build_odometer((2, 2, 2)), box_radius=box)
    assert lattice.basis == basis
    assert lattice.exact is exact
    assert (lattice.vectors, lattice.elements) == (
        "kernel" if exact else "box", "nucleus")


def test_kernel_vector_without_its_negative_is_a_closure_violation(
        monkeypatch):
    monkeypatch.setattr(ssgraph.periodicity, "_per_member",
                        lambda system, z, elements:
                        z[0] > 0 and z != (1, -1))
    with pytest.raises(BoxClosureViolation):
        periodicity_group(build_odometer((2, 2)))
