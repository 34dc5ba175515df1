import cmath
import collections
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ssgraph import algebra
from ssgraph.algebra import add, adjoint, element, generator_unitary, \
    identity_element, monomial, multiply, periodicity_unitary, scale, \
    vertex_projection
from ssgraph import kms
from ssgraph.action import ActionCaps
from ssgraph.cli import emit_model, parse_model
from ssgraph.errors import ClosureExceeded, NotInLattice, SimplexEmpty
from ssgraph.intlattice import lattice_coordinates, lattice_residue
from ssgraph.kgraph import KGraph, add_degrees, sub_degrees
from ssgraph.kms import KmsReport, character_trace, evaluate, gauge_scale, \
    haar_trace, make_kms_state, mixture_trace, restrict_to_diagonal, \
    simplex_summary, trace_value, verify_kms
from ssgraph.models import build_katsura, build_odometer, odometer_path
from ssgraph.periodicity import PeriodicityLattice, is_cycline, \
    periodicity_group
from ssgraph.perron import pf_state_value, spectral_data
from tests.conftest import bench_model
from tests.test_hypotheses import permuted


def small_random_element(system, rng, size=3):
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
        entries.append((mu, g, nu,
                        complex(rng.uniform(-1, 1), rng.uniform(-1, 1))))
    return element(system, entries)


# -- traces --------------------------------------------------------------

def test_trace_values_on_rank_one_lattice(odo22):
    lattice = periodicity_group(odo22, box_radius=4, ball_radius=0)
    haar = haar_trace()
    assert trace_value(haar, lattice, (0, 0)) == 1.0
    assert trace_value(haar, lattice, (1, -1)) == 0.0
    theta = character_trace([0.25])
    assert trace_value(theta, lattice, (1, -1)) == \
        pytest.approx(cmath.exp(0.5j * cmath.pi))
    assert trace_value(theta, lattice, (2, -2)) == \
        pytest.approx(cmath.exp(1.0j * cmath.pi))
    with pytest.raises(NotInLattice):
        trace_value(haar, lattice, (1, 0))


def test_mixture_trace_is_convex_combination(odo22):
    lattice = periodicity_group(odo22, box_radius=4, ball_radius=0)
    mix = mixture_trace([(0.5, [0.0]), (0.5, [0.5])])
    # average of 1 and exp(i pi) at z = (1,-1)
    value = trace_value(mix, lattice, (1, -1))
    assert value == pytest.approx(0.5 + 0.5 * cmath.exp(1j * cmath.pi))
    with pytest.raises(ValueError):
        mixture_trace([(0.7, [0.0]), (0.7, [0.1])])
    with pytest.raises(ValueError):
        mixture_trace([(-0.5, [0.0]), (1.5, [0.1])])


@pytest.mark.parametrize("kind,values", [
    ("character", [float("nan")]),
    ("character", [float("inf")]),
    ("mixture", [(float("nan"), [0.1])]),
    ("mixture", [(0.5, [float("nan")]), (0.5, [0.1])]),
    ("mixture", [(float("inf"), [0.0]), (float("-inf"), [0.1])]),
], ids=["character-nan", "character-inf", "weight-nan", "coordinate-nan",
        "weights-inf"])
def test_traces_reject_non_finite_values(kind, values):
    # a NaN value would make every deviation NaN, which max() ignores
    make = character_trace if kind == "character" else mixture_trace
    with pytest.raises(ValueError, match="must be finite"):
        make(values)


# -- state construction and evaluation -----------------------------------

def test_state_exists_on_builtins(odo22, odo23, kat21):
    for system in (odo22, odo23, kat21):
        state = make_kms_state(system)
        assert state.exists


def test_state_vanishes_on_swap_declaration(swap_system):
    state = make_kms_state(swap_system)
    assert not state.exists
    with pytest.raises(SimplexEmpty):
        evaluate(state, identity_element(swap_system))


def test_character_length_must_match_rank(odo22):
    # a character is a one-point mixture, so both forms share one check
    for trace in (character_trace([0.1, 0.2]),
                  mixture_trace([(0.5, [0.1]), (0.5, [0.1, 0.2])])):
        with pytest.raises(ValueError) as err:
            make_kms_state(odo22, trace=trace)
        assert str(err.value) == "character needs 1 coordinates, got 2"


def test_vertex_projection_values(odo23, kat21):
    for system in (odo23, kat21):
        state = make_kms_state(system)
        data = spectral_data(system.graph)
        for v in range(system.graph.num_vertices):
            value = evaluate(state, vertex_projection(system, v))
            assert value == pytest.approx(data.x[v])


def test_diagonal_values_scale_with_degree(odo23):
    state = make_kms_state(odo23)
    data = spectral_data(odo23.graph)
    for degree in ((1, 0), (0, 1), (1, 1), (2, 1)):
        for mu in odo23.graph.paths_of_degree(degree):
            got = evaluate(state, monomial(odo23, mu, odo23.identity, mu))
            assert got == pytest.approx(pf_state_value(data, mu))


def test_off_lattice_monomials_vanish(odo23):
    state = make_kms_state(odo23)
    mu = odometer_path(odo23, (1, 0), 0)
    nu = odometer_path(odo23, (0, 1), 0)
    assert evaluate(state, monomial(odo23, mu, odo23.identity, nu)) == 0


def test_full_state_is_linear(odo22):
    state = make_kms_state(odo22)
    rng = random.Random(67)
    a = small_random_element(odo22, rng)
    b = small_random_element(odo22, rng)
    combined = add(scale(a, 2), b)
    expected = 2 * evaluate(state, a) + evaluate(state, b)
    assert abs(evaluate(state, combined) - expected) < 1e-9


def test_unitary_value_tracks_character(odo22):
    v = periodicity_unitary(odo22, (1, 0), (0, 1))
    for theta in (0.0, 0.3, 0.5):
        state = make_kms_state(odo22, trace=character_trace([theta]))
        assert evaluate(state, v) == pytest.approx(
            cmath.exp(2j * cmath.pi * theta))
    haar_state = make_kms_state(odo22)
    assert evaluate(haar_state, v) == pytest.approx(0.0)


def test_state_is_mixture_affine(odo22):
    rng = random.Random(71)
    weights = [(0.25, [0.1]), (0.75, [0.6])]
    mix_state = make_kms_state(odo22, trace=mixture_trace(weights))
    parts = [make_kms_state(odo22, trace=character_trace(theta))
             for _, theta in weights]
    for _ in range(10):
        a = small_random_element(odo22, rng)
        expected = sum(w * evaluate(part, a)
                       for (w, _), part in zip(weights, parts))
        assert abs(evaluate(mix_state, a) - expected) < 1e-9


def test_state_positive_on_squares(odo22, odo23):
    rng = random.Random(73)
    for system in (odo22, odo23):
        state = make_kms_state(system)
        for _ in range(15):
            a = small_random_element(system, rng)
            value = evaluate(state, multiply(adjoint(a), a))
            assert value.real > -1e-9
            assert abs(value.imag) < 1e-9


def test_state_is_tracial_on_group_part(odo22):
    # phi(u_g a) = phi(a u_g) for the gauge-invariant group unitaries
    state = make_kms_state(odo22)
    rng = random.Random(79)
    u = generator_unitary(odo22, odo22.element(1))
    for _ in range(10):
        a = small_random_element(odo22, rng)
        assert abs(evaluate(state, multiply(u, a))
                   - evaluate(state, multiply(a, u))) < 1e-9


# -- the defining identity ----------------------------------------------

def test_gauge_scale_multiplies_by_rho_power(odo23):
    state = make_kms_state(odo23)
    mu = odometer_path(odo23, (1, 1), 0)
    nu = odometer_path(odo23, (0, 0), 0)
    a = monomial(odo23, mu, odo23.identity, nu)
    scaled = gauge_scale(state, a)
    (value,) = scaled.terms.values()
    assert value == pytest.approx(1 / 6)


def test_kms_identity_small_samples(odo22):
    state = make_kms_state(odo22)
    report = verify_kms(state, sample_count=40)
    assert report.ok
    assert report.max_deviation < 1e-9
    assert report.checked > 0


def test_kms_identity_with_character(odo22):
    state = make_kms_state(odo22, trace=character_trace([0.3]))
    report = verify_kms(state, sample_count=40)
    assert report.ok


def reference_monomials(system, bound):
    """Every monomial (mu, g, nu) with degrees at most ``bound``, g in
    the generators' restriction closure, in ``verify_kms``'s order."""
    graph = system.graph
    elements = system.restriction_closure(
        [system.identity]
        + [system.generator_element(g.name) for g in system.generators])
    paths = [p for d in itertools.product(*(range(b + 1) for b in bound))
             for p in graph.paths_of_degree(d)]
    return [monomial(system, mu, g, nu)
            for g in elements for nu in paths for mu in paths
            if mu.source == system.act_vertex(g, nu.source)]


def reference_check(state, pairs, products=None):
    """(max deviation, checked, nonzero) of phi(xy) = phi(y scale(x))
    over the pairs, through the public multiply/evaluate/gauge_scale.

    ``products`` keeps each pair's xy and y scale(x) under the pair's
    monomial keys.  Neither product depends on the trace, so states
    that differ only in their trace can share it."""
    products = {} if products is None else products
    worst = 0.0
    checked = nonzero = 0
    for x, y in pairs:
        pair = (*x.terms, *y.terms)
        both = products.get(pair)
        if both is None:
            both = products[pair] = (multiply(x, y),
                                     multiply(y, gauge_scale(state, x)))
        lhs = evaluate(state, both[0])
        rhs = evaluate(state, both[1])
        worst = max(worst, abs(lhs - rhs))
        checked += 1
        nonzero += lhs != 0
    return worst, checked, nonzero


def sampled_pairs(big, samples, seed):
    """The pairs that ``verify_kms`` draws from the (2,...,2) block."""
    rng = random.Random(seed)
    return [(rng.choice(big), rng.choice(big)) for _ in range(samples)]


def reference_report(block, sampled, tol):
    """The ``KmsReport`` of the block's and the samples' reference
    checks."""
    worst = max(block[0], sampled[0])
    return KmsReport(worst < tol, worst, block[1] + sampled[1],
                     block[2] + sampled[2])


def reference_trace(kind, rank):
    if kind == "haar":
        return haar_trace()
    if kind == "character":
        return character_trace([0.3] * rank)
    return mixture_trace([(0.25, [0.1] * rank), (0.75, [0.6] * rank)])


@pytest.fixture(scope="module")
def reference_products():
    """One ``reference_check`` product table per system, shared by the
    trace cases of a model."""
    return collections.defaultdict(dict)


# odo23 has a rank-0 lattice, on which every trace is Haar; its block
# of 288**2 pairs is the slowest, so it runs once.  flip_square_system's
# lattice comes from the box scan and is not exact, so its walk runs
# without the degree-class test
@pytest.mark.parametrize("name,kind", [
    ("odo22", "haar"), ("odo22", "character"), ("odo22", "mixture"),
    ("odo23", "haar"),
    ("kat21", "haar"), ("kat21", "character"), ("kat21", "mixture"),
    ("kat2v", "haar"), ("flip_square_system", "haar")])
def test_fused_check_matches_reference_loop(name, kind, request,
                                            reference_products):
    system = request.getfixturevalue(name)
    products = reference_products[system]
    k = system.graph.k
    small = reference_monomials(system, (1,) * k)
    big = reference_monomials(system, (2,) * k)
    tol = 1e-9
    lattice = make_kms_state(system).lattice
    assert lattice.exact == (name != "flip_square_system")
    state = make_kms_state(system, trace=reference_trace(kind, lattice.rank))
    # the (1,...,1) block does not depend on the seed
    block = reference_check(state, itertools.product(small, small), products)
    for seed, samples in ((5, 30), (2024, 45)):
        sampled = reference_check(
            state, sampled_pairs(big, samples, seed), products)
        expected = reference_report(block, sampled, tol)
        got = verify_kms(state, sample_count=samples, seed=seed)
        assert got == expected
        assert got.max_deviation == expected.max_deviation


@pytest.mark.parametrize("name", ["odo22", "odo23", "kat21", "kat2v",
                                  "swap_system"])
def test_monomial_block_matches_materialised_list(name, request):
    # swap_system's generator moves vertices, so mu's source differs
    # from nu's
    system = request.getfixturevalue(name)
    for bound in ((1,) * system.graph.k, (2,) * system.graph.k):
        block = kms._MonomialBlock(system, bound, system.generator_closure())
        expected = [key for m in reference_monomials(system, bound)
                    for key in m.terms]
        assert len(block) == len(expected)
        assert list(block) == expected
        # random.choice draws the same monomials from either
        lazy, eager = random.Random(11), random.Random(11)
        assert [lazy.choice(block) for _ in range(50)] == \
            [eager.choice(expected) for _ in range(50)]


def test_monomial_block_is_not_materialised(odo623):
    # 2 elements x 3913**2 pairs of paths of degree at most (2,2,2)
    block = kms._MonomialBlock(odo623, (2, 2, 2), odo623.generator_closure())
    assert len(block) == 2 * 3913 ** 2 == 30_623_138
    assert block[len(block) - 1].g == odo623.generator_closure()[-1]
    with pytest.raises(IndexError):
        block[len(block)]


def test_negative_sample_count_is_rejected(odo22):
    with pytest.raises(ValueError, match="at least 0"):
        verify_kms(make_kms_state(odo22), sample_count=-5)


def test_nonzero_count_is_pinned(odo22):
    # Haar vanishes on the cycline monomials off degree difference 0,
    # a character does not; two of the 500 samples are nonzero
    haar = verify_kms(make_kms_state(odo22), sample_count=500, seed=7)
    assert haar.ok
    assert (haar.checked, haar.nonzero) == (162 ** 2 + 500, 211)
    state = make_kms_state(odo22, trace=character_trace([0.3]))
    report = verify_kms(state, sample_count=500, seed=7)
    assert report.ok
    assert (report.checked, report.nonzero) == (162 ** 2 + 500, 401)


def test_check_count_cap_is_exact(odo22):
    state = make_kms_state(odo22)
    limit = 162 ** 2 + 10
    report = verify_kms(state, sample_count=10, max_checks=limit)
    assert report.ok and report.checked == limit
    with pytest.raises(ClosureExceeded,
                       match=rf"{limit} checks.*max_checks cap of "
                             rf"{limit - 1}; raise it with --max-checks"):
        verify_kms(state, sample_count=10, max_checks=limit - 1)


def test_verify_kms_takes_seed_and_cap_by_keyword(odo22):
    # a third positional argument, such as a tolerance, must fail
    # rather than become the seed
    state = make_kms_state(odo22)
    with pytest.raises(TypeError):
        verify_kms(state, 500, 1e-9)


def test_nonzero_deviation_is_bit_exact():
    # the one corpus model whose deviation is not 0.0, pinned bit for
    # bit; its right sides have at most one nonzero term, so scaling
    # per term or after the sum give the same bits here
    system = build_katsura([[3, 1], [1, 2]], [[-2, 1], [1, 1]])
    report = verify_kms(make_kms_state(system), sample_count=200, seed=5)
    assert (report.ok, report.max_deviation, report.checked,
            report.nonzero) == (True, 1.3877787807814457e-17, 15329, 165)
    assert repr(report.max_deviation) == "1.3877787807814457e-17"


def test_each_product_cell_is_composed_once(odo22, monkeypatch):
    # composing both legs of every product term takes 32,426 calls
    # here; one per distinct (path, term) leg takes 1,537
    state = make_kms_state(odo22)
    verify_kms(state, sample_count=500, seed=7)
    calls = []
    compose = KGraph.compose

    def counted(graph, mu, nu):
        calls.append(1)
        return compose(graph, mu, nu)

    monkeypatch.setattr(KGraph, "compose", counted)
    verify_kms(state, sample_count=500, seed=7)
    assert len(calls) < 3000


def without_class_test(state):
    """A copy of ``state`` whose lattice is not marked exact, on which
    ``verify_kms`` refutes no pair by its degree class."""
    return state._replace(lattice=state.lattice._replace(exact=False))


def test_cycline_search_runs_once_per_reduced_state(monkeypatch):
    # asking is_cycline once per monomial runs 1,248 searches here,
    # 431 of them distinct; the degree-class test leaves 75
    system = build_odometer((2, 2))
    state = make_kms_state(system)
    starts = []
    search = kms.cycline_search

    def counted(system, start, *args):
        starts.append(start)
        return search(system, start, *args)

    monkeypatch.setattr(kms, "cycline_search", counted)
    verify_kms(without_class_test(state), sample_count=500, seed=1)
    assert len(starts) == len(set(starts)) == 431
    starts.clear()
    verify_kms(state, sample_count=500, seed=1)
    assert len(starts) == len(set(starts)) == 75


def test_each_shift_is_computed_once_per_call(odo22, monkeypatch):
    # the fixpoint searches of one call share a shift_edge memo: the
    # searches alone make 2,222 calls here, 152 of them distinct (52
    # with the degree-class test), and a second call computes every
    # shift again
    state = make_kms_state(odo22)
    shifts = []
    shift_edge = KGraph.shift_edge

    def counted(graph, alpha, f):
        shifts.append((alpha, f))
        return shift_edge(graph, alpha, f)

    monkeypatch.setattr(KGraph, "shift_edge", counted)
    for _ in range(2):
        verify_kms(without_class_test(state), sample_count=500, seed=7)
        assert len(shifts) == len(set(shifts)) == 152
        shifts.clear()
        verify_kms(state, sample_count=500, seed=7)
        assert len(shifts) == len(set(shifts)) == 52
        shifts.clear()


@pytest.mark.parametrize("sizes", [(2,), (2, 2), (2, 3), (3, 3)])
def test_degree_class_test_changes_no_report(sizes):
    # pairs whose degree sum lies off Per hold as 0 = 0, so refuting
    # them by class leaves every report as the full walk makes it
    system = build_odometer(sizes)
    rank = make_kms_state(system).lattice.rank
    for kind in ("haar", "character", "mixture"):
        state = make_kms_state(system, trace=reference_trace(kind, rank))
        assert state.lattice.exact
        for seed in (5, 7):
            got, full = (verify_kms(s, sample_count=1000, seed=seed)
                         for s in (state, without_class_test(state)))
            assert (got.ok, repr(got.max_deviation), got.checked,
                    got.nonzero) == (full.ok, repr(full.max_deviation),
                                     full.checked, full.nonzero)


def test_rank_three_check_is_pinned():
    report = verify_kms(make_kms_state(build_odometer((2, 2, 2))),
                        sample_count=100)
    assert (report.ok, repr(report.max_deviation), report.checked,
            report.nonzero) == (True, '0.0', 2125864, 2883)


def test_odometer_623_walk_is_pinned(odo623):
    # the largest walk that the tails memos and the partner lists see:
    # 14,112 block monomials, 84 block paths
    report = verify_kms(make_kms_state(odo623), sample_count=100,
                        max_checks=10 ** 9)
    assert (report.ok, repr(report.max_deviation), report.checked,
            report.nonzero) == (True, '0.0', 199148644, 24854)


# (ok, repr(max_deviation), checked, nonzero) under Haar, a character
# at 0.3 per lattice coordinate and the mixture 0.25@0.1 / 0.75@0.2,
# 100 samples at seed 7; on a rank-0 lattice all three are Haar
KMS_CORPUS = [
    ((2,), [(True, "0.0", 424, 17)] * 3),
    ((3,), [(True, "0.0", 1124, 26)] * 3),
    ((2, 2), [(True, "0.0", 26344, 211), (True, "0.0", 26344, 399),
              (True, "0.0", 26344, 399)]),
    ((2, 3), [(True, "0.0", 83044, 382)] * 3),
    ((2, 4), [(True, "0.0", 202600, 555), (True, "0.0", 202600, 675),
              (True, "0.0", 202600, 675)]),
    ((3, 3), [(True, "0.0", 262244, 628)]
     + [(True, "1.3877787807814457e-17", 262244, 1158)] * 2),
    ((2, 2, 2), [(True, "0.0", 2125864, 2883),
                 (True, "0.0", 2125864, 11667),
                 (True, "0.0", 2125864, 11667)]),
    (([[2]], [[1]]), [(True, "0.0", 424, 17)] * 3),
    (([[3]], [[2]]), [(True, "0.0", 1124, 24)] * 3),
    (([[2, 1], [1, 2]], [[1, 1], [1, 1]]), [(True, "0.0", 4196, 48)] * 3),
    (([[3, 1], [1, 2]], [[-2, 1], [1, 1]]),
     [(True, "1.3877787807814457e-17", 15229, 165)] * 3),
    (([[2, 4], [1, 2]], [[1, 1], [1, 1]]), [(True, "0.0", 17000, 93)] * 3),
]


def test_kms_corpus_reports_are_pinned():
    got, expected = {}, {}
    for model, reports in KMS_CORPUS:
        system = (build_odometer(model) if isinstance(model[0], int)
                  else build_katsura(*model))
        rank = make_kms_state(system).lattice.rank
        traces = (haar_trace(), character_trace([0.3] * rank),
                  mixture_trace([(0.25, [0.1] * rank), (0.75, [0.2] * rank)]))
        for trace, report in zip(traces, reports):
            case = repr(model), repr(trace)
            r = verify_kms(make_kms_state(system, trace), sample_count=100,
                           seed=7)
            got[case] = r.ok, repr(r.max_deviation), r.checked, r.nonzero
            expected[case] = report
    assert got == expected


def is_computed(state, x, y):
    """Whether ``verify_kms`` computes the products of x and y: their
    legs meet and, on an exact lattice, their degree differences sum
    into Per."""
    graph = state.system.graph
    z = add_degrees(sub_degrees(x.mu.degree, x.nu.degree),
                    sub_degrees(y.mu.degree, y.nu.degree))
    return graph.meet_tails(x.mu, y.nu) is not None \
        and graph.meet_tails(x.nu, y.mu) is not None \
        and (not state.lattice.exact
             or lattice_coordinates(state.lattice.basis, z) is not None)


def computed_sample_pairs(state, big, samples, seed):
    """The drawn index pairs whose products ``verify_kms`` computes, in
    the order it computes them."""
    draws = kms._draws(random.Random(seed), len(big))
    return [(i, j) for i, j in itertools.islice(zip(draws, draws), samples)
            if is_computed(state, big[i], big[j])]


def computed_sample_indices(state, big, samples, seed):
    """The drawn indices of the sample pairs whose products
    ``verify_kms`` computes, in the order it first computes them."""
    return list(dict.fromkeys(itertools.chain.from_iterable(
        computed_sample_pairs(state, big, samples, seed))))


def walked_pairs(state, samples, seed):
    """``kms._live_pairs`` on its own, as (x, y, mirrored) monomial
    keys: its handles carry their monomial, its meets are
    ``meet_tails`` and its classes the residues modulo Per, or () on a
    lattice that is not exact."""
    system, lattice = state.system, state.lattice
    graph = system.graph
    block, big = (kms._MonomialBlock(system, (b,) * graph.k,
                                     system.generator_closure())
                  for b in (1, 2))
    ids = {p: i for i, p in enumerate(big.paths)}

    def meet(p, q):
        return 0 if graph.meet_tails(big.paths[p], big.paths[q]) else -1

    def classes(p, q):
        if not lattice.exact:
            return (), ()
        z = sub_degrees(big.paths[p].degree, big.paths[q].degree)
        return (lattice_residue(lattice.basis, z),
                lattice_residue(lattice.basis, tuple(-c for c in z)))

    def handle(m):
        p, q = ids[m.mu], ids[m.nu]
        return p, None, None, q, m, *classes(p, q)

    return [(x[4], y[4], mirrored) for x, y, mirrored in kms._live_pairs(
        block, big, handle, meet, classes, samples, seed)]


@pytest.mark.parametrize("name,samples,seed", [
    ("odo22", 500, 7), ("kat2v", 500, 7), ("adding_machine", 4000, 3),
    ("flip_square_system", 500, 7)])
def test_live_pairs_are_the_computed_pairs(name, samples, seed, request):
    # the block pairs in the (i, j >= i) loop's order, yx a pair of its
    # own off the diagonal, then the drawn pairs; flip_square_system's
    # lattice is not exact, so no pair there is refuted by class
    system = (bench_model(name) if name == "adding_machine"
              else request.getfixturevalue(name))
    state = make_kms_state(system, character_trace([0.3])
                           if name == "odo22" else None)
    assert state.lattice.exact == (name != "flip_square_system")
    small, big = ([key for m in reference_monomials(system, bound)
                   for key in m.terms]
                  for bound in ((1,) * system.graph.k, (2,) * system.graph.k))
    block = [(x, y, i != j) for i, x in enumerate(small)
             for j, y in enumerate(small[i:], i) if is_computed(state, x, y)]
    sampled = [(big[i], big[j], False)
               for i, j in computed_sample_pairs(state, big, samples, seed)]
    assert block and sampled
    assert walked_pairs(state, samples, seed) == block + sampled


def test_products_are_keyed_on_the_tails_at_the_meet(odo22, monkeypatch):
    # keyed on (g, nu) and (mu, h) ids instead, this call runs 193
    # middles and 65 lambda_min calls, and building a handle for every
    # drawn index makes 1,062 monomials
    state = make_kms_state(odo22)
    small, big = ([key for m in reference_monomials(odo22, bound)
                   for key in m.terms] for bound in ((1, 1), (2, 2)))
    computed = computed_sample_indices(state, big, 500, 7)
    extensions, middles, built = {}, [], []
    lambda_min = KGraph.lambda_min
    product_middle = algebra._product_middle
    checked_monomial = algebra._checked_monomial

    def found(graph, mu, nu, *args):
        out = lambda_min(graph, mu, nu, *args)
        extensions[id(out)] = out, graph.meet_tails(mu, nu)
        return out

    def middle(system, g, ext, h):
        middles.append((extensions[id(ext)][1], g, h))
        return product_middle(system, g, ext, h)

    def monomial_built(system, mu, g, nu):
        built.append((mu, g, nu))
        return checked_monomial(system, mu, g, nu)

    monkeypatch.setattr(KGraph, "lambda_min", found)
    monkeypatch.setattr(algebra, "_product_middle", middle)
    monkeypatch.setattr(algebra, "_checked_monomial", monomial_built)
    verify_kms(state, sample_count=500, seed=7)
    tails = [meet for _, meet in extensions.values()]
    assert len(tails) == len(set(tails)) == 32
    assert len(middles) == len(set(middles)) == 88
    assert built == small + [big[i] for i in computed]
    assert len(computed) == 18


def test_each_cycline_cell_is_valued_once(odo22, monkeypatch):
    # a cell is a middle term with x's mu and y's nu as outer legs;
    # valuing every term of every computed product calls trace_value
    # 472 times here
    state = make_kms_state(odo22, trace=character_trace([0.3]))
    system, graph = odo22, odo22.graph
    small, big = ([key for m in reference_monomials(odo22, bound)
                   for key in m.terms] for bound in ((1, 1), (2, 2)))
    pairs = [(x, y) for i, x in enumerate(small) for y in small[i:]
             if is_computed(state, x, y)]
    pairs += [(big[i], big[j])
              for i, j in computed_sample_pairs(state, big, 500, 7)]
    cells = set()
    for x, y in pairs:
        for a, b in (x, y), (y, x):
            ext = graph.lambda_min(a.nu, b.mu)
            for head, g, pulled in algebra._product_middle(system, a.g,
                                                           ext, b.g):
                mu = graph.compose(a.mu, head)
                nu = graph.compose(b.nu, pulled)
                if is_cycline(system, mu, g, nu).verdict:
                    cells.add((head, g, pulled, a.mu, b.nu))
    calls = []
    value = kms.trace_value

    def counted(*args):
        calls.append(1)
        return value(*args)

    monkeypatch.setattr(kms, "trace_value", counted)
    verify_kms(state, sample_count=500, seed=7)
    assert len(calls) == len(cells) == 125


def test_cycline_cap_bounds_verify_kms():
    # odometer (2,2) needs more than one fixpoint state per search
    capped = build_odometer((2, 2), ActionCaps(state_cap=1))
    state = make_kms_state(build_odometer((2, 2)))._replace(system=capped)
    with pytest.raises(ClosureExceeded, match="cap state_cap=1 "):
        verify_kms(state, sample_count=0)


def check_meet_refutations(system, state, rng, count):
    """On ``count`` pairs drawn from the (2,...,2) block: when x's mu and
    y's nu differ at their degree meet, ``meet_tails`` refutes every
    term of xy and the state vanishes on it; when x's nu and y's mu
    do, xy has no minimal common extension.  Returns how many pairs
    each refutation caught."""
    graph = system.graph
    block = kms._MonomialBlock(system, (2,) * graph.k,
                               system.generator_closure())
    outer = inner = 0
    for _ in range(count):
        x, y = rng.choice(block), rng.choice(block)
        if graph.meet_tails(x.mu, y.nu) is None:
            outer += 1
            xy = multiply(monomial(system, *x), monomial(system, *y))
            assert all(graph.meet_tails(t.mu, t.nu) is None
                       for t in xy.terms)
            if state is not None:
                assert evaluate(state, xy) == 0
        if graph.meet_tails(x.nu, y.mu) is None:
            inner += 1
            assert graph.lambda_min(x.nu, y.mu) == []
    return outer, inner


@pytest.mark.parametrize("name", ["odo22", "kat21", "kat2v", "swap_system",
                                  "flip_square_system"])
def test_meet_refutations_are_exact(name, request):
    # swap_system has no state, so only its terms are checked
    system = request.getfixturevalue(name)
    state = make_kms_state(system)
    outer, inner = check_meet_refutations(
        system, state if state.exists else None, random.Random(13), 300)
    assert outer and inner


@st.composite
def generated_systems(draw, max_rank=2, links=(0, 2)):
    """An odometer with sizes in {2,3}^k, k <= ``max_rank``, or a
    Katsura pair of at most two vertices that ``_validate_katsura``
    accepts, with a number of edges in the range ``links`` between two
    distinct vertices."""
    if draw(st.booleans()):
        sizes = draw(st.lists(st.sampled_from([2, 3]), min_size=1,
                              max_size=max_rank))
        return build_odometer(tuple(sizes))
    size = draw(st.integers(1, 2))
    t_matrix = [[draw(st.integers(2, 3) if v == w else st.integers(*links))
                 for w in range(size)] for v in range(size)]
    b_matrix = [[draw(st.sampled_from(
        [b for b in range(-t, t + 1) if b] or [0])) for t in row]
        for row in t_matrix]
    return build_katsura(t_matrix, b_matrix)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(generated_systems(), st.randoms(use_true_random=False))
def test_meet_refutations_are_exact_on_generated_models(system, rng):
    check_meet_refutations(system, None, rng, 20)


@settings(derandomize=True, max_examples=16, deadline=None)
@given(generated_systems(max_rank=1, links=(1, 1)).filter(
    lambda system: len(system.graph.edges[0]) <= 6),
    st.randoms(use_true_random=False))
def test_fused_check_matches_reference_loop_on_generated_models(system,
                                                                rng):
    # rank-1 odometers and strongly connected Katsura pairs, as built
    # and relabelled; at most six edges keep each example's reference
    # loops under a second
    doc = emit_model(system.graph, system)
    for model in (system, parse_model(permuted(doc, rng))[1]):
        state = make_kms_state(model)
        small = reference_monomials(model, (1,))
        block = reference_check(state, itertools.product(small, small))
        sampled = reference_check(state, sampled_pairs(
            reference_monomials(model, (2,)), 10, 3))
        expected = reference_report(block, sampled, 1e-9)
        got = verify_kms(state, sample_count=10, seed=3)
        assert (got.ok, repr(got.max_deviation), got.checked,
                got.nonzero) == (expected.ok, repr(expected.max_deviation),
                                 expected.checked, expected.nonzero)


def test_lambda_min_runs_only_on_meeting_legs(odo22, kat2v, monkeypatch):
    # legs that differ at the meet of their degrees have no minimal
    # common extension, and such a pair's products are never built
    cases = [(make_kms_state(odo22), 500), (make_kms_state(kat2v), 500),
             (make_kms_state(bench_model("adding_machine")), 4000)]
    calls = []
    lambda_min = KGraph.lambda_min

    def recorded(graph, mu, nu, *args, **kwargs):
        calls.append((graph, mu, nu))
        return lambda_min(graph, mu, nu, *args, **kwargs)

    monkeypatch.setattr(KGraph, "lambda_min", recorded)
    for state, samples in cases:
        verify_kms(state, sample_count=samples, seed=7)
    assert calls
    assert all(graph.meet_tails(mu, nu) is not None
               for graph, mu, nu in calls)


def test_product_table_lives_for_one_call(odo22, monkeypatch):
    # a table kept on the state or the system would answer the second
    # call from its memos
    state = make_kms_state(odo22)
    calls = []
    lambda_min = KGraph.lambda_min

    def counted(graph, mu, nu, *args, **kwargs):
        calls.append(1)
        return lambda_min(graph, mu, nu, *args, **kwargs)

    monkeypatch.setattr(KGraph, "lambda_min", counted)
    counts = []
    for _ in range(2):
        verify_kms(state, sample_count=500, seed=7)
        counts.append(len(calls))
        calls.clear()
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("name,limit", [("odo22", 400), ("kat2v", 200)])
def test_refuted_products_build_no_middle(name, limit, request,
                                          monkeypatch):
    # building every product's middle runs 1,249 and 1,017 times here
    state = make_kms_state(request.getfixturevalue(name))
    calls = []
    middle = algebra._product_middle

    def counted(*args):
        calls.append(1)
        return middle(*args)

    monkeypatch.setattr(algebra, "_product_middle", counted)
    verify_kms(state, sample_count=500, seed=1)
    assert len(calls) < limit


def test_right_side_is_scaled_per_term():
    # right sides with several nonzero terms and gauge factors that are
    # powers of 3: scaling their sum instead reads 5.551115123125783e-17
    state = make_kms_state(build_odometer((3, 3)),
                           trace=character_trace([0.05]))
    report = verify_kms(state, sample_count=0)
    assert (report.ok, repr(report.max_deviation), report.checked,
            report.nonzero) == (True, "1.3877787807814457e-17", 262144, 1158)


@pytest.mark.parametrize("model,trace,expected", [
    (([[2, 1], [1, 2]], [[1, 1], [1, 1]]), haar_trace(),
     (True, "0.0", 4096, 48)),
    (([[3, 1], [1, 2]], [[-2, 1], [1, 1]]), haar_trace(),
     (True, "1.3877787807814457e-17", 15129, 165)),
    ((2, 2), character_trace([0.3]), (True, "0.0", 26244, 399))],
    ids=["kat2v", "kat-3121", "odo22-character"])
def test_block_check_survives_relabelling(model, trace, expected):
    system = (build_odometer(model) if isinstance(model[0], int)
              else build_katsura(*model))
    doc = emit_model(system.graph, system)
    for seed in (None, 1, 2, 3):
        moved = doc if seed is None else permuted(doc, random.Random(seed))
        report = verify_kms(make_kms_state(parse_model(moved)[1], trace),
                            sample_count=0)
        assert (report.ok, repr(report.max_deviation), report.checked,
                report.nonzero) == expected


def test_sample_draws_are_built_once_per_index(monkeypatch):
    # 4,000 samples from the adding machine's 98-monomial (2)-block:
    # drawing monomials would index the block 8,000 times
    state = make_kms_state(bench_model("adding_machine"))
    calls = []
    getitem = kms._MonomialBlock.__getitem__

    def counted(block, i):
        calls.append(i)
        return getitem(block, i)

    monkeypatch.setattr(kms._MonomialBlock, "__getitem__", counted)
    report = verify_kms(state, sample_count=4000, seed=3)
    assert (report.ok, report.max_deviation, report.checked,
            report.nonzero) == (True, 0.0, 4324, 65)
    assert len(calls) < 200


@pytest.mark.parametrize("n", [1, 2, 3, 98, 4802, 2 ** 20 + 1])
def test_draws_match_random_choice(n):
    # verify_kms's samples are these indices; the random docs do not
    # promise that choice keeps its algorithm across Python versions
    for seed in range(5):
        drawn = list(itertools.islice(kms._draws(random.Random(seed), n),
                                      1000))
        rng = random.Random(seed)
        assert drawn == [rng.choice(range(n)) for _ in range(1000)]


def test_kms_check_fails_off_the_lattice(odo22):
    state = make_kms_state(odo22)
    broken = state._replace(lattice=PeriodicityLattice(0, (), 4, 3))
    with pytest.raises(NotInLattice, match=r"\(1, -1\)"):
        verify_kms(broken, sample_count=10)


def test_kms_check_fails_without_gauge_factor(odo22, monkeypatch):
    monkeypatch.setattr(kms, "_gauge_factor", lambda state, key: 1)
    report = verify_kms(make_kms_state(odo22), sample_count=10)
    assert not report.ok
    assert report.max_deviation == 0.75


def test_restricted_diagonal_matches_perron_state(odo22, odo23, kat21,
                                                  kat2v):
    for system in (odo22, odo23, kat21, kat2v):
        state = make_kms_state(system)
        report = restrict_to_diagonal(state)
        assert report.ok
        assert report.max_deviation < 1e-9


@pytest.mark.parametrize("name,field,value,deviation", [
    # each first-colour edge weighs 1/3, and 2/3 != 1 at the one vertex
    ("odo22", "rho", (3.0, 2.0), 1 / 3),
    # the one vertex keeps the Cuntz-Krieger relation but weighs 0.7
    ("kat21", "x", (0.7, 0.3), 0.3),
    # (2 * 0.7 + 0.3) / 3 = 17/30 at v0, against 0.7
    ("kat2v", "x", (0.7, 0.3), 2 / 15)])
def test_restricted_diagonal_detects_wrong_perron_data(name, field, value,
                                                       deviation, request):
    state = make_kms_state(request.getfixturevalue(name))
    broken = state._replace(data=state.data._replace(**{field: value}))
    report = restrict_to_diagonal(broken)
    assert not report.ok
    assert report.max_deviation == pytest.approx(deviation)


# -- simplex verdicts ----------------------------------------------------

def test_simplex_summaries(odo22, odo23, kat21, swap_system):
    unique = simplex_summary(odo23)
    assert unique.exists and unique.rank == 0
    assert unique.verdict == "unique KMS state"

    kat = simplex_summary(kat21)
    assert kat.verdict == "unique KMS state"

    torus = simplex_summary(odo22)
    assert torus.exists and torus.rank == 1
    assert "1-torus" in torus.verdict
    assert torus.basis == ((1, -1),)

    state = make_kms_state(odo22)
    assert (torus.exists, torus.rank, torus.basis, torus.verdict) == (
        state.exists, state.rank, state.basis, state.verdict)

    empty = simplex_summary(swap_system)
    assert not empty.exists
    assert empty.verdict == "empty"
    assert empty.rank is None
    assert empty.lattice is None
