"""End-to-end acceptance checks.

One numbered criterion per test; each prints a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -s`` to see them all).
Expected values come from closed forms or independent oracles, never
from the code under test.
"""
import itertools
import math
import random
import time

from ssgraph.action import check_degenerate_property, \
    check_locally_faithful, check_pseudo_free, restriction_graph
from ssgraph.algebra import adjoint, element, elements_equal, expectation, \
    identity_element, max_deviation, monomial, multiply, \
    is_central_on_generators, periodicity_unitary
from ssgraph.kms import character_trace, evaluate, make_kms_state, \
    simplex_summary, verify_kms
from ssgraph.models import expected_odometer_per, gamma_bijection
from ssgraph.intlattice import lattice_contains
from ssgraph.periodicity import is_cycline, periodicity_group
from ssgraph.perron import pf_state_value, rho_kernel_lattice, spectral_data

from tests.conftest import make_fibonacci_graph


def report(num, label, failures):
    status = "FAIL" if failures else "PASS"
    print(f"criterion {num} ({label}): {status}")
    assert not failures, f"criterion {num} ({label}): {failures}"


def closure_of(system):
    return system.restriction_closure(
        [system.identity]
        + [system.generator_element(g.name) for g in system.generators])


def random_elements(system, rng, count, size=4):
    graph = system.graph
    ball = system.word_ball(1)
    degrees = [tuple(d) for d in itertools.product((0, 1), repeat=graph.k)]
    out = []
    for _ in range(count):
        entries = []
        for _ in range(size):
            mu = rng.choice(graph.paths_of_degree(rng.choice(degrees)))
            nu = rng.choice(graph.paths_of_degree(rng.choice(degrees)))
            g = rng.choice(ball)
            if system.act_vertex(g, nu.source) != mu.source:
                continue
            entries.append((mu, g, nu,
                            complex(rng.uniform(-1, 1), rng.uniform(-1, 1))))
        out.append(element(system, entries))
    return out


def test_criterion_1_odometer_periodicity(odo22, odo23, odo24, odo623):
    failures = []
    for system in (odo22, odo23, odo24, odo623):
        start = time.perf_counter()
        lattice = periodicity_group(system, box_radius=4, ball_radius=0)
        elapsed = time.perf_counter() - start
        expected = expected_odometer_per(system.n, 4)
        if lattice.basis != expected:
            failures.append(f"{system.n}: basis {lattice.basis} "
                            f"!= {expected}")
        if elapsed >= 10:
            failures.append(f"{system.n}: took {elapsed:.1f}s")
    report(1, "odometer periodicity lattices", failures)


def test_criterion_2_cross_oracle_cycline(odo24):
    failures = []
    start = time.perf_counter()
    p, q = (2, 0), (0, 1)
    gamma = gamma_bijection(odo24, p, q)
    if len(gamma) != 4:
        failures.append(f"expected 4 pairs, got {len(gamma)}")
    for mu in odo24.graph.paths_of_degree(p):
        for nu in odo24.graph.paths_of_degree(q):
            verdict = is_cycline(odo24, mu, odo24.identity, nu).verdict
            if verdict != (gamma.get(mu) == nu):
                failures.append(f"{mu} vs {nu}: verdict {verdict}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5:
        failures.append(f"took {elapsed:.1f}s")
    report(2, "value-preserving pairs are exactly the cycline ones",
           failures)


def test_criterion_3_perron_data(odo22, odo23, odo24, odo623, kat21, kat32):
    failures = []
    phi = (1 + math.sqrt(5)) / 2
    data = spectral_data(make_fibonacci_graph())
    if abs(data.rho[0] - phi) > 1e-9:
        failures.append(f"fibonacci rho {data.rho[0]}")
    expected_x = (phi / (phi + 1), 1 / (phi + 1))
    if any(abs(a - b) > 1e-9 for a, b in zip(data.x, expected_x)):
        failures.append(f"fibonacci x {data.x}")
    for system in (odo22, odo23, odo24, odo623, kat21, kat32):
        sys_data = spectral_data(system.graph)
        if max(sys_data.residuals) >= 1e-9:
            failures.append(f"{system.graph.k}-graph residuals "
                            f"{sys_data.residuals}")
        k = system.graph.k
        for degree in itertools.product(range(3), repeat=k):
            total = sum(pf_state_value(sys_data, mu)
                        for mu in system.graph.paths_of_degree(degree))
            if abs(total - 1) > 1e-9:
                failures.append(f"degree {degree}: mass {total}")
    report(3, "spectral radii, eigenvectors, and path-mass sums", failures)


def test_criterion_4_periodicity_unitary(odo22):
    failures = []
    v = periodicity_unitary(odo22, (1, 0), (0, 1))
    one = identity_element(odo22)
    if not v.exact:
        failures.append("V is not exact")
    if not elements_equal(multiply(v, adjoint(v)), one):
        failures.append("V V* != 1")
    if not elements_equal(multiply(adjoint(v), v), one):
        failures.append("V* V != 1")
    if not is_central_on_generators(odo22, v):
        failures.append("V is not central")
    squared = periodicity_unitary(odo22, (2, 0), (0, 2))
    if not elements_equal(multiply(v, v), squared):
        failures.append("V*V != V at doubled degrees")
    report(4, "central periodicity unitary", failures)


def test_criterion_5_kms_identity(odo22, odo23):
    failures = []
    runs = (
        ("balanced haar", make_kms_state(odo22)),
        ("balanced character",
         make_kms_state(odo22, trace=character_trace([0.3]))),
        ("coprime haar", make_kms_state(odo23)),
    )
    for label, state in runs:
        start = time.perf_counter()
        result = verify_kms(state, sample_count=500)
        elapsed = time.perf_counter() - start
        if not result.ok or result.max_deviation >= 1e-9:
            failures.append(f"{label}: deviation {result.max_deviation}")
        if elapsed >= 60:
            failures.append(f"{label}: took {elapsed:.1f}s")
    report(5, "equilibrium identity over monomial pairs", failures)


def test_criterion_6_classification_endpoints(odo22, odo23, kat21,
                                              swap_system):
    failures = []
    summaries = {
        "coprime odometer": simplex_summary(odo23),
        "katsura": simplex_summary(kat21),
        "balanced odometer": simplex_summary(odo22),
        "vertex swap": simplex_summary(swap_system),
    }
    for label, summary in summaries.items():
        unique = summary.verdict == "unique KMS state"
        if unique != (summary.rank == 0):
            failures.append(f"{label}: verdict/rank mismatch")
    if summaries["coprime odometer"].verdict != "unique KMS state":
        failures.append("coprime odometer not unique")
    if summaries["katsura"].verdict != "unique KMS state":
        failures.append("katsura not unique")
    if summaries["balanced odometer"].rank != 1:
        failures.append("balanced odometer rank != 1")
    if summaries["vertex swap"].exists or \
            summaries["vertex swap"].verdict != "empty":
        failures.append("vertex swap simplex not empty")
    report(6, "state-space classification endpoints", failures)


def test_criterion_7_hypothesis_validators(odo22, odo23, odo24, odo623,
                                           kat21, kat32,
                                           trivial_lonely_system,
                                           trivial_extension_system):
    failures = []
    for system in (odo22, odo23, odo24, odo623, kat21, kat32):
        states = closure_of(system)
        if len(states) != 2:
            failures.append(f"closure size {len(states)}")
        arcs = restriction_graph(system)
        if not check_pseudo_free(system, arcs).ok:
            failures.append("pseudo-free check failed on a built-in")
        if not check_locally_faithful(system, arcs).ok:
            failures.append("local-faithfulness check failed on a built-in")
        if not check_degenerate_property(system, arcs):
            failures.append("degenerate property missing on a built-in")
    lonely = check_pseudo_free(trivial_lonely_system,
                               restriction_graph(trivial_lonely_system))
    if lonely.ok or not lonely.detail:
        failures.append("trivial lone generator not caught")
    extension = check_locally_faithful(
        trivial_extension_system, restriction_graph(trivial_extension_system))
    if extension.ok or not extension.detail:
        failures.append("trivial extension generator not caught")
    report(7, "hypothesis validators and counterexamples", failures)


def test_criterion_8_structural_identities(odo22, odo23, odo24):
    failures = []
    rng = random.Random(97)
    checked = 0
    for system in (odo22, odo23):
        state = make_kms_state(system)
        for a in random_elements(system, rng, 100):
            expected = expectation(system, a)
            if expectation(system, expected).terms != expected.terms:
                failures.append("expectation is not idempotent")
            if abs(evaluate(state, a) - evaluate(state, expected)) >= 1e-9:
                failures.append("state does not factor through expectation")
            checked += 1
    if checked != 200:
        failures.append(f"only {checked} random elements checked")

    v1 = periodicity_unitary(odo22, (1, 0), (0, 1))
    v2 = periodicity_unitary(odo22, (2, 0), (0, 2))
    if not elements_equal(multiply(v1, v1), v2):
        failures.append("unitary composition law fails on balanced machine")
    w1 = periodicity_unitary(odo24, (2, 0), (0, 1))
    w2 = periodicity_unitary(odo24, (4, 0), (0, 2))
    if not elements_equal(multiply(w1, w1), w2):
        failures.append("unitary composition law fails on mixed machine")

    pairs = list(gamma_bijection(odo22, (1, 0), (0, 1)).items()) \
        + list(gamma_bijection(odo22, (2, 0), (0, 2)).items()) \
        + list(gamma_bijection(odo24, (2, 0), (0, 1)).items())
    systems = [odo22] * 6 + [odo24] * 4
    for system, (mu, nu) in zip(systems, pairs):
        left = monomial(system, mu, system.identity, mu)
        right = monomial(system, nu, system.identity, nu)
        if not elements_equal(left, right):
            failures.append(f"range projections differ for {mu} and {nu}")
    report(8, "expectation and cycline projection identities", failures)


def test_criterion_9_lattice_containment(odo22, odo23, odo24, odo623,
                                         kat21, kat32):
    failures = []
    for system in (odo22, odo23, odo24, odo623, kat21, kat32):
        data = spectral_data(system.graph)
        kernel = rho_kernel_lattice(data)
        lattice = periodicity_group(system, box_radius=4, ball_radius=3,
                                    perron_data=data)
        for vector in lattice.basis:
            if not lattice_contains(kernel, vector):
                failures.append(f"{vector} escapes the spectral kernel")
    report(9, "periodicity basis sits inside the spectral kernel", failures)
