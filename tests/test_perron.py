import itertools
import math

import pytest

from ssgraph.errors import NotStronglyConnected
from ssgraph.intlattice import lattice_contains
from ssgraph.kgraph import Edge, KGraph
from ssgraph.models import build_katsura
from ssgraph.perron import check_g_invariance, pf_state_value, \
    rho_kernel_lattice, rho_power_is_one, spectral_data

from tests.conftest import make_fibonacci_graph

GOLDEN = (1 + math.sqrt(5)) / 2


def all_small_degrees(k, bound=2):
    return list(itertools.product(range(bound + 1), repeat=k))


def test_single_vertex_radii(odo23):
    data = spectral_data(odo23.graph)
    assert data.rho == pytest.approx((2.0, 3.0), abs=1e-12)
    assert data.x == pytest.approx((1.0,), abs=1e-12)
    assert data.rho_int == (2, 3)


def test_loop_graph_radius():
    graph = KGraph(1, 1, [[Edge(i, 0, 0, 0) for i in range(5)]], {})
    data = spectral_data(graph)
    assert data.rho == pytest.approx((5.0,), abs=1e-12)
    assert data.rho_int == (5,)


def test_fibonacci_spectrum(fibonacci_graph):
    data = spectral_data(fibonacci_graph)
    assert abs(data.rho[0] - GOLDEN) < 1e-9
    # closed-form eigenvector (phi, 1) scaled to unit l1 norm
    assert abs(data.x[0] - GOLDEN / (GOLDEN + 1)) < 1e-9
    assert abs(data.x[1] - 1 / (GOLDEN + 1)) < 1e-9
    assert data.rho_int is None


@pytest.mark.parametrize("graph, fields", [
    (make_fibonacci_graph(),
     ("(1.618033988749859,)", "(0.6180339887498588, 0.3819660112501411)",
      "(1.609823385706477e-13,)", "15", "None")),
    (build_katsura([[3, 1], [1, 2]], [[-2, 1], [1, 1]]).graph,
     ("(3.6180339887496915,)", "(0.618033988749692, 0.38196601125030794)",
      "(9.072742557236779e-13,)", "41", "None")),
    (build_katsura([[4, 3, 2], [2, 3, 2], [0, 2, 4]],
                   [[4, 3, 2], [2, 3, 2], [0, 2, 4]]).graph,
     ("(7.0838723594357464,)",
      "(0.4580638202821272, 0.3287379947901163, 0.21319818492775658)",
      "(6.925571227611726e-13,)", "43", "None")),
], ids=["fibonacci", "katsura-31-12", "katsura-3x3"])
def test_spectral_data_bits_are_pinned(graph, fields):
    # every sum runs left to right from 0.0; another order (a BLAS
    # kernel, or the compensated built-in sum of Python 3.12) moves bits.
    # Two-term sums do not depend on the order, so the third graph, with
    # three vertices, is the one that sees it.
    data = spectral_data(graph)
    assert tuple(map(repr, (data.rho, data.x, data.residuals,
                            data.iterations, data.rho_int))) == fields


def test_residuals_small_on_builtins(odo22, odo23, odo24, odo623, kat21,
                                     kat32, fibonacci_graph):
    graphs = [s.graph for s in (odo22, odo23, odo24, odo623, kat21, kat32)]
    graphs.append(fibonacci_graph)
    for graph in graphs:
        data = spectral_data(graph)
        assert all(r < 1e-9 for r in data.residuals)
        assert abs(sum(data.x) - 1.0) < 1e-12
        assert all(v > 0 for v in data.x)


def test_rho_power_is_multiplicative(odo24, fibonacci_graph):
    for graph in (odo24.graph, fibonacci_graph):
        data = spectral_data(graph)
        k = graph.k
        for p in all_small_degrees(k):
            for q in all_small_degrees(k):
                combined = tuple(a + b for a, b in zip(p, q))
                assert data.rho_power(combined) == pytest.approx(
                    data.rho_power(p) * data.rho_power(q), rel=1e-12)


def test_state_values_sum_to_one(odo22, odo23, odo623, kat21, fibonacci_graph):
    systems = [(s.graph, spectral_data(s.graph))
               for s in (odo22, odo23, odo623, kat21)]
    systems.append((fibonacci_graph, spectral_data(fibonacci_graph)))
    for graph, data in systems:
        for n in all_small_degrees(graph.k):
            total = sum(pf_state_value(data, mu)
                        for mu in graph.paths_of_degree(n))
            assert abs(total - 1.0) < 1e-9


def test_fibonacci_loop_state_value(fibonacci_graph):
    data = spectral_data(fibonacci_graph)
    loop = fibonacci_graph.path([fibonacci_graph.edge(0, 0)])
    assert abs(pf_state_value(data, loop) - 0.3819660) < 1e-6


def test_invariance_on_builtins(odo22, kat32):
    for system in (odo22, kat32):
        data = spectral_data(system.graph)
        assert check_g_invariance(data, system)


def test_swap_declaration_breaks_invariance(swap_system):
    data = spectral_data(swap_system.graph)
    assert data.x[0] != pytest.approx(data.x[1], abs=1e-3)
    assert not check_g_invariance(data, swap_system)


def test_rho_kernel_examples(odo22, odo23, odo24, odo623):
    assert rho_kernel_lattice(spectral_data(odo23.graph)) == ()
    assert rho_kernel_lattice(spectral_data(odo22.graph)) == ((1, -1),)
    assert rho_kernel_lattice(spectral_data(odo24.graph)) == ((2, -1),)
    assert rho_kernel_lattice(spectral_data(odo623.graph)) == \
        ((1, -1, -1),)


def test_rho_kernel_contains_only_true_relations(odo24, fibonacci_graph):
    # the golden ratio has no integer certificate, so rho_power_is_one
    # takes its logarithm branch on the Fibonacci graph
    cases = ((odo24.graph, lambda z: 2 ** z[0] * 4 ** z[1] == 1),
             (fibonacci_graph, lambda z: not any(z)))
    for graph, is_one in cases:
        data = spectral_data(graph)
        if data.rho_int is None:
            # without the certificate there is no exact kernel
            with pytest.raises(ValueError):
                rho_kernel_lattice(data)
        else:
            basis = rho_kernel_lattice(data)
        for z in itertools.product(range(-4, 5), repeat=graph.k):
            if data.rho_int is not None:
                assert lattice_contains(basis, z) == is_one(z)
            assert rho_power_is_one(data, z) == is_one(z)


def test_requires_strong_connectivity():
    two_loops = KGraph(1, 2, [[Edge(0, 0, 0, 0), Edge(1, 0, 1, 1)]], {})
    with pytest.raises(NotStronglyConnected):
        spectral_data(two_loops)


def test_periodic_skeleton_converges():
    # a pure 2-cycle has period-2 adjacency powers; the shifted
    # iteration must still settle on rho = 1
    cycle = KGraph(1, 2, [[Edge(0, 0, 1, 0), Edge(1, 0, 0, 1)]], {})
    data = spectral_data(cycle)
    assert data.rho == pytest.approx((1.0,), abs=1e-9)
    assert data.x == pytest.approx((0.5, 0.5), abs=1e-9)
    assert data.rho_int == (1,)
