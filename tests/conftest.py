from pathlib import Path

import pytest

from ssgraph.action import ActionCaps, ActionSystem, GeneratorTable
from ssgraph.cli import parse_model
from ssgraph.kgraph import Edge, KGraph
from ssgraph.models import build_katsura, build_odometer

MODELS = Path(__file__).resolve().parent.parent / "bench" / "models"
BENCH_MODELS = ("grigorchuk", "basilica", "adding_machine")


def bench_model(name, caps=None):
    """A fresh system on the tables of a stress model in bench/models."""
    _, system = parse_model((MODELS / f"{name}.json").read_text(),
                            validate=False)
    return ActionSystem(system.graph, system.generators, caps)


@pytest.fixture(scope="session")
def odo22():
    return build_odometer((2, 2))


@pytest.fixture(scope="session")
def odo23():
    return build_odometer((2, 3))


@pytest.fixture(scope="session")
def odo24():
    return build_odometer((2, 4))


@pytest.fixture(scope="session")
def odo623():
    return build_odometer((6, 2, 3))


@pytest.fixture(scope="session")
def kat21():
    return build_katsura([[2]], [[1]])


@pytest.fixture(scope="session")
def kat2v():
    """The 2-vertex Katsura pair of the benchmark's katsura-kms job."""
    return build_katsura([[2, 1], [1, 2]], [[1, 1], [1, 1]])


@pytest.fixture(scope="session")
def kat32():
    return build_katsura([[3]], [[2]])


def make_fibonacci_graph() -> KGraph:
    """1-graph with vertex matrix [[1,1],[1,0]]: a loop at v0, an edge
    each way between v0 and v1."""
    edges = [[Edge(0, 0, 0, 0), Edge(1, 0, 1, 0), Edge(2, 0, 0, 1)]]
    return KGraph(1, 2, edges, {}, vertex_names=("v0", "v1"))


@pytest.fixture(scope="session")
def fibonacci_graph():
    return make_fibonacci_graph()


@pytest.fixture(scope="session")
def swap_system(fibonacci_graph):
    # deliberately broken: declares the vertex swap although the graph
    # is not symmetric, so the eigenvector cannot be invariant; only
    # the vertex map is ever read on this fixture
    table = GeneratorTable(
        "swap", (1, 0),
        {(0, 0): 0, (0, 1): 1, (0, 2): 2},
        {(0, 0): (), (0, 1): (), (0, 2): ()})
    return ActionSystem(fibonacci_graph, (table,))


def make_loops_graph(num_loops: int) -> KGraph:
    edges = [[Edge(i, 0, 0, 0) for i in range(num_loops)]]
    return KGraph(1, 1, edges, {})


@pytest.fixture(scope="session")
def trivial_lonely_system():
    # single generator that acts as the identity everywhere
    table = GeneratorTable("t", (0,), {(0, 0): 0, (0, 1): 1},
                           {(0, 0): (), (0, 1): ()})
    return ActionSystem(make_loops_graph(2), (table,))


@pytest.fixture(scope="session")
def trivial_extension_system():
    # binary adding machine plus an extra generator acting as identity
    plus = GeneratorTable("+1", (0,), {(0, 0): 1, (0, 1): 0},
                          {(0, 0): (), (0, 1): (1,)})
    extra = GeneratorTable("e", (0,), {(0, 0): 0, (0, 1): 1},
                           {(0, 0): (), (0, 1): ()})
    return ActionSystem(make_loops_graph(2), (plus, extra))


@pytest.fixture(scope="session")
def partial_fix_system():
    # fixes loop 0 with trivial restriction while swapping the others,
    # so the fixing search has a real witness to find
    table = GeneratorTable("s", (0,), {(0, 0): 0, (0, 1): 2, (0, 2): 1},
                           {(0, 0): (), (0, 1): (), (0, 2): ()})
    return ActionSystem(make_loops_graph(3), (table,))


@pytest.fixture(scope="session")
def self_restrict_system():
    # every restriction is the generator itself
    table = GeneratorTable("s", (0,), {(0, 0): 1, (0, 1): 0},
                           {(0, 0): (1,), (0, 1): (1,)})
    return ActionSystem(make_loops_graph(2), (table,))


@pytest.fixture(scope="session")
def locally_blind_system():
    """Acts as the identity on everything reachable from v0 while
    swapping two loops at v1, so it fixes v0's paths without being
    the identity."""
    edges = [[Edge(0, 0, 0, 0), Edge(1, 0, 1, 0),
              Edge(2, 0, 0, 1), Edge(3, 0, 1, 1), Edge(4, 0, 1, 1)]]
    graph = KGraph(1, 2, edges, {})
    table = GeneratorTable(
        "s", (0, 1),
        {(0, 0): 0, (0, 1): 1, (0, 2): 2, (0, 3): 4, (0, 4): 3},
        {(0, 0): (1,), (0, 1): (), (0, 2): (), (0, 3): (), (0, 4): ()})
    return ActionSystem(graph, (table,))


@pytest.fixture(scope="session")
def flip_square_system():
    """The trivial group on the 1-vertex 2-graph with two loops per
    colour and squares (s, t) -> (t, s).  Its radii are (2, 2), so the
    kernel is Z(1, -1), but (1, -1) has no cycline triple: the kernel
    path cannot settle the lattice and the box scan runs."""
    edges = [[Edge(i, color, 0, 0) for i in range(2)] for color in range(2)]
    squares = {(0, 1): {(s, t): (t, s) for s in range(2) for t in range(2)}}
    return ActionSystem(KGraph(2, 1, edges, squares), ())


@pytest.fixture()
def capped_odometer_tables():
    plus = GeneratorTable("+1", (0,), {(0, 0): 1, (0, 1): 0},
                          {(0, 0): (), (0, 1): (1,)})
    return ActionSystem(make_loops_graph(2), (plus,),
                        caps=ActionCaps(max_closure=1))


@pytest.fixture(scope="session")
def word_odometer22():
    """A second system on the generator tables of the (2,2) odometer,
    with memos and class representatives of its own."""
    odometer = build_odometer((2, 2))
    return ActionSystem(odometer.graph, odometer.generators)
