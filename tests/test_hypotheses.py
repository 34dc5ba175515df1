"""The hypothesis checks over the restriction graph: deep restriction
chains, and invariance of the verdicts under relabelling a model."""
import random

import pytest

from ssgraph.action import ActionSystem, GeneratorTable, \
    check_degenerate_property, check_locally_faithful, check_pseudo_free, \
    restriction_graph, validate_action
from ssgraph.cli import emit_model, parse_model, run_analysis
from ssgraph.kgraph import Edge, KGraph
from ssgraph.models import build_katsura, build_odometer

from tests.conftest import BENCH_MODELS, bench_model, make_loops_graph


def chain_system(n):
    """Generators a_1..a_n on two loops: each a_i swaps the loops and
    restricts to a_{i+1} on both, and a_n restricts to the identity."""
    tables = []
    for i in range(1, n + 1):
        word = (i + 1,) if i < n else ()
        tables.append(GeneratorTable(f"a{i}", (0,), {(0, 0): 1, (0, 1): 0},
                                     {(0, 0): word, (0, 1): word}))
    return ActionSystem(make_loops_graph(2), tables)


def test_chain_passes_hypotheses():
    system = chain_system(10)
    assert validate_action(system).ok
    states = system.generator_closure()
    assert len(states) == 11
    arcs = restriction_graph(system)
    assert check_pseudo_free(system, arcs).ok
    assert check_locally_faithful(system, arcs).ok


@pytest.mark.parametrize("n", [9, 10])
def test_chain_reaches_the_identity_at_any_depth(n):
    # a_1 needs n restrictions to reach the identity
    system = chain_system(n)
    assert check_degenerate_property(system, restriction_graph(system)) \
        is True
    report = run_analysis(system.graph, system)
    assert report["hypotheses"]["degenerate"] is True


def test_restrictions_follow_edges_to_their_source():
    # s fixes the edge f from v1 into v0 with restriction s, and swaps
    # the loops at v1: it moves the path f.h1 into v0, so it is not
    # blind at v0 although it fixes the one edge into v0
    edges = [[Edge(0, 0, 1, 0), Edge(1, 0, 0, 1),
              Edge(2, 0, 1, 1), Edge(3, 0, 1, 1)]]
    table = GeneratorTable("s", (0, 1),
                           {(0, 0): 0, (0, 1): 1, (0, 2): 3, (0, 3): 2},
                           {(0, 0): (1,), (0, 1): (), (0, 2): (), (0, 3): ()})
    system = ActionSystem(KGraph(1, 2, edges, {}), (table,))
    assert validate_action(system).ok
    arcs = restriction_graph(system)
    assert check_locally_faithful(system, arcs).ok
    verdict = check_pseudo_free(system, arcs)
    assert [e.id for e in verdict.witness_path] == [1]
    assert check_degenerate_property(system, arcs) is True


# -- relabelling a model changes no verdict ------------------------------

def permuted(doc, rng):
    """The document with its vertices relabelled and its edge ids
    permuted within each colour: the same action, presented anew."""
    vertex = list(range(len(doc["vertices"])))
    rng.shuffle(vertex)
    ids = {}
    for color in range(1, doc["k"] + 1):
        old = sorted(e["id"] for e in doc["edges"] if e["color"] == color)
        new = list(old)
        rng.shuffle(new)
        ids[color] = dict(zip(old, new))
    names = [None] * len(vertex)
    for old, new in enumerate(vertex):
        names[new] = doc["vertices"][old]
    edges = [{"id": ids[e["color"]][e["id"]], "color": e["color"],
              "source": vertex[e["source"]], "range": vertex[e["range"]]}
             for e in doc["edges"]]
    squares = [{"i": s["i"], "j": s["j"], "f": ids[s["i"]][s["f"]],
                "g": ids[s["j"]][s["g"]], "gPrime": ids[s["j"]][s["gPrime"]],
                "fPrime": ids[s["i"]][s["fPrime"]]} for s in doc["squares"]]
    generators = [{"name": gen["name"], "edgeAction": [
        {"color": r["color"], "edge": ids[r["color"]][r["edge"]],
         "image": [r["color"], ids[r["color"]][r["image"][1]]],
         "restrictionWord": r["restrictionWord"]}
        for r in gen["edgeAction"]]} for gen in doc["generators"]]
    return dict(doc, vertices=names, edges=edges, squares=squares,
                generators=generators)


VERDICTS = ("closureSize", "finiteState", "pseudoFree", "locallyFaithful",
            "degenerate")
WITNESSES = ("pseudoFreeWitness", "locallyFaithfulWitness")


BUILT = {
    "odo22": lambda: build_odometer((2, 2)),
    "odo623": lambda: build_odometer((6, 2, 3)),
    "kat2": lambda: build_katsura([[2, 1], [1, 2]], [[1, 1], [1, 1]]),
    **{name: lambda name=name: bench_model(name) for name in BENCH_MODELS},
}


@pytest.mark.parametrize("name", [
    *BUILT, "partial_fix_system", "locally_blind_system"])
def test_hypotheses_survive_relabelling(name, request):
    system = BUILT[name]() if name in BUILT \
        else request.getfixturevalue(name)
    doc = emit_model(system.graph, system)
    expected = run_analysis(*parse_model(doc))["hypotheses"]
    assert all(key in expected for key in VERDICTS)
    for seed in range(5):
        graph, moved = parse_model(permuted(doc, random.Random(seed)))
        got = run_analysis(graph, moved)["hypotheses"]
        assert {key: got[key] for key in VERDICTS} \
            == {key: expected[key] for key in VERDICTS}
        assert [key in got for key in WITNESSES] \
            == [key in expected for key in WITNESSES]
