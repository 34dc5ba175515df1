import functools
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from ssgraph.action import ActionCaps, ActionSystem, GeneratorTable, \
    check_locally_faithful, check_pseudo_free, restriction_graph, \
    validate_action
from ssgraph.errors import ClosureExceeded, PreconditionViolated, \
    ValidationReport
from ssgraph.kgraph import Edge, KGraph, add_degrees
from ssgraph.models import BUILTIN_KATSURA, BUILTIN_ODOMETERS, \
    KatsuraSystem, build_katsura, build_odometer, degree_weight, \
    odometer_path, odometer_value

from tests.conftest import bench_model


def closure_of(system):
    gens = [system.generator_element(g.name) for g in system.generators]
    return system.restriction_closure([system.identity] + gens)


def random_paths(graph, rng, count, max_degree):
    degrees = []
    for a in range(max_degree[0] + 1):
        rest = [range(m + 1) for m in max_degree[1:]]
        if rest:
            import itertools
            for tail in itertools.product(*rest):
                degrees.append((a,) + tail)
        else:
            degrees.append((a,))
    out = []
    for _ in range(count):
        d = rng.choice(degrees)
        out.append(rng.choice(graph.paths_of_degree(d)))
    return out


# -- group arithmetic ----------------------------------------------------

def _odometer_closed_form(system, m, e):
    """Image id and carry of ``m`` on an odometer edge: ``s + m`` with
    carry in base ``n[color]``."""
    size = system.n[e.color]
    return (e.id + m) % size, (e.id + m) // size


def _katsura_closed_form(system, m, e):
    """Image id and carry of ``m`` on the Katsura edge (v, w, j): with
    ``m*B[v][w] + j = h*T[v][w] + r``, it goes to (v, w, r) and
    restricts to h."""
    v, w, j = system.triples[e.id]
    h, r = divmod(m * system.b_matrix[v][w] + j, system.t_matrix[v][w])
    return system.triples.index((v, w, r)), h


def test_word_and_integer_engines_agree():
    # the word engine against the closed forms of the integer action
    minus_one = build_katsura([[2]], [[-1]])
    assert (-1,) in minus_one.generators[0].restrict.values()
    systems = [build_odometer(n) for n in BUILTIN_ODOMETERS]
    systems += [build_katsura(t, b) for t, b in BUILTIN_KATSURA]
    systems += [build_katsura([[2, 1], [1, 2]], [[1, 1], [1, 1]]), minus_one]
    for system in systems:
        closed_form = _katsura_closed_form \
            if isinstance(system, KatsuraSystem) else _odometer_closed_form
        for m in range(-6, 7):
            g = system.element(m)
            for e in (e for row in system.graph.edges for e in row):
                image, carry = closed_form(system, m, e)
                assert system.act_edge(g, e) == system.graph.edge(e.color,
                                                                  image)
                assert system.restrict_edge(g, e) == system.element(carry)


def test_doubling_word_is_not_identity_on_binary_machine():
    from tests.conftest import make_loops_graph
    from ssgraph.action import GeneratorTable
    plus = GeneratorTable("+1", (0,), {(0, 0): 1, (0, 1): 0},
                          {(0, 0): (), (0, 1): (1,)})
    system = ActionSystem(make_loops_graph(2), (plus,))
    one = system.generator_element("+1")
    two = system.multiply(one, one)
    assert system.equal(two, system.element_from_word((1, 1)))
    # +2 fixes every edge but restricts to +1, so it never reaches the
    # identity-with-identity-restrictions state
    assert not system.is_identity(two)
    assert not system.equal(two, system.identity)


def _letter_on_edge(system, letter, ce):
    """Image id and restriction word of one signed letter on ``ce``,
    read from the generator's table: g^-1.e is the e' with g.e' = e,
    and g^-1|e = (g|e')^-1."""
    gen = system.generators[abs(letter) - 1]
    if letter > 0:
        return gen.act[ce], gen.restrict[ce]
    (pre,) = [c for c, image in gen.act.items() if (c[0], image) == ce]
    return pre[1], tuple(-x for x in reversed(gen.restrict[pre]))


def _free_reduce(word):
    out = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _walk(system, word, ce):
    """Image id and reduced restriction of a raw word on ``ce``: the
    word acts letter by letter, rightmost first, and its restriction is
    the product of the letters' restrictions along the way."""
    color, eid = ce
    pieces = []
    for letter in reversed(word):
        eid, res = _letter_on_edge(system, letter, (color, eid))
        pieces.append(res)
    return eid, _free_reduce(x for res in reversed(pieces) for x in res)


def _vertex_image(system, word, v):
    for letter in reversed(word):
        vertex_map = system.generators[abs(letter) - 1].vertex_map
        v = vertex_map[v] if letter > 0 else vertex_map.index(v)
    return v


def bisimilar(system, a, b):
    """Reference equality from the generator tables alone: a
    breadth-first search over pairs of raw words for a pair whose
    vertex or edge actions differ."""
    graph = system.graph
    edges = [(color, e.id) for color in range(graph.k)
             for e in graph.edges[color]]
    seen = set()
    queue = deque([(a, b)])
    while queue:
        pair = queue.popleft()
        pa, pb = pair
        if pa == pb or pair in seen:
            continue
        seen.add(pair)
        if any(_vertex_image(system, pa, v) != _vertex_image(system, pb, v)
               for v in range(graph.num_vertices)):
            return False
        for ce in edges:
            (image_a, res_a), (image_b, res_b) = \
                _walk(system, pa, ce), _walk(system, pb, ce)
            if image_a != image_b:
                return False
            queue.append((res_a, res_b))
    return True


@functools.cache
def word_system(name):
    """One shared word-engine system per table set, so memos carry
    over between examples as they do within one analysis.  "random" is
    a seeded system of the law test whose restriction words have up to
    two letters of three generators, so several letters of a word
    restrict nontrivially along one edge, in an order that matters; it
    validates, and the examples' words canonicalise, within the law
    test's caps."""
    if name == "odometer22":
        return build_odometer((2, 2))
    if name == "random":
        from tests.conftest import make_loops_graph
        graph = make_loops_graph(2)
        system = ActionSystem(graph, _random_tables(graph, random.Random(58)),
                              LAW_TEST_CAPS)
        assert validate_action(system).ok
        return system
    return bench_model(name)


@st.composite
def word_pairs(draw):
    name = draw(st.sampled_from(
        ["adding_machine", "basilica", "grigorchuk", "odometer22", "random"]))
    size = len(word_system(name).generators)
    letter = st.sampled_from([i for i in range(-size, size + 1) if i])
    word = st.lists(letter, max_size=7).map(tuple)
    return name, draw(word), draw(word)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(word_pairs())
def test_signature_equality_matches_pairwise_bisimulation(case):
    name, u, v = case
    system = word_system(name)
    g, h = system.element_from_word(u), system.element_from_word(v)
    assert system.equal(g, h) == bisimilar(system, u, v)
    # the representative acts as the word it stands for
    assert bisimilar(system, g.key, u) and bisimilar(system, h.key, v)
    # and so do its edge images and restrictions: restrictions composed
    # in the wrong order can leave every equality above as it is
    for color, row in enumerate(system.graph.edges):
        for e in row:
            image, res = _walk(system, u, (color, e.id))
            assert system.act_edge(g, e).id == image
            assert bisimilar(system, system.restrict_edge(g, e).key, res)


def test_grigorchuk_ball_sizes():
    system = bench_model("grigorchuk")
    sizes = [len(system.word_ball(r)) for r in range(9)]
    assert sizes == [1, 5, 11, 23, 40, 68, 108, 176, 271]


def test_identity_represents_its_class():
    system = bench_model("grigorchuk")
    # a^2 = b^2 = bcd = 1, none of them freely reducible to the empty word
    for word in ((1, 1), (2, 2), (2, 3, 4)):
        assert system.element_from_word(word).key == ()
    assert system.element_from_word((1,)).key == (1,)


def test_state_cap_names_cap_limit_and_reach():
    system = bench_model("grigorchuk", ActionCaps(max_pair_states=2))
    # a|_x is 1 for both edges; b's closure b, a, c is one state too many
    system.generator_element("a")
    with pytest.raises(ClosureExceeded) as err:
        system.generator_element("b")
    assert str(err.value) == ("restriction closure of b exceeds cap "
                              "max_pair_states=2 (reached 3 states)")
    with pytest.raises(ClosureExceeded):
        closure_of(bench_model("grigorchuk", ActionCaps(max_pair_states=2)))


def test_group_laws(odo23):
    rng = random.Random(5)
    ball = odo23.word_ball(3)
    for _ in range(50):
        a, b, c = (rng.choice(ball) for _ in range(3))
        left = odo23.multiply(odo23.multiply(a, b), c)
        right = odo23.multiply(a, odo23.multiply(b, c))
        assert odo23.equal(left, right)
        assert odo23.is_identity(odo23.multiply(a, odo23.inverse(a)))
        assert odo23.equal(odo23.multiply(odo23.identity, a), a)
        assert odo23.equal(odo23.multiply(a, odo23.identity), a)


def test_inverse_on_word_engine(word_odometer22):
    system = word_odometer22
    g = system.element_from_word((1, 1, 1))
    assert system.is_identity(system.multiply(g, system.inverse(g)))
    assert system.is_identity(system.multiply(system.inverse(g), g))


# -- action laws ---------------------------------------------------------

def test_action_respects_degree_and_endpoints(odo623):
    rng = random.Random(9)
    ball = odo623.word_ball(2)
    paths = random_paths(odo623.graph, rng, 30, (1, 1, 1))
    for mu in paths:
        g = rng.choice(ball)
        image = odo623.act_path(g, mu)
        assert image.degree == mu.degree
        assert image.range_vertex == odo623.act_vertex(g, mu.range_vertex)
        assert image.source == odo623.act_vertex(g, mu.source)


def test_cocycle_laws_on_random_paths(odo24):
    # g.(mu nu) = (g.mu)(g|_mu . nu) and g|_(mu nu) = (g|_mu)|_nu
    graph = odo24.graph
    rng = random.Random(13)
    ball = odo24.word_ball(2)
    for _ in range(40):
        g = rng.choice(ball)
        mu = rng.choice(graph.paths_of_degree((1, 1)))
        nu = rng.choice(graph.paths_of_degree((1, 0)))
        combined = graph.compose(mu, nu)
        left = odo24.act_path(g, combined)
        right = graph.compose(
            odo24.act_path(g, mu),
            odo24.act_path(odo24.restrict_path(g, mu), nu))
        assert left == right
        assert odo24.equal(
            odo24.restrict_path(g, combined),
            odo24.restrict_path(odo24.restrict_path(g, mu), nu))


def test_product_acts_as_composition(odo22):
    graph = odo22.graph
    rng = random.Random(17)
    ball = odo22.word_ball(2)
    for _ in range(40):
        g, h = rng.choice(ball), rng.choice(ball)
        mu = rng.choice(graph.paths_of_degree((2, 1)))
        gh = odo22.multiply(g, h)
        assert odo22.act_path(gh, mu) == \
            odo22.act_path(g, odo22.act_path(h, mu))
        # (gh)|_mu = g|_(h.mu) h|_mu
        left = odo22.restrict_path(gh, mu)
        right = odo22.multiply(
            odo22.restrict_path(g, odo22.act_path(h, mu)),
            odo22.restrict_path(h, mu))
        assert odo22.equal(left, right)


def _check_laws_on_edges(sys, elements, rep):
    """Reference check of laws (v) and (iii) on single edges over
    ``elements``, which the word engine meets by construction; the first
    failure goes into ``rep``."""
    graph = sys.graph
    edge_paths = [graph.path([e]) for row in graph.edges for e in row]
    for g in elements:
        for h in elements:
            gh = sys.multiply(g, h)
            for mu in edge_paths:
                left = sys.act_path(gh, mu)
                right = sys.act_path(g, sys.act_path(h, mu))
                if left != right:
                    rep.add(f"law (v) action fails for {sys.describe(g)}, "
                            f"{sys.describe(h)} on edge {mu.edges[0]}")
                    return
                r_left = sys.restrict_path(gh, mu)
                r_right = sys.multiply(
                    sys.restrict_path(g, sys.act_path(h, mu)),
                    sys.restrict_path(h, mu))
                if not sys.equal(r_left, r_right):
                    rep.add(f"law (v) restriction fails for {sys.describe(g)}, "
                            f"{sys.describe(h)} on edge {mu.edges[0]}")
                    return
    for g in elements:
        for e_path in edge_paths:
            e = e_path.edges[0]
            for color in range(graph.k):
                for f in graph.edges_from(e.source, color):
                    two = graph.compose(e_path, graph.path([f]))
                    r_joint = sys.restrict_path(g, two)
                    r_iter = sys.restrict_path(
                        sys.restrict_path(g, e_path), graph.path([f]))
                    if not sys.equal(r_joint, r_iter):
                        rep.add(f"law (iii) fails for {sys.describe(g)} on "
                                f"edges ({e.color},{e.id}),({f.color},{f.id})")
                        return


LAW_TEST_CAPS = ActionCaps(max_closure=200, max_word_length=16,
                           max_pair_states=200)


def _random_tables(graph, rng):
    """1-3 endpoint-respecting, bijective generator tables whose
    restriction words have at most 2 letters."""
    count = rng.randint(1, 3)
    letters = [i for i in range(-count, count + 1) if i]
    tables = []
    for idx in range(count):
        vertex_map = list(range(graph.num_vertices))
        rng.shuffle(vertex_map)
        act, restrict = {}, {}
        for color, row in enumerate(graph.edges):
            by_ends: dict = {}
            for e in row:
                by_ends.setdefault((e.range_vertex, e.source), []).append(e.id)
            for (r, s), ids in by_ends.items():
                images = list(by_ends[(vertex_map[r], vertex_map[s])])
                rng.shuffle(images)
                for eid, image in zip(ids, images):
                    act[(color, eid)] = image
                    restrict[(color, eid)] = tuple(
                        rng.choice(letters) for _ in range(rng.randint(0, 2)))
        tables.append(GeneratorTable(f"g{idx}", tuple(vertex_map), act,
                                     restrict))
    return tables


def test_tables_satisfy_laws_v_and_iii_by_construction():
    # a word acts letter by letter, so law (v) cannot fail, and law
    # (iii) fails only where the square check finds an incoherent square
    from tests.conftest import make_loops_graph
    two_vertices = KGraph(1, 2, [[Edge(0, 0, 0, 0), Edge(1, 0, 1, 1),
                                  Edge(2, 0, 1, 0), Edge(3, 0, 0, 1)]], {})
    graphs = [make_loops_graph(2), make_loops_graph(3), two_vertices,
              build_odometer((2, 2)).graph, build_odometer((2, 3)).graph]
    caps = LAW_TEST_CAPS
    rng = random.Random(19)
    checked = law_iii_failures = 0
    for trial in range(200):
        graph = graphs[trial % len(graphs)]
        system = ActionSystem(graph, _random_tables(graph, rng), caps)
        laws = ValidationReport()
        try:
            report = validate_action(system)
            gens = [system.generator_element(g.name)
                    for g in system.generators]
            _check_laws_on_edges(
                system, gens + [system.inverse(g) for g in gens], laws)
        except ClosureExceeded:
            continue
        checked += 1
        assert not any(p.startswith("law (v)") for p in laws.problems)
        if laws.problems:
            law_iii_failures += 1
            assert not report.ok
    assert checked >= 90 and law_iii_failures > 0


def test_identity_fixes_everything(odo23):
    for mu in odo23.graph.paths_of_degree((2, 2)):
        assert odo23.act_path(odo23.identity, mu) == mu
        assert odo23.is_identity(odo23.restrict_path(odo23.identity, mu))


def test_odometer_action_is_addition(odo23):
    # acting by +m on the degree box adds m to the mixed-radix value
    # and restricts to the carry
    rng = random.Random(21)
    for _ in range(60):
        degree = (rng.randint(0, 3), rng.randint(0, 3))
        weight = degree_weight(odo23.n, degree)
        value = rng.randint(0, weight - 1)
        m = rng.randint(-20, 20)
        mu = odometer_path(odo23, degree, value)
        g = odo23.element(m)
        image = odo23.act_path(g, mu)
        assert odometer_value(odo23, image) == (value + m) % weight
        carry = odo23.restrict_path(g, mu)
        assert odo23.equal(carry, odo23.element((value + m) // weight))


def test_generic_engine_matches_closed_form(odo22, word_odometer22):
    word = word_odometer22
    plus = word.generator_element("+1")
    for degree in ((1, 0), (0, 1), (1, 1), (2, 2)):
        for mu in odo22.graph.paths_of_degree(degree):
            value = odometer_value(odo22, mu)
            weight = degree_weight(odo22.n, degree)
            image = word.act_path(plus, mu)
            assert odometer_value(odo22, image) == (value + 1) % weight


# -- closures and hypothesis checks --------------------------------------

def test_restriction_closure_sizes(odo22, odo623, kat21, kat32):
    for system in (odo22, odo623, kat21, kat32):
        assert len(closure_of(system)) == 2


def test_closure_cap_raises(capped_odometer_tables):
    with pytest.raises(ClosureExceeded):
        closure_of(capped_odometer_tables)


def test_word_length_cap_raises():
    from tests.conftest import make_loops_graph
    from ssgraph.action import ActionCaps, GeneratorTable
    doubling = GeneratorTable("d", (0,), {(0, 0): 0, (0, 1): 1},
                              {(0, 0): (1, 1), (0, 1): ()})
    system = ActionSystem(make_loops_graph(2), (doubling,),
                          caps=ActionCaps(max_word_length=8))
    with pytest.raises(ClosureExceeded) as err:
        closure_of(system)
    assert str(err.value) == ("restriction word exceeds cap "
                              "max_word_length=8 (reached 16 letters)")


def test_hypotheses_hold_on_builtins(odo22, odo23, odo24, odo623, kat21,
                                     kat32):
    for system in (odo22, odo23, odo24, odo623, kat21, kat32):
        arcs = restriction_graph(system)
        assert check_pseudo_free(system, arcs).ok
        assert check_locally_faithful(system, arcs).ok


def test_trivial_generator_fails_both_checks(trivial_lonely_system):
    arcs = restriction_graph(trivial_lonely_system)
    verdict = check_pseudo_free(trivial_lonely_system, arcs)
    assert not verdict.ok
    assert verdict.witness_element == "t"
    assert verdict.witness_path is not None and len(verdict.witness_path) == 1
    assert not check_locally_faithful(trivial_lonely_system, arcs).ok


def test_trivial_extension_fails(trivial_extension_system):
    arcs = restriction_graph(trivial_extension_system)
    verdict = check_locally_faithful(trivial_extension_system, arcs)
    assert not verdict.ok
    assert verdict.witness_element == "e"


def test_partial_fix_found_by_search(partial_fix_system):
    # the generator is genuinely nontrivial, so the fixing-graph search
    # itself must produce the witness
    arcs = restriction_graph(partial_fix_system)
    verdict = check_pseudo_free(partial_fix_system, arcs)
    assert not verdict.ok
    assert verdict.witness_path is not None
    assert [e.id for e in verdict.witness_path] == [0]
    assert check_locally_faithful(partial_fix_system, arcs).ok


def test_locally_blind_fails_fixpoint(locally_blind_system):
    arcs = restriction_graph(locally_blind_system)
    verdict = check_locally_faithful(locally_blind_system, arcs)
    assert not verdict.ok
    assert verdict.witness_vertex == 0
    # it also fixes one edge with trivial restriction
    assert not check_pseudo_free(locally_blind_system, arcs).ok


def test_self_restricting_swap_passes_hypotheses(self_restrict_system):
    arcs = restriction_graph(self_restrict_system)
    assert check_pseudo_free(self_restrict_system, arcs).ok
    assert check_locally_faithful(self_restrict_system, arcs).ok


# -- validation ----------------------------------------------------------

def test_validate_accepts_builtins(odo22, odo623, kat32):
    for system in (odo22, odo623, kat32):
        assert validate_action(system).ok


def test_validate_rejects_non_bijection():
    from tests.conftest import make_loops_graph
    from ssgraph.action import GeneratorTable
    collapse = GeneratorTable("c", (0,), {(0, 0): 0, (0, 1): 0},
                              {(0, 0): (), (0, 1): ()})
    report = validate_action(ActionSystem(make_loops_graph(2), (collapse,)))
    assert not report.ok
    assert any("bijection" in p for p in report.problems)
    from tests.conftest import make_fibonacci_graph
    fold = GeneratorTable("f", (0, 0), {(0, e): e for e in range(3)}, {})
    partial = GeneratorTable("p", (0,), {(0, 0): 1}, {})
    for graph, table, problem in (
            (make_fibonacci_graph(), fold,
             "generator 'f': vertex map is not a permutation"),
            (make_loops_graph(2), partial,
             "generator 'p': color 0 edge action is incomplete")):
        assert validate_action(ActionSystem(graph, (table,))).problems \
            == [problem]


def test_validate_reports_missing_restriction_word():
    from tests.conftest import make_loops_graph
    gap = GeneratorTable("s", (0,), {(0, 0): 1, (0, 1): 0}, {(0, 0): ()})
    report = validate_action(ActionSystem(make_loops_graph(2), (gap,)))
    assert report.problems == [
        "generator 's': restriction word at (0,1) is missing"]


def test_validate_reports_out_of_range_image():
    # an image id past the color's edges is reported, not looked up
    from tests.conftest import make_loops_graph
    wild = GeneratorTable("w", (0,), {(0, 0): 7, (0, 1): 0},
                          {(0, 0): (), (0, 1): ()})
    report = validate_action(ActionSystem(make_loops_graph(2), (wild,)))
    assert report.problems == [
        "generator 'w': color 0 edge action is not a bijection"]


def test_inverse_letter_needs_an_invertible_table():
    # an inverse row exists only for a vertex permutation that is
    # injective on edges; otherwise the inverse letter is refused
    from tests.conftest import make_fibonacci_graph, make_loops_graph
    fold = GeneratorTable("f", (0, 0), {(0, e): e for e in range(3)},
                          {(0, e): () for e in range(3)})
    collapse = GeneratorTable("c", (0,), {(0, 0): 0, (0, 1): 0},
                              {(0, 0): (), (0, 1): ()})
    for graph, table in ((make_fibonacci_graph(), fold),
                         (make_loops_graph(2), collapse)):
        system = ActionSystem(graph, (table,))
        with pytest.raises(PreconditionViolated) as err:
            system.element_from_word((-1,))
        assert str(err.value) == \
            f"generator {table.name!r} is not invertible on edges"


def test_inverse_letter_rotates_vertices_back():
    # on a 3-cycle a rotation is not an involution, so an inverse row
    # that reused the forward vertex map would show
    cycle = KGraph(1, 3, [[Edge(i, 0, (i + 1) % 3, i) for i in range(3)]],
                   {})
    rotate = GeneratorTable("r", (1, 2, 0),
                            {(0, i): (i + 1) % 3 for i in range(3)},
                            {(0, i): () for i in range(3)})
    system = ActionSystem(cycle, (rotate,))
    assert validate_action(system).ok
    back = system.element_from_word((-1,))
    assert [system.act_vertex(back, v) for v in range(3)] == [2, 0, 1]
    assert back == system.element_from_word((1, 1))


def test_validate_rejects_swapped_vertices(swap_system):
    report = validate_action(swap_system)
    assert not report.ok


def test_validate_rejects_bad_restriction_index():
    from tests.conftest import make_loops_graph
    from ssgraph.action import GeneratorTable
    bad = GeneratorTable("b", (0,), {(0, 0): 1, (0, 1): 0},
                         {(0, 0): (), (0, 1): (2,)})
    report = validate_action(ActionSystem(make_loops_graph(2), (bad,)))
    assert not report.ok


def test_validate_rejects_incoherent_squares(odo22):
    # s swaps the color-0 edges and fixes the color-1 edges, which moves
    # the two factorizations of a square apart.  b fixes every edge, but
    # its restriction (+1)^2 along color-0 edge 0 carries into color 1,
    # which the other factorization, through a trivial restriction,
    # does not: only the restrictions differ.
    plus = odo22.generators[0]
    swap = GeneratorTable("s", (0,), {(0, 0): 1, (0, 1): 0, (1, 0): 0,
                                      (1, 1): 1}, dict.fromkeys(plus.act, ()))
    fixing = GeneratorTable("b", (0,), {ce: ce[1] for ce in plus.act},
                            {**dict.fromkeys(plus.act, ()), (0, 0): (1, 1)})
    for tables, problem in (
            ((swap,), "law (i) fails on square (0,1) (0,0) for s"),
            ((plus, fixing),
             "restriction differs across square (0,1) (0,0) for b")):
        report = validate_action(ActionSystem(odo22.graph, tables))
        assert report.problems == [problem]


def test_element_from_word_rejects_bad_letters(odo22, word_odometer22):
    with pytest.raises(PreconditionViolated):
        word_odometer22.element_from_word((0,))
    with pytest.raises(PreconditionViolated):
        word_odometer22.element_from_word((2,))
    with pytest.raises(KeyError):
        odo22.generator_element("missing")
