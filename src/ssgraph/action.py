"""Self-similar group actions on higher-rank graphs.

A group is presented by generator tables: each generator permutes the
vertices and the edges of every color and leaves behind a restriction
word per edge.  Elements are words over signed 1-based generator
indices.  A word's canonical form is the signature of the minimal
automaton of its restriction closure, found by Moore partition
refinement; the first word seen with a signature represents it.  Every
GroupElement a system hands out carries such a representative, so
element equality is key equality.  Caps turn a failing finite-state
hypothesis into an explicit ClosureExceeded error instead of
divergence.

Two words share a signature exactly when they act identically on every
path, so elements are equal as automorphisms of the path space: the
engine works in the faithful quotient of the group the tables present,
which is the group itself when that group acts faithfully.

The closure, the nucleus and the hypothesis checks read one automaton:
the restriction closure of some states, each with its restriction
along every edge.  ``restriction_graph`` builds the (state, vertex)
graph of the generators' closure once; the pseudo-free, locally
faithful and degenerate checks are three searches of that one graph.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import ClosureExceeded, PreconditionViolated, ValidationReport
from .kgraph import Edge, KGraph, Path

Word = tuple[int, ...]
ColorEdge = tuple[int, int]


class GroupElement(NamedTuple):
    """Canonical element handle made by a system; compare only within it.

    A named tuple: ``GroupElement(k)`` equals the plain tuple ``(k,)``,
    so handles must not share a dict with unrelated tuple keys.
    """

    key: Word


class GeneratorTable(NamedTuple):
    """Action data of a single generator.

    ``act`` maps (color, edge id) to the image edge id of the same
    color; ``restrict`` maps (color, edge id) to a restriction word
    over signed 1-based generator indices; ``vertex_map[v]`` is the
    image vertex.
    """

    name: str
    vertex_map: tuple[int, ...]
    act: Mapping[ColorEdge, int]
    restrict: Mapping[ColorEdge, Word]


class ActionCaps(NamedTuple):
    """Caps that raise ClosureExceeded: ``max_closure`` on closures and
    word balls, ``max_word_length`` on restriction words,
    ``max_pair_states`` on the words walked to canonicalise one word,
    and ``state_cap`` on the states of one cycline fixpoint search."""

    max_closure: int = 4096
    max_word_length: int = 64
    max_pair_states: int = 4096
    state_cap: int = 250_000


class ActionSystem:
    """A group acting self-similarly on a rank-k graph via generator tables."""

    def __init__(self, graph: KGraph, generators: Sequence[GeneratorTable],
                 caps: ActionCaps | None = None):
        self.graph = graph
        self.generators = tuple(generators)
        self.caps = caps or ActionCaps()
        # one (vertex map, edge map, restriction map) row per signed letter
        self._rows: dict[int, tuple | None] = {}
        for idx, gen in enumerate(self.generators, start=1):
            self._rows[idx] = (gen.vertex_map, gen.act, gen.restrict)
            self._rows[-idx] = _inverse_row(gen, graph.num_vertices)
        self._edge_memo: dict[tuple[Word, ColorEdge], tuple[int, Word]] = {}
        self._color_edges = tuple((color, e.id) for color in range(graph.k)
                                  for e in graph.edges[color])
        self._canon_memo: dict[Word, Word] = {}
        self._by_signature: dict[tuple, Word] = {}
        # canonicalised first, the identity represents its own class
        self._canonical_key(())

    # -- raw word operations --------------------------------------------

    def _reduce(self, word: Word) -> Word:
        out: list[int] = []
        for letter in word:
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

    def _row(self, letter: int) -> tuple:
        row = self._rows[letter]
        if row is None:
            name = self.generators[-letter - 1].name
            raise PreconditionViolated(
                f"generator {name!r} is not invertible on edges")
        return row

    def _edge_raw(self, key: Word, ce: ColorEdge) -> tuple[int, Word]:
        """(key.e, key|e) for e = ``ce``: image id and reduced restriction."""
        hit = self._edge_memo.get((key, ce))
        if hit is None:
            color, eid = ce
            word: Word = ()
            for letter in reversed(key):
                _, act, restrict = self._row(letter)
                word = restrict[(color, eid)] + word
                eid = act[(color, eid)]
            out = self._reduce(word)
            if len(out) > self.caps.max_word_length:
                raise ClosureExceeded.cap(
                    "restriction word", "max_word_length",
                    self.caps.max_word_length, len(out), "letters")
            hit = self._edge_memo[(key, ce)] = (eid, out)
        return hit

    def _act_vertex_raw(self, key: Word, v: int) -> int:
        for letter in reversed(key):
            v = self._row(letter)[0][v]
        return v

    def key_str(self, key: Word) -> str:
        if not key:
            return "1"
        parts = []
        for letter in key:
            name = self.generators[abs(letter) - 1].name
            parts.append(name if letter > 0 else name + "^-1")
        return "*".join(parts)

    # -- canonical forms by partition refinement ------------------------

    def _canonical_key(self, key: Word) -> Word:
        key = self._reduce(key)
        hit = self._canon_memo.get(key)
        if hit is None:
            hit = self._by_signature.setdefault(self._signature(key), key)
            self._canon_memo[key] = hit
        return hit

    def _signature(self, word: Word) -> tuple:
        """The minimal automaton of ``word``'s restriction closure, each
        state labelled by its vertex and edge permutations.  Moore
        refinement splits states by label and successor classes; classes
        are numbered by first appearance in the breadth-first walk, so
        words share a signature exactly when they act alike on all paths.
        """
        states, index, labels, succ = [word], {word: 0}, [], []
        for w in states:  # breadth-first: ``states`` grows while walked
            images, row = [], []
            for ce in self._color_edges:
                image, res = self._edge_raw(w, ce)
                images.append(image)
                if res not in index:
                    if len(states) >= self.caps.max_pair_states:
                        raise ClosureExceeded.cap(
                            f"restriction closure of {self.key_str(word)}",
                            "max_pair_states", self.caps.max_pair_states,
                            len(states) + 1)
                    index[res] = len(states)
                    states.append(res)
                row.append(index[res])
            labels.append((tuple(self._act_vertex_raw(w, v) for v in
                                 range(self.graph.num_vertices)),
                           tuple(images)))
            succ.append(row)
        block = _number(labels)
        while True:
            moves = [tuple(block[j] for j in row) for row in succ]
            finer = _number(zip(block, moves))
            if finer == block:
                return tuple(dict.fromkeys(zip(labels, moves)))
            block = finer

    # -- public element interface --------------------------------------

    @property
    def identity(self) -> GroupElement:
        return GroupElement(())

    def generator_element(self, name: str) -> GroupElement:
        for idx, gen in enumerate(self.generators, start=1):
            if gen.name == name:
                return GroupElement(self._canonical_key((idx,)))
        raise KeyError(f"no generator named {name!r}")

    def element_from_word(self, letters: Sequence[int]) -> GroupElement:
        """Build an element from signed 1-based generator indices."""
        for letter in letters:
            if letter == 0 or abs(letter) > len(self.generators):
                raise PreconditionViolated(f"bad generator index {letter}")
        return GroupElement(self._canonical_key(tuple(letters)))

    def equal(self, g: GroupElement, h: GroupElement) -> bool:
        return g.key == h.key

    def is_identity(self, g: GroupElement) -> bool:
        return self.equal(g, self.identity)

    def multiply(self, g: GroupElement, h: GroupElement) -> GroupElement:
        return GroupElement(self._canonical_key(g.key + h.key))

    def inverse(self, g: GroupElement) -> GroupElement:
        word = tuple(-letter for letter in reversed(g.key))
        return GroupElement(self._canonical_key(word))

    def act_vertex(self, g: GroupElement, v: int) -> int:
        return self._act_vertex_raw(g.key, v)

    def act_edge(self, g: GroupElement, e: Edge) -> Edge:
        image = self._edge_raw(g.key, (e.color, e.id))[0]
        return self.graph.edge(e.color, image)

    def restrict_edge(self, g: GroupElement, e: Edge) -> GroupElement:
        raw = self._edge_raw(g.key, (e.color, e.id))[1]
        return GroupElement(self._canonical_key(raw))

    def act_path(self, g: GroupElement, mu: Path) -> Path:
        key, out = g.key, []
        for e in mu.edges:
            image, key = self._edge_raw(key, (e.color, e.id))
            out.append(self.graph.edge(e.color, image))
        return Path(self._act_vertex_raw(g.key, mu.range_vertex),
                    tuple(out), mu.degree)

    def restrict_path(self, g: GroupElement, mu: Path) -> GroupElement:
        key = g.key
        for e in mu.edges:
            key = self._edge_raw(key, (e.color, e.id))[1]
        return GroupElement(self._canonical_key(key))

    def describe(self, g: GroupElement) -> str:
        return self.key_str(g.key)

    # -- closures -------------------------------------------------------

    def _automaton(self, seeds: Iterable[GroupElement]
                   ) -> dict[Word, dict[ColorEdge, Word]]:
        """The closure of the seeds under edge restriction, as an
        automaton: each state, in breadth-first order from the seeds,
        with its canonical restriction along every color-edge."""
        rows: dict[Word, dict[ColorEdge, Word]] = {}
        keys: list[Word] = []

        def visit(key):
            if key not in rows:
                if len(rows) >= self.caps.max_closure:
                    raise ClosureExceeded.cap(
                        "restriction closure", "max_closure",
                        self.caps.max_closure, len(rows) + 1)
                rows[key] = {}
                keys.append(key)
            return key

        for g in seeds:
            visit(g.key)
        for key in keys:  # breadth-first: ``keys`` grows while walked
            row = rows[key]
            for ce in self._color_edges:
                row[ce] = visit(self._canonical_key(self._edge_raw(key, ce)[1]))
        return rows

    def restriction_closure(self, seeds: Sequence[GroupElement]
                            ) -> list[GroupElement]:
        """Smallest set containing the seeds closed under edge restriction."""
        return [GroupElement(key) for key in self._automaton(seeds)]

    def generator_closure(self) -> list[GroupElement]:
        """The restriction closure of the identity and the generators:
        the states the paper's finite-state hypothesis bounds."""
        return self.restriction_closure(
            [self.identity]
            + [self.generator_element(g.name) for g in self.generators])

    def nucleus(self) -> list[GroupElement]:
        """The nucleus of a contracting action (Nekrashevych,
        *Self-Similar Groups*, 2005, §2.11): the finite set every
        element's restrictions along long enough paths fall into.

        Found as a fixpoint: start from the recurrent states of the
        closure of the generators, their inverses and the identity,
        then add the recurrent states of closure(N.N) until nothing
        changes.  An action that is not contracting grows without
        bound and raises ClosureExceeded at one of the caps.
        """
        gens = [self.generator_element(g.name) for g in self.generators]
        nucleus = self._recurrent(self._automaton(
            [self.identity] + gens + [self.inverse(g) for g in gens]))
        while True:
            products = (self.multiply(g, h) for g in nucleus for h in nucleus)
            # recurrent states restrict to recurrent ones: the union is closed
            grown = list(dict.fromkeys(
                nucleus + self._recurrent(self._automaton(products))))
            if len(grown) == len(nucleus):
                return nucleus
            nucleus = grown

    def _recurrent(self, rows: dict[Word, dict[ColorEdge, Word]]
                   ) -> list[GroupElement]:
        """The states of an automaton that are reachable from a
        restriction cycle: prune states without a predecessor until
        none is left, which keeps exactly those with an infinite past."""
        preds = dict.fromkeys(rows, 0)
        for row in rows.values():
            for key in row.values():
                preds[key] += 1
        stack = [key for key, count in preds.items() if not count]
        pruned = set(stack)
        while stack:
            for key in rows[stack.pop()].values():
                preds[key] -= 1
                if not preds[key]:
                    pruned.add(key)
                    stack.append(key)
        return [GroupElement(key) for key in rows if key not in pruned]

    def word_ball(self, radius: int) -> list[GroupElement]:
        """All products of at most ``radius`` generator letters."""
        out = [self.identity]
        seen = {self.identity.key}
        frontier = [self.identity]
        letters = [i for i in range(1, len(self.generators) + 1)]
        letters += [-i for i in letters]
        for _ in range(radius):
            new_frontier = []
            for g in frontier:
                for letter in letters:
                    h = GroupElement(self._canonical_key(g.key + (letter,)))
                    if h.key not in seen:
                        if len(seen) >= self.caps.max_closure:
                            raise ClosureExceeded.cap(
                                "word ball", "max_closure",
                                self.caps.max_closure, len(seen) + 1)
                        seen.add(h.key)
                        out.append(h)
                        new_frontier.append(h)
            frontier = new_frontier
        return out


def _inverse_row(gen: GeneratorTable, num_vertices: int) -> tuple | None:
    """The row of ``gen``'s inverse letter, or None when ``gen`` does
    not permute the vertices or is not injective on edges: g^-1.e is
    the e' with g.e' = e, and g^-1|e = (g|e')^-1."""
    act = {(color, img): eid for (color, eid), img in gen.act.items()}
    if len(act) < len(gen.act) \
            or sorted(gen.vertex_map) != list(range(num_vertices)):
        return None
    vertex_map = tuple(map(gen.vertex_map.index, range(num_vertices)))
    restrict = {(ce[0], img): tuple(-x for x in reversed(gen.restrict[ce]))
                for ce, img in gen.act.items() if ce in gen.restrict}
    return vertex_map, act, restrict


def _number(keys) -> list[int]:
    """Number the distinct keys in order of first appearance."""
    ids: dict = {}
    return [ids.setdefault(key, len(ids)) for key in keys]


# -- hypothesis checks --------------------------------------------------

class HypothesisVerdict(NamedTuple):
    ok: bool
    witness_element: str | None = None
    witness_path: tuple[Edge, ...] | None = None
    witness_vertex: int | None = None
    detail: str = ""


def _trivial_generator(sys: ActionSystem) -> str | None:
    # a declared generator that is action-indistinguishable from the
    # identity contradicts the presentation; both hypothesis checks
    # treat it as a definite failure
    for gen in sys.generators:
        if sys.is_identity(sys.generator_element(gen.name)):
            return gen.name
    return None


def restriction_graph(sys: ActionSystem):
    """The (state, vertex) restriction graph of the generators'
    closure, built once for all three hypothesis checks: the arcs of
    each node (g, v), state by state in ``generator_closure`` order.
    Node (g, v) has one arc ``(e, fixed, (g|e, s(e)))`` per edge e with
    range v, by color and then id; ``fixed`` says whether g fixes e.
    Raises ClosureExceeded when the closure exceeds its cap."""
    graph = sys.graph
    return {(g.key, v): [(e, sys.act_edge(g, e) == e,
                          (sys.restrict_edge(g, e).key, e.source))
                         for color in range(graph.k)
                         for e in graph.edges_from(v, color)]
            for g in sys.generator_closure()
            for v in range(graph.num_vertices)}


def _reaching(arcs, targets) -> set:
    """The nodes with an arc path to one of ``targets``, these included."""
    preds: dict = {}
    for node, out in arcs.items():
        for _, _, target in out:
            preds.setdefault(target, []).append(node)
    seen = set(targets)
    stack = list(seen)
    while stack:
        for node in preds.get(stack.pop(), ()):
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return seen


def check_pseudo_free(sys: ActionSystem, arcs) -> HypothesisVerdict:
    """Search the restriction graph ``arcs`` for a non-identity state
    whose restriction along a fixed path is the identity: breadth-first
    along fixed arcs, from each state's nodes in turn."""
    trivial = _trivial_generator(sys)
    if trivial is not None:
        e = sys.graph.edges[0][0]
        return HypothesisVerdict(
            False, trivial, (e,),
            detail=f"generator {trivial!r} acts as the identity")
    id_key = sys.identity.key
    for g_key in dict.fromkeys(key for key, _ in arcs):
        if g_key == id_key:
            continue
        # the fixed path to each node found, so witnesses are paths
        paths = {(g_key, v): () for v in range(sys.graph.num_vertices)}
        queue = deque(paths)
        while queue:
            node = queue.popleft()
            for e, fixed, target in arcs[node]:
                if fixed and target[0] == id_key:
                    return HypothesisVerdict(False, sys.key_str(g_key),
                                             paths[node] + (e,))
                if fixed and target not in paths:
                    paths[target] = paths[node] + (e,)
                    queue.append(target)
    return HypothesisVerdict(True)


def check_locally_faithful(sys: ActionSystem, arcs) -> HypothesisVerdict:
    """Greatest-fixpoint search of the restriction graph ``arcs`` for a
    non-identity state fixing every path out of some vertex: a node
    survives when no arc path leads from it to an edge its state moves.

    Elements are compared as the engine compares them, as automorphisms
    of the path space, so "non-identity" means acting nontrivially on
    some path: the check runs in the same faithful quotient as the rest
    of the engine.
    """
    trivial = _trivial_generator(sys)
    if trivial is not None:
        return HypothesisVerdict(
            False, trivial, witness_vertex=0,
            detail=f"generator {trivial!r} acts as the identity")
    dead = _reaching(arcs, [node for node, out in arcs.items()
                            if not all(fixed for _, fixed, _ in out)])
    for key, v in arcs:
        if key != sys.identity.key and (key, v) not in dead:
            return HypothesisVerdict(False, sys.key_str(key), witness_vertex=v)
    return HypothesisVerdict(True)


def check_degenerate_property(sys: ActionSystem, arcs) -> bool:
    """Whether every state of the restriction graph ``arcs`` restricts
    to the identity along some path out of every vertex: whether every
    node reaches an identity node."""
    identity = [(sys.identity.key, v) for v in range(sys.graph.num_vertices)]
    return _reaching(arcs, identity).issuperset(arcs)


def validate_action(sys: ActionSystem) -> ValidationReport:
    """Check what a generator table can get wrong: that every generator
    is a degree-preserving automorphism with well-formed restriction
    words, compatible with the factorization squares.

    The cocycle laws need no check of their own.  A word acts letter by
    letter, so (gh).e = g.(h.e) and (gh)|e = g|(h.e) h|e hold by
    definition, and a canonical key acts exactly like its word.  The
    law g|(ef) = (g|e)|f is trivial on a color-sorted pair and is the
    square check's restriction test on every other pair."""
    rep = ValidationReport()
    graph = sys.graph
    for idx, gen in enumerate(sys.generators):
        label = f"generator {gen.name!r}"
        if sorted(gen.vertex_map) != list(range(graph.num_vertices)):
            rep.add(f"{label}: vertex map is not a permutation")
            continue
        for color in range(graph.k):
            ids = [gen.act.get((color, e.id)) for e in graph.edges[color]]
            if None in ids:
                rep.add(f"{label}: color {color} edge action is incomplete")
                continue
            if sorted(ids) != list(range(len(ids))):
                rep.add(f"{label}: color {color} edge action is not a bijection")
                if not all(0 <= i < len(ids) for i in ids):
                    continue  # an image outside the color has no edge
            for e in graph.edges[color]:
                img = graph.edge(color, gen.act[(color, e.id)])
                if img.range_vertex != gen.vertex_map[e.range_vertex] \
                        or img.source != gen.vertex_map[e.source]:
                    rep.add(f"{label}: image of edge ({color},{e.id}) "
                            "moves endpoints inconsistently")
                word = gen.restrict.get((color, e.id))
                at = f"{label}: restriction word at ({color},{e.id})"
                if word is None:
                    rep.add(f"{at} is missing")
                    continue
                for letter in word:
                    if letter == 0 or abs(letter) > len(sys.generators):
                        rep.add(f"{at} uses bad index {letter}")
    if rep.problems:
        return rep

    # ClosureExceeded propagates: hitting a cap is a resource limit,
    # not a verdict on the tables
    gens = [sys.generator_element(g.name) for g in sys.generators]
    elements = gens + [sys.inverse(g) for g in gens]
    _check_square_coherence(sys, elements, rep)
    return rep


def _check_square_coherence(sys, elements, rep):
    # acting through either factorization of a two-color square must
    # give the same morphism and the same restriction
    graph = sys.graph
    for pair, table in graph.squares.items():
        i, j = pair
        for (f_id, g_id), (g2_id, f2_id) in table.items():
            f = graph.edge(i, f_id)
            g = graph.edge(j, g_id)
            g2 = graph.edge(j, g2_id)
            f2 = graph.edge(i, f2_id)
            square = graph.path([f, g])
            for elem in elements:
                img_asc = sys.act_path(elem, square)
                gf = sys.act_edge(elem, g2)
                ff = sys.act_edge(sys.restrict_edge(elem, g2), f2)
                img_desc = graph.path([gf, ff])
                if img_asc != img_desc:
                    rep.add(f"law (i) fails on square ({i},{j}) "
                            f"({f_id},{g_id}) for {sys.describe(elem)}")
                    return
                r_asc = sys.restrict_path(elem, square)
                r_desc = sys.restrict_edge(sys.restrict_edge(elem, g2), f2)
                if not sys.equal(r_asc, r_desc):
                    rep.add(f"restriction differs across square ({i},{j}) "
                            f"({f_id},{g_id}) for {sys.describe(elem)}")
                    return
