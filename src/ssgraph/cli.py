"""Model file format, analysis pipeline, and command line front end.

Models are JSON documents tagged "ssgraph/1".  Colors and generator
indices are 1-based in files and 0-based in memory.  Reports are
emitted with sorted keys and a fixed stage order, so identical inputs
and parameters produce identical bytes.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from . import algebra, kms
from .action import ActionSystem, GeneratorTable, \
    check_degenerate_property, check_locally_faithful, check_pseudo_free, \
    restriction_graph, validate_action
from .errors import ClosureExceeded, NoConvergence, NotStronglyConnected, \
    ParseError, SSGraphError, ValidationError, ValidationReport, need_field
from .kgraph import Edge, KGraph, validate_kgraph
from .models import build_katsura, build_odometer
from .periodicity import periodicity_group
from .perron import check_g_invariance, spectral_data

MODEL_SCHEMA = "ssgraph/1"
REPORT_SCHEMA = "ssgraph/report/2"
# the paper's hypotheses, in report order; a verdict resting on one that
# failed or went undecided is conditional
HYPOTHESES = ("stronglyConnected", "finiteState", "pseudoFree",
              "locallyFaithful")

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CAPPED = 3


# -- parsing -------------------------------------------------------------

def parse_model(data, validate: bool = True):
    """Parse a model document into a graph and an action system.

    ``data`` may be a JSON string/bytes or an already-decoded dict.
    Structural problems raise ParseError; with ``validate`` set,
    semantic problems raise ValidationError carrying the full report.
    """
    if isinstance(data, (bytes, str)):
        try:
            doc = json.loads(data)
        except json.JSONDecodeError as err:
            raise ParseError(f"not valid JSON: {err}") from err
    else:
        doc = data
    if not isinstance(doc, dict):
        raise ParseError("model document must be a JSON object")
    if doc.get("schema") != MODEL_SCHEMA:
        raise ParseError(f"schema must be {MODEL_SCHEMA!r}")
    k = need_field(doc, "k", int, "model")
    if k < 1:
        raise ParseError("k must be at least 1")
    vertices = need_field(doc, "vertices", list, "model")
    if not vertices or not all(isinstance(v, str) for v in vertices):
        raise ParseError("vertices must be a nonempty list of names")
    num_vertices = len(vertices)

    rows = [[] for _ in range(k)]
    seen_ids = set()
    for entry in need_field(doc, "edges", list, "model"):
        eid = need_field(entry, "id", int, "edge")
        color = need_field(entry, "color", int, "edge")
        source = need_field(entry, "source", int, "edge")
        range_vertex = need_field(entry, "range", int, "edge")
        if not 1 <= color <= k:
            raise ParseError(f"edge {eid}: color {color} out of range")
        if (color, eid) in seen_ids:
            raise ParseError(f"duplicate edge id {eid} in color {color}")
        seen_ids.add((color, eid))
        if not (0 <= source < num_vertices and 0 <= range_vertex < num_vertices):
            raise ParseError(f"edge {eid}: endpoint out of range")
        rows[color - 1].append(Edge(eid, color - 1, source, range_vertex))
    for color, row in enumerate(rows):
        row.sort(key=lambda e: e.id)
        if [e.id for e in row] != list(range(len(row))):
            raise ParseError(f"color {color + 1} ids must be 0..{len(row) - 1}")

    squares = {}
    for entry in need_field(doc, "squares", list, "model"):
        i = need_field(entry, "i", int, "square")
        j = need_field(entry, "j", int, "square")
        f = need_field(entry, "f", int, "square")
        g = need_field(entry, "g", int, "square")
        g2 = need_field(entry, "gPrime", int, "square")
        f2 = need_field(entry, "fPrime", int, "square")
        if not 1 <= i < j <= k:
            raise ParseError(f"square colors ({i},{j}) must satisfy i<j")
        table = squares.setdefault((i - 1, j - 1), {})
        if (f, g) in table:
            raise ParseError(f"duplicate square for edges ({f},{g}) "
                             f"in colors ({i},{j})")
        table[(f, g)] = (g2, f2)

    graph = KGraph(k, num_vertices, rows, squares,
                   vertex_names=tuple(vertices))

    generators = []
    names = set()
    gen_entries = need_field(doc, "generators", list, "model")
    for entry in gen_entries:
        name = need_field(entry, "name", str, "generator")
        if not name or name in names:
            raise ParseError(f"generator name {name!r} missing or repeated")
        names.add(name)
        act = {}
        restrict = {}
        for row in need_field(entry, "edgeAction", list, f"generator {name}"):
            color = need_field(row, "color", int, "edgeAction")
            eid = need_field(row, "edge", int, "edgeAction")
            image = need_field(row, "image", list, "edgeAction")
            word = need_field(row, "restrictionWord", list, "edgeAction")
            if len(image) != 2 or not all(type(x) is int for x in image):
                raise ParseError(f"generator {name}: image must be "
                                 "[color, id]")
            if image[0] != color:
                raise ValidationError(ValidationReport(
                    [f"generator {name}: color preservation violated on "
                     f"edge {eid} of color {color}"]))
            if not all(type(x) is int and x != 0 for x in word):
                raise ParseError(f"generator {name}: restriction word must "
                                 "hold nonzero signed indices")
            if not 1 <= color <= k or not 0 <= eid < len(rows[color - 1]):
                raise ParseError(f"generator {name}: unknown edge "
                                 f"({color},{eid})")
            key = (color - 1, eid)
            if key in act:
                raise ParseError(f"generator {name}: edge ({color},{eid}) "
                                 "acted on twice")
            act[key] = image[1]
            restrict[key] = tuple(word)
        vertex_map = _derive_vertex_map(graph, act)
        generators.append(GeneratorTable(name, vertex_map, act, restrict))

    system = ActionSystem(graph, tuple(generators))
    if validate:
        report = validate_kgraph(graph)
        if report.ok:
            report.extend(validate_action(system))
        report.raise_if_failed()
    return graph, system


def _derive_vertex_map(graph: KGraph, act) -> tuple[int, ...]:
    """Vertex images implied by edge images: the range of g.e is the
    image of the range of e.  First assignment wins; endpoint
    validation reports any residual inconsistency."""
    vmap = [None] * graph.num_vertices
    for (color, eid), image_id in act.items():
        if 0 <= image_id < len(graph.edges[color]):
            e = graph.edge(color, eid)
            image = graph.edge(color, image_id)
            if vmap[e.range_vertex] is None:
                vmap[e.range_vertex] = image.range_vertex
    for v in range(graph.num_vertices):
        if vmap[v] is None:
            vmap[v] = v
    return tuple(vmap)


# -- emission ------------------------------------------------------------

def emit_model(graph: KGraph, system: ActionSystem, metadata=None) -> dict:
    """Serialize a graph and action to the canonical document form."""
    edges = []
    for row in graph.edges:
        for e in row:
            edges.append({"id": e.id, "color": e.color + 1,
                          "source": e.source, "range": e.range_vertex})
    edges.sort(key=lambda r: (r["color"], r["id"]))
    squares = []
    for (i, j), table in sorted(graph.squares.items()):
        for (f, g), (g2, f2) in sorted(table.items()):
            squares.append({"i": i + 1, "j": j + 1, "f": f, "g": g,
                            "gPrime": g2, "fPrime": f2})
    generators = []
    for gen in system.generators:
        rows = []
        for (color, eid), image in sorted(gen.act.items()):
            rows.append({"color": color + 1, "edge": eid,
                         "image": [color + 1, image],
                         "restrictionWord": list(gen.restrict[(color, eid)])})
        generators.append({"name": gen.name, "edgeAction": rows})
    doc = {
        "schema": MODEL_SCHEMA,
        "k": graph.k,
        "vertices": list(graph.vertex_names),
        "edges": edges,
        "squares": squares,
        "generators": generators,
        "metadata": dict(metadata or {}),
    }
    return doc


def canonical_bytes(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


# -- analysis pipeline ---------------------------------------------------

def run_analysis(graph: KGraph, system: ActionSystem, box_radius: int = 4,
                 ball_radius: int = 3, tol: float = 1e-9) -> dict:
    """Validation, hypothesis checks, spectral data, periodicity, and
    the KMS verdict in one deterministic report.  Later stages run
    only when validation passes; cap hits are embedded per stage."""
    report = {
        "schema": REPORT_SCHEMA,
        "params": {"boxRadius": box_radius, "ballRadius": ball_radius,
                   "tol": tol},
    }
    graph_report = validate_kgraph(graph)
    action_report = ValidationReport()
    if graph_report.ok:
        try:
            action_report = validate_action(system)
        except ClosureExceeded as err:
            report["validation"] = {
                "graph": [], "action": [], "valid": False,
                "error": str(err),
            }
            report["capped"] = True
            return report
    report["validation"] = {
        "graph": list(graph_report.problems),
        "action": list(action_report.problems),
        "valid": graph_report.ok and action_report.ok,
    }
    if not report["validation"]["valid"]:
        return report

    report["stronglyConnected"] = graph.strongly_connected()
    capped = False

    hypotheses: dict = {}
    try:
        arcs = restriction_graph(system)
        hypotheses["closureSize"] = len({key for key, _ in arcs})
        hypotheses["finiteState"] = True
        pf = check_pseudo_free(system, arcs)
        lf = check_locally_faithful(system, arcs)
        hypotheses["pseudoFree"] = pf.ok
        hypotheses["locallyFaithful"] = lf.ok
        if not pf.ok:
            hypotheses["pseudoFreeWitness"] = _witness_text(pf)
        if not lf.ok:
            hypotheses["locallyFaithfulWitness"] = _witness_text(lf)
        hypotheses["degenerate"] = check_degenerate_property(system, arcs)
    except ClosureExceeded as err:
        hypotheses["error"] = str(err)
        capped = True
    report["hypotheses"] = hypotheses

    perron: dict = {}
    data = None
    try:
        data = spectral_data(graph)
        perron = {
            "rho": list(data.rho),
            "rhoInt": list(data.rho_int) if data.rho_int else None,
            "x": list(data.x),
            "residuals": list(data.residuals),
            "iterations": data.iterations,
        }
    except (NotStronglyConnected, NoConvergence) as err:
        perron = {"error": str(err)}
    report["perron"] = perron

    periodicity: dict = {}
    kms_section: dict = {}
    if data is not None:
        lattice = None
        try:
            lattice = periodicity_group(system, box_radius, ball_radius,
                                        perron_data=data, tol=tol)
            periodicity = _lattice_doc(lattice)
        except ClosureExceeded as err:
            periodicity = {"error": str(err)}
            capped = True
        exists = check_g_invariance(data, system, tol)
        if lattice is None and exists:
            # a nonempty simplex needs the lattice that hit the cap
            kms_section = {"error": periodicity["error"]}
        else:
            state = kms.KmsState(system, data, lattice, kms.haar_trace(),
                                 exists)
            established = {"stronglyConnected":
                           report["stronglyConnected"], **hypotheses}
            failed = [name for name in HYPOTHESES
                      if established.get(name) is not True]
            kms_section = {**_summary_doc(state),
                           "conditional": bool(failed),
                           "failedHypotheses": failed}
    report["periodicity"] = periodicity
    report["kms"] = kms_section
    report["capped"] = capped
    return report


def _summary_doc(state) -> dict:
    return {"exists": state.exists, "rank": state.rank,
            "verdict": state.verdict}


def _lattice_doc(lattice) -> dict:
    return {
        "rank": lattice.rank,
        "basis": [list(v) for v in lattice.basis],
        "boxRadius": lattice.box_radius,
        "ballRadius": lattice.ball_radius,
        "exact": lattice.exact,
        "method": {"vectors": lattice.vectors,
                   "elements": lattice.elements},
    }


def _witness_text(verdict) -> str:
    """The verdict's own detail, or its witness element with the path
    (edges as 1-based ``[color, id]``, as in model files) or vertex."""
    if verdict.detail:
        return verdict.detail
    if verdict.witness_path is not None:
        edges = [[e.color + 1, e.id] for e in verdict.witness_path]
        return f"element {verdict.witness_element} on path {json.dumps(edges)}"
    return (f"element {verdict.witness_element} at vertex "
            f"{verdict.witness_vertex}")


# -- command line --------------------------------------------------------

def _read_document(path: str):
    if path == "-":
        return sys.stdin.read()
    with open(path, "rb") as handle:
        return handle.read()


def _write_output(doc, path: str | None) -> None:
    payload = canonical_bytes(doc)
    if path:
        with open(path, "wb") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload.decode())


def _parse_trace(text: str) -> kms.TraceSpec:
    if text == "haar":
        return kms.haar_trace()
    if text.startswith("character:"):
        theta = [float(t) for t in text[len("character:"):].split(",") if t]
        return kms.character_trace(theta)
    if text.startswith("mixture:"):
        rows = []
        for part in text[len("mixture:"):].split(";"):
            weight, _, coords = part.partition("@")
            rows.append((float(weight),
                         [float(t) for t in coords.split(",") if t]))
        return kms.mixture_trace(rows)
    raise ValueError(f"unknown trace {text!r}")


def _parse_matrix(text: str):
    return [[int(x) for x in row.split(",")] for row in text.split(";")]


def _count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        count = -1
    if count < 0:
        raise argparse.ArgumentTypeError(
            f"must be an integer at least 0, got {text!r}")
    return count


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 < tol < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text!r}")
    return tol


def _load_validated(path: str):
    data = _read_document(path)
    return parse_model(data, validate=True)


BOX_HELP = ("radius of the integer search box, scanned only when the "
            "radii have no integer certificate or the kernel's basis "
            "does not settle the lattice (default 4)")
BALL_HELP = ("radius of the word ball used as group elements when the "
             "nucleus search hits an action cap (default 3)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ssgraph",
        description="self-similar higher-rank graph analysis")
    sub = parser.add_subparsers(dest="verb", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", dest="out")
    search = argparse.ArgumentParser(add_help=False, parents=[output])
    search.add_argument("--box", type=_count, default=4, help=BOX_HELP)
    search.add_argument("--ball", type=_count, default=3, help=BALL_HELP)
    search.add_argument("--tol", type=_tolerance, default=1e-9)

    p_gen = sub.add_parser("gen", help="emit a built-in model file")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    p_odo = gen_sub.add_parser("odometer", parents=[output])
    p_odo.add_argument("--n", required=True,
                       help="comma-separated sizes, e.g. 2,3")
    p_kat = gen_sub.add_parser("katsura", parents=[output])
    p_kat.add_argument("--t", required=True,
                       help="rows split by ';', entries by ','")
    p_kat.add_argument("--b", required=True)

    p_val = sub.add_parser("validate", help="check a model file",
                           parents=[output])
    p_val.add_argument("model")

    p_ana = sub.add_parser("analyze", help="full analysis report",
                           parents=[search])
    p_ana.add_argument("model")

    p_per = sub.add_parser("per", help="periodicity lattice",
                           parents=[search])
    p_per.add_argument("model")

    p_kms = sub.add_parser("kms-eval", help="equilibrium state report",
                           parents=[search])
    p_kms.add_argument("model")
    p_kms.add_argument("--trace", default="haar")
    p_kms.add_argument("--element", help="element file to evaluate")
    p_kms.add_argument("--samples", type=_count, default=100,
                       help="random pairs checked beyond the (1,...,1) "
                            "block (default 100)")
    p_kms.add_argument("--max-checks", type=_count, default=10_000_000,
                       help="cap on the identity checks, the block size "
                            "squared plus the samples; over it the "
                            "check exits 3 (default 10000000)")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ClosureExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CAPPED
    except (SSGraphError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


def _dispatch(args) -> int:
    if args.verb == "gen":
        if args.family == "odometer":
            n = tuple(int(x) for x in args.n.split(","))
            system = build_odometer(n)
            doc = emit_model(system.graph, system,
                             {"model": "odometer", "n": list(n)})
        else:
            t = _parse_matrix(args.t)
            b = _parse_matrix(args.b)
            system = build_katsura(t, b)
            doc = emit_model(system.graph, system,
                             {"model": "katsura", "t": t, "b": b})
        _write_output(doc, args.out)
        return EXIT_OK

    if args.verb == "validate":
        data = _read_document(args.model)
        graph, system = parse_model(data, validate=False)
        report = validate_kgraph(graph)
        if report.ok:
            report.extend(validate_action(system))
        doc = {"valid": report.ok, "problems": list(report.problems)}
        _write_output(doc, args.out)
        return EXIT_OK if report.ok else EXIT_INVALID

    if args.verb == "analyze":
        data = _read_document(args.model)
        graph, system = parse_model(data, validate=False)
        report = run_analysis(graph, system, args.box, args.ball, args.tol)
        _write_output(report, args.out)
        if report.get("capped"):
            return EXIT_CAPPED
        if not report["validation"]["valid"] or "error" in report["perron"]:
            return EXIT_INVALID
        return EXIT_OK

    if args.verb == "per":
        graph, system = _load_validated(args.model)
        lattice = periodicity_group(system, args.box, args.ball,
                                    tol=args.tol)
        _write_output(_lattice_doc(lattice), args.out)
        return EXIT_OK

    if args.verb == "kms-eval":
        trace = _parse_trace(args.trace)
        graph, system = _load_validated(args.model)
        state = kms.make_kms_state(system, trace, args.box, args.ball,
                                   args.tol)
        doc = {**_summary_doc(state),
               "basis": [list(v) for v in state.basis or ()]}
        if state.exists:
            verify = kms.verify_kms(state, sample_count=args.samples,
                                    tol=args.tol,
                                    max_checks=args.max_checks)
            doc["verify"] = {
                "ok": verify.ok,
                "maxDeviation": verify.max_deviation,
                "checked": verify.checked,
            }
            if args.element:
                rows = json.loads(_read_document(args.element))
                value = kms.evaluate(
                    state, algebra.element_from_json(system, rows))
                doc["value"] = {"re": value.real, "im": value.imag}
        _write_output(doc, args.out)
        return EXIT_OK

    raise AssertionError(f"unhandled verb {args.verb}")


if __name__ == "__main__":
    sys.exit(main())
