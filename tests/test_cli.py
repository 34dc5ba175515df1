import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ssgraph
from ssgraph.action import ActionCaps, ActionSystem, GeneratorTable
from ssgraph.cli import EXIT_CAPPED, EXIT_INVALID, EXIT_OK, MODEL_SCHEMA, \
    REPORT_SCHEMA, canonical_bytes, emit_model, main, parse_model, \
    run_analysis
from ssgraph.errors import ParseError, ValidationError
from ssgraph.kgraph import Edge, KGraph
from ssgraph.models import build_odometer

from tests.conftest import MODELS, bench_model, make_loops_graph


def gen_file(tmp_path, name, *argv):
    path = tmp_path / name
    assert main(list(argv) + ["--json", str(path)]) == EXIT_OK
    return path


def load(path):
    return json.loads(path.read_bytes())


def doubling_model_path(tmp_path):
    # restriction words double in length forever, so default caps trip
    doubling = GeneratorTable("d", (0,), {(0, 0): 0, (0, 1): 1},
                              {(0, 0): (1, 1), (0, 1): ()})
    system = ActionSystem(make_loops_graph(2), (doubling,))
    path = tmp_path / "doubling.json"
    path.write_bytes(canonical_bytes(emit_model(system.graph, system)))
    return path


# -- gen and the document format -----------------------------------------

def test_gen_odometer_document(tmp_path):
    path = gen_file(tmp_path, "odo23.json", "gen", "odometer", "--n", "2,3")
    doc = load(path)
    assert doc["schema"] == MODEL_SCHEMA
    assert doc["k"] == 2
    assert doc["vertices"] == ["v0"]
    assert len(doc["edges"]) == 5
    assert len(doc["squares"]) == 6
    assert doc["metadata"] == {"model": "odometer", "n": [2, 3]}
    colors = sorted(set(e["color"] for e in doc["edges"]))
    assert colors == [1, 2]


def test_gen_emit_parse_emit_is_byte_stable(tmp_path):
    path = gen_file(tmp_path, "odo22.json", "gen", "odometer", "--n", "2,2")
    raw = path.read_bytes()
    doc = load(path)
    graph, system = parse_model(raw)
    again = canonical_bytes(emit_model(graph, system, doc["metadata"]))
    assert again == raw
    graph2, system2 = parse_model(again)
    assert canonical_bytes(emit_model(graph2, system2, doc["metadata"])) \
        == again


def test_gen_katsura_matrix_parsing(tmp_path):
    path = gen_file(tmp_path, "kat.json", "gen", "katsura",
                    "--t", "2,1;1,2", "--b", "1,1;1,1")
    doc = load(path)
    assert doc["metadata"]["t"] == [[2, 1], [1, 2]]
    assert doc["metadata"]["b"] == [[1, 1], [1, 1]]
    graph, system = parse_model(path.read_bytes())
    assert graph.k == 1
    assert graph.num_vertices == 2
    assert len(system.generators) == 1


def test_gen_katsura_takes_a_negative_matrix_after_equals(capsys):
    # "--b -2,1;1,1" reads as an option; the "=" form keeps the sign
    assert main(["gen", "katsura", "--t", "3,1;1,2",
                 "--b=-2,1;1,1"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["metadata"] == {"model": "katsura", "t": [[3, 1], [1, 2]],
                               "b": [[-2, 1], [1, 1]]}


def test_gen_writes_stdout_without_json_flag(capsys):
    assert main(["gen", "odometer", "--n", "2,2"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == MODEL_SCHEMA


# -- parse errors --------------------------------------------------------

def base_doc(tmp_path):
    return load(gen_file(tmp_path, "base.json", "gen", "odometer",
                         "--n", "2,2"))


def test_parse_rejects_structural_problems(tmp_path):
    doc = base_doc(tmp_path)

    bad = dict(doc, schema="ssgraph/0")
    with pytest.raises(ParseError, match="schema"):
        parse_model(bad)

    bad = dict(doc, k=0)
    with pytest.raises(ParseError, match="k must be"):
        parse_model(bad)

    bad = dict(doc, vertices=[])
    with pytest.raises(ParseError, match="vertices"):
        parse_model(bad)

    bad = dict(doc, k=True)
    with pytest.raises(ParseError, match="must be int"):
        parse_model(bad)

    with pytest.raises(ParseError, match="not valid JSON"):
        parse_model(b"{nope")


def test_parse_rejects_duplicate_edge_id(tmp_path):
    doc = base_doc(tmp_path)
    doc["edges"].append(dict(doc["edges"][0]))
    with pytest.raises(ParseError, match="duplicate edge id 0 in color 1"):
        parse_model(doc)


def test_parse_rejects_gapped_edge_ids(tmp_path):
    doc = base_doc(tmp_path)
    for entry in doc["edges"]:
        if entry["color"] == 1 and entry["id"] == 1:
            entry["id"] = 5
    with pytest.raises(ParseError, match="ids must be 0..1"):
        parse_model(doc)


def test_parse_rejects_bad_generator_rows(tmp_path):
    doc = base_doc(tmp_path)

    bad = json.loads(json.dumps(doc))
    bad["generators"][0]["edgeAction"][0]["edge"] = 9
    with pytest.raises(ParseError, match="unknown edge"):
        parse_model(bad)

    bad = json.loads(json.dumps(doc))
    rows = bad["generators"][0]["edgeAction"]
    rows.append(dict(rows[0]))
    with pytest.raises(ParseError, match="acted on twice"):
        parse_model(bad)

    bad = json.loads(json.dumps(doc))
    bad["generators"][0]["edgeAction"][0]["restrictionWord"] = [0]
    with pytest.raises(ParseError, match="nonzero signed"):
        parse_model(bad)

    bad = json.loads(json.dumps(doc))
    bad["generators"].append(bad["generators"][0])
    with pytest.raises(ParseError, match="repeated"):
        parse_model(bad)


def test_parse_rejects_cross_color_image(tmp_path):
    doc = base_doc(tmp_path)
    doc["generators"][0]["edgeAction"][0]["image"] = [2, 0]
    with pytest.raises(ValidationError, match="color preservation"):
        parse_model(doc)


def test_parse_flags_semantic_problems_only_when_asked(tmp_path):
    doc = base_doc(tmp_path)
    doc["squares"] = []
    parse_model(doc, validate=False)
    with pytest.raises(ValidationError, match="factorization"):
        parse_model(doc)


# -- validate ------------------------------------------------------------

def test_validate_accepts_generated_models(tmp_path, capsys):
    for argv in (("gen", "odometer", "--n", "2,3"),
                 ("gen", "odometer", "--n", "6,2,3"),
                 ("gen", "katsura", "--t", "3", "--b", "2")):
        path = gen_file(tmp_path, "m.json", *argv)
        assert main(["validate", str(path)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"valid": True, "problems": []}


def test_validate_reports_missing_square(tmp_path, capsys):
    doc = base_doc(tmp_path)
    doc["squares"] = doc["squares"][:-1]
    path = tmp_path / "nosq.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == EXIT_INVALID
    out = json.loads(capsys.readouterr().out)
    assert not out["valid"]
    assert any("bijection" in p for p in out["problems"])


def test_validate_parse_error_exit(tmp_path, capsys):
    doc = base_doc(tmp_path)
    doc["edges"].append(dict(doc["edges"][0]))
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "duplicate edge id 0 in color 1" in err


@pytest.mark.parametrize("field, value, message", [
    ("restrictionWord", [True], "restriction word must hold nonzero"),
    ("image", [True, 0], "image must be [color, id]"),
    ("image", [1, False], "image must be [color, id]"),
], ids=["boolean-letter", "boolean-color", "boolean-id"])
def test_validate_rejects_booleans_as_numbers(tmp_path, capsys, field,
                                              value, message):
    # true and false equal 1 and 0, so each row would parse and validate
    doc = load(gen_file(tmp_path, "odo2.json", "gen", "odometer", "--n", "2"))
    doc["generators"][0]["edgeAction"][1][field] = value
    path = tmp_path / "booleans.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == EXIT_INVALID
    assert message in capsys.readouterr().err


def test_validate_caps_exit(tmp_path, capsys):
    path = doubling_model_path(tmp_path)
    assert main(["validate", str(path)]) == EXIT_CAPPED
    assert "cap" in capsys.readouterr().err


# -- analyze -------------------------------------------------------------

def test_analyze_odometer_23(tmp_path):
    model = gen_file(tmp_path, "odo23.json", "gen", "odometer", "--n", "2,3")
    out = tmp_path / "report.json"
    assert main(["analyze", str(model), "--json", str(out)]) == EXIT_OK
    report = load(out)
    assert report["schema"] == REPORT_SCHEMA
    assert report["validation"]["valid"]
    assert report["stronglyConnected"]
    hyp = report["hypotheses"]
    assert hyp["finiteState"] and hyp["pseudoFree"] and hyp["locallyFaithful"]
    assert hyp["closureSize"] == 2
    assert hyp["degenerate"]
    assert report["perron"]["rhoInt"] == [2, 3]
    assert report["perron"]["x"] == [1.0]
    assert report["periodicity"]["rank"] == 0
    assert report["periodicity"]["basis"] == []
    assert report["kms"]["verdict"] == "unique KMS state"
    assert not report["kms"]["conditional"]
    assert report["kms"]["failedHypotheses"] == []
    assert not report["capped"]


def test_analyze_balanced_machine_has_torus_verdict(tmp_path):
    model = gen_file(tmp_path, "odo22.json", "gen", "odometer", "--n", "2,2")
    out = tmp_path / "report.json"
    assert main(["analyze", str(model), "--json", str(out)]) == EXIT_OK
    report = load(out)
    assert report["periodicity"]["rank"] == 1
    assert report["periodicity"]["basis"] == [[1, -1]]
    assert report["kms"]["rank"] == 1
    assert "1-torus" in report["kms"]["verdict"]


def test_analyze_katsura_is_unique(tmp_path):
    model = gen_file(tmp_path, "kat.json", "gen", "katsura",
                     "--t", "2", "--b", "1")
    out = tmp_path / "report.json"
    assert main(["analyze", str(model), "--json", str(out)]) == EXIT_OK
    report = load(out)
    assert report["periodicity"]["rank"] == 0
    assert report["kms"]["verdict"] == "unique KMS state"


def test_analyze_invalid_model_stops_after_validation(tmp_path):
    doc = base_doc(tmp_path)
    doc["squares"] = doc["squares"][:-1]
    path = tmp_path / "nosq.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(["analyze", str(path), "--json", str(out)]) == EXIT_INVALID
    report = load(out)
    assert not report["validation"]["valid"]
    assert any("bijection" in p for p in report["validation"]["graph"])
    assert "perron" not in report
    assert "hypotheses" not in report


def test_analyze_caps_exit_and_report(tmp_path):
    model = doubling_model_path(tmp_path)
    out = tmp_path / "report.json"
    assert main(["analyze", str(model), "--json", str(out)]) == EXIT_CAPPED
    report = load(out)
    assert report["capped"]
    assert "cap" in report["validation"]["error"]
    assert not report["validation"]["valid"]


def test_analyze_report_bytes_are_stable(tmp_path):
    model = gen_file(tmp_path, "odo22.json", "gen", "odometer", "--n", "2,2")
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["analyze", str(model), "--json", str(first)]) == EXIT_OK
    assert main(["analyze", str(model), "--json", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_run_analysis_accepts_in_memory_systems(odo23):
    report = run_analysis(odo23.graph, odo23)
    assert report["validation"]["valid"]
    assert report["periodicity"]["rank"] == 0


def test_analyze_reports_hypothesis_witnesses(partial_fix_system,
                                             locally_blind_system):
    # s fixes loop 0 and restricts to 1 there
    hyp = run_analysis(partial_fix_system.graph,
                       partial_fix_system)["hypotheses"]
    assert not hyp["pseudoFree"]
    assert hyp["pseudoFreeWitness"] == "element s on path [[1, 0]]"
    # s fixes every path out of v0 without being the identity
    hyp = run_analysis(locally_blind_system.graph,
                       locally_blind_system)["hypotheses"]
    assert not hyp["locallyFaithful"]
    assert hyp["locallyFaithfulWitness"] == "element s at vertex 0"


def test_verdicts_name_failed_hypotheses(partial_fix_system,
                                        locally_blind_system):
    for system, failed in ((partial_fix_system, ["pseudoFree"]),
                           (bench_model("grigorchuk"), ["pseudoFree"]),
                           (bench_model("basilica"), ["pseudoFree"]),
                           (locally_blind_system,
                            ["pseudoFree", "locallyFaithful"])):
        kms_section = run_analysis(system.graph, system)["kms"]
        assert kms_section["conditional"]
        assert kms_section["failedHypotheses"] == failed


def test_undecided_hypotheses_make_the_verdict_conditional(
        capped_odometer_tables):
    # the closure {0, +1} overflows the cap, while rho = 2 gives K = {0}
    # and so a lattice without any group search
    report = run_analysis(capped_odometer_tables.graph,
                          capped_odometer_tables)
    assert report["hypotheses"]["error"] == (
        "restriction closure exceeds cap max_closure=1 (reached 2 states)")
    assert report["periodicity"]["exact"]
    assert report["kms"]["verdict"] == "unique KMS state"
    assert report["kms"]["conditional"]
    assert report["kms"]["failedHypotheses"] == [
        "finiteState", "pseudoFree", "locallyFaithful"]


def test_analyze_keeps_detail_of_trivial_generator(trivial_extension_system):
    hyp = run_analysis(trivial_extension_system.graph,
                       trivial_extension_system)["hypotheses"]
    assert hyp["pseudoFreeWitness"] == "generator 'e' acts as the identity"


def _count_stage_calls(monkeypatch):
    """Wrap the lattice, spectral and invariance stages at every binding
    the pipeline reaches them through; returns the live call counts."""
    import ssgraph.cli
    import ssgraph.kms
    import ssgraph.periodicity
    import ssgraph.perron
    calls = {"periodicity_group": 0, "spectral_data": 0,
             "check_g_invariance": 0}
    for name in calls:
        original = getattr(ssgraph.perron, name, None) or getattr(
            ssgraph.periodicity, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (ssgraph.cli, ssgraph.kms, ssgraph.periodicity):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_each_stage_runs_once_per_verb(tmp_path, monkeypatch):
    model = gen_file(tmp_path, "odo22.json", "gen", "odometer", "--n", "2,2")
    calls = _count_stage_calls(monkeypatch)
    assert main(["analyze", str(model), "--json",
                 str(tmp_path / "a.json")]) == EXIT_OK
    assert calls == {"periodicity_group": 1, "spectral_data": 1,
                     "check_g_invariance": 1}
    calls.update(dict.fromkeys(calls, 0))
    assert main(["kms-eval", str(model), "--samples", "2", "--json",
                 str(tmp_path / "k.json")]) == EXIT_OK
    assert calls == {"periodicity_group": 1, "spectral_data": 1,
                     "check_g_invariance": 1}


def test_each_build_happens_once_per_analyze(tmp_path, monkeypatch):
    import ssgraph.action
    import ssgraph.cli
    import ssgraph.periodicity
    calls = {"_automaton": 0, "restriction_graph": 0, "_per_member": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ActionSystem, "_automaton", counted(
        "_automaton", ActionSystem._automaton))
    graph_builder = counted("restriction_graph",
                            ssgraph.action.restriction_graph)
    for module in (ssgraph.action, ssgraph.cli):
        monkeypatch.setattr(module, "restriction_graph", graph_builder)
    monkeypatch.setattr(ssgraph.periodicity, "_per_member", counted(
        "_per_member", ssgraph.periodicity._per_member))
    odometer = gen_file(tmp_path, "odo22.json", "gen", "odometer",
                        "--n", "2,2")
    for model, expected in ((odometer, (3, 1, 1)),
                            (MODELS / "grigorchuk.json", (1, 1, 0))):
        calls.update(dict.fromkeys(calls, 0))
        assert main(["analyze", str(model), "--json",
                     str(tmp_path / "a.json")]) == EXIT_OK
        assert tuple(calls.values()) == expected


def test_capped_lattice_error_is_reused_by_kms(
        word_odometer22, monkeypatch):
    # the closure {0, +1} fits under the cap, the radius-3 ball does not
    capped = ActionSystem(word_odometer22.graph, word_odometer22.generators,
                          caps=ActionCaps(max_closure=3))
    calls = _count_stage_calls(monkeypatch)
    report = run_analysis(capped.graph, capped)
    assert report["capped"]
    assert report["periodicity"]["error"] == (
        "word ball exceeds cap max_closure=3 (reached 4 states)")
    assert report["kms"] == {"error": report["periodicity"]["error"]}
    assert calls["periodicity_group"] == 1


def test_state_cap_error_is_embedded_in_report(word_odometer22):
    # canonicalising +1 walks +1 and the identity: two states, cap one
    capped = ActionSystem(word_odometer22.graph, word_odometer22.generators,
                          caps=ActionCaps(max_pair_states=1))
    report = run_analysis(capped.graph, capped)
    assert report["capped"]
    assert report["validation"]["error"] == (
        "restriction closure of +1 exceeds cap max_pair_states=1 "
        "(reached 2 states)")


def test_cycline_cap_error_is_embedded_in_report():
    capped = build_odometer((2, 2), ActionCaps(state_cap=1))
    report = run_analysis(capped.graph, capped)
    assert report["capped"]
    error = "cycline fixpoint exceeds cap state_cap=1 (reached 2 states)"
    assert report["periodicity"] == {"error": error}
    assert report["kms"] == {"error": error}


# -- per and kms-eval ----------------------------------------------------

def test_per_reports_lattice(tmp_path, capsys):
    model = gen_file(tmp_path, "odo22.json", "gen", "odometer", "--n", "2,2")
    assert main(["per", str(model)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["rank"] == 1
    assert doc["basis"] == [[1, -1]]

    model = gen_file(tmp_path, "odo23.json", "gen", "odometer", "--n", "2,3")
    assert main(["per", str(model)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"rank": 0, "basis": [], "boxRadius": 4, "ballRadius": 3,
                   "exact": True,
                   "method": {"vectors": "kernel", "elements": None}}


def test_kms_eval_character_trace(tmp_path):
    model = gen_file(tmp_path, "odo22.json", "gen", "odometer", "--n", "2,2")
    element = tmp_path / "element.json"
    element.write_text(json.dumps([{
        "mu": {"range": 0, "edges": []},
        "g": [],
        "nu": {"range": 0, "edges": []},
        "re": 1.0, "im": 0.0,
    }]))
    out = tmp_path / "kms.json"
    assert main(["kms-eval", str(model), "--trace", "character:0.3",
                 "--samples", "5", "--element", str(element),
                 "--json", str(out)]) == EXIT_OK
    doc = load(out)
    assert doc["exists"]
    assert doc["rank"] == 1
    assert doc["basis"] == [[1, -1]]
    assert doc["verify"]["ok"]
    assert doc["verify"]["maxDeviation"] < 1e-9
    assert doc["value"]["re"] == pytest.approx(1.0)
    assert doc["value"]["im"] == pytest.approx(0.0)


def _row(mu, g, nu, re, im):
    """An element row; ``mu`` and ``nu`` are (range, edge pairs)."""
    return {"mu": {"range": mu[0], "edges": [list(e) for e in mu[1]]},
            "g": g,
            "nu": {"range": nu[0], "edges": [list(e) for e in nu[1]]},
            "re": re, "im": im}


# the vertex projection, cycline monomials of degree difference (1, -1)
# and 0, two that are not cycline, and a repeated key whose coefficients
# add up
ODOMETER_22_ROWS = [
    _row((0, []), [], (0, []), 0.5, -0.25),
    _row((0, [(1, 0)]), [], (0, [(2, 0)]), 1.5, 0.75),
    _row((0, [(1, 1), (2, 0)]), [], (0, [(2, 1), (2, 0)]), -0.3, 2.0),
    _row((0, [(1, 1)]), [], (0, [(1, 1)]), 0.125, 0.0),
    _row((0, [(1, 0)]), [1], (0, [(2, 0)]), 0.2, -1.1),
    _row((0, [(2, 1)]), [-1, -1], (0, [(1, 0)]), 0.7, 0.3),
    _row((0, [(1, 0)]), [], (0, [(2, 0)]), -0.5, 0.5),
]

# the same rows on the one-colour Katsura graph, whose lattice is {0}
KATSURA_2V_ROWS = [
    _row((0, []), [], (0, []), 0.5, -0.25),
    _row((0, [(1, 0)]), [], (0, [(1, 0)]), 1.5, 0.75),
    _row((0, [(1, 1), (1, 0)]), [], (0, [(1, 1), (1, 0)]), -0.3, 2.0),
    _row((1, [(1, 3)]), [], (1, [(1, 3)]), 0.125, 0.0),
    _row((0, [(1, 0)]), [1], (0, [(1, 0)]), 0.2, -1.1),
    _row((1, [(1, 4)]), [-1, -1], (1, [(1, 5)]), 0.7, 0.3),
    _row((0, [(1, 0)]), [], (0, [(1, 0)]), -0.5, 0.5),
]

ODOMETER_22_STDOUT = """{
  "basis": [
    [
      1,
      -1
    ]
  ],
  "exists": true,
  "rank": 1,
  "value": {
    "im": %s,
    "re": %s
  },
  "verdict": "simplex of tracial states of C*(Z^1): probability measures on the 1-torus",
  "verify": {
    "checked": 26249,
    "maxDeviation": 0.0,
    "ok": true
  }
}
"""

KATSURA_2V_STDOUT = """{
  "basis": [],
  "exists": true,
  "rank": 0,
  "value": {
    "im": 0.19444444444444442,
    "re": 0.4208333333333333
  },
  "verdict": "unique KMS state",
  "verify": {
    "checked": 4101,
    "maxDeviation": 0.0,
    "ok": true
  }
}
"""


@pytest.mark.parametrize("gen, rows, trace, expected", [
    (["odometer", "--n", "2,2"], ODOMETER_22_ROWS, "haar",
     ODOMETER_22_STDOUT % ("-0.25", "0.5625")),
    (["odometer", "--n", "2,2"], ODOMETER_22_ROWS, "character:0.3",
     ODOMETER_22_STDOUT % ("-0.19344509924637548", "-0.6387708034414006")),
    (["katsura", "--t", "2,1;1,2", "--b", "1,1;1,1"], KATSURA_2V_ROWS,
     "haar", KATSURA_2V_STDOUT),
], ids=["odo22-haar", "odo22-character", "katsura-2v-haar"])
def test_kms_eval_element_stdout_is_pinned(tmp_path, capsys, gen, rows,
                                           trace, expected):
    """The whole ``kms-eval --element`` stdout, byte for byte, on a
    complex element of several rows and nonzero degrees."""
    model = gen_file(tmp_path, "model.json", "gen", *gen)
    element = tmp_path / "element.json"
    element.write_text(json.dumps(rows))
    assert main(["kms-eval", str(model), "--trace", trace, "--samples", "5",
                 "--element", str(element)]) == EXIT_OK
    assert capsys.readouterr() == (expected, "")


@pytest.mark.parametrize("field, value, message", [
    ("g", 1, "field 'g' must be list"),
    ("g", [5], "bad generator index 5"),
    ("mu", {"range": 0, "edges": [[1, 7]]}, "no edge [1, 7]"),
    ("mu", None, "missing field 'mu'"),
    ("re", True, "re and im must be numbers"),
    ("im", False, "re and im must be numbers"),
], ids=["integer-g", "unknown-generator", "unknown-edge", "missing-mu",
        "boolean-re", "boolean-im"])
def test_kms_eval_rejects_bad_element_rows(tmp_path, capsys, field, value,
                                           message):
    model = gen_file(tmp_path, "odo2.json", "gen", "odometer", "--n", "2")
    row = {"mu": {"range": 0, "edges": []}, "g": [],
           "nu": {"range": 0, "edges": []}, "re": 1.0, "im": 0.0}
    row[field] = value
    if value is None:
        del row[field]
    element = tmp_path / "element.json"
    element.write_text(json.dumps([row]))
    assert main(["kms-eval", str(model), "--samples", "0",
                 "--element", str(element)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: element row 0")
    assert message in err


def test_kms_eval_bad_trace_exit(tmp_path, capsys):
    model = gen_file(tmp_path, "odo22.json", "gen", "odometer", "--n", "2,2")
    assert main(["kms-eval", str(model),
                 "--trace", "mixture:0.5@0.1"]) == EXIT_INVALID
    assert "convex" in capsys.readouterr().err
    assert main(["kms-eval", str(model),
                 "--trace", "banana"]) == EXIT_INVALID
    assert "unknown trace" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["-5", "x"])
def test_kms_eval_rejects_bad_sample_count(tmp_path, capsys, samples):
    model = gen_file(tmp_path, "odo2.json", "gen", "odometer", "--n", "2")
    with pytest.raises(SystemExit) as stop:
        main(["kms-eval", str(model), "--samples", samples])
    assert stop.value.code == EXIT_INVALID
    assert "--samples: must be an integer at least 0" in \
        capsys.readouterr().err


@pytest.mark.parametrize("flag,value,message", [
    ("--tol", "0", "--tol: must be a positive finite number"),
    ("--tol", "-1", "--tol: must be a positive finite number"),
    ("--tol", "nan", "--tol: must be a positive finite number"),
    ("--tol", "inf", "--tol: must be a positive finite number"),
    ("--box", "-1", "--box: must be an integer at least 0"),
    ("--ball", "-1", "--ball: must be an integer at least 0"),
])
def test_search_flags_reject_bad_values(tmp_path, capsys, flag, value,
                                        message):
    # --tol 0 or below made every model's simplex empty; NaN made it
    # nonempty and wrote "tol": NaN, which is not JSON
    model = gen_file(tmp_path, "odo22.json", "gen", "odometer", "--n", "2,2")
    for verb in ("analyze", "per", "kms-eval"):
        with pytest.raises(SystemExit) as stop:
            main([verb, str(model), flag, value])
        assert stop.value.code == EXIT_INVALID
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("trace", ["character:nan", "character:inf",
                                   "mixture:nan@0.1"])
def test_kms_eval_rejects_non_finite_traces(tmp_path, capsys, trace):
    model = gen_file(tmp_path, "odo22.json", "gen", "odometer", "--n", "2,2")
    assert main(["kms-eval", str(model), "--trace", trace]) == EXIT_INVALID
    assert "must be finite" in capsys.readouterr().err


def test_kms_eval_check_cap_exits_3(tmp_path, capsys):
    # 14,112**2 + 100 checks at the defaults, refused before any product
    model = gen_file(tmp_path, "odo623.json", "gen", "odometer",
                     "--n", "6,2,3")
    assert main(["kms-eval", str(model)]) == EXIT_CAPPED
    err = capsys.readouterr().err
    assert "199148644 checks" in err
    assert "max_checks cap of 10000000" in err
    assert "--max-checks" in err


def test_kms_eval_invalid_model_exit(tmp_path, capsys):
    doc = base_doc(tmp_path)
    doc["squares"] = []
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["kms-eval", str(path)]) == EXIT_INVALID
    assert "factorization" in capsys.readouterr().err


def one_way_model_path(tmp_path):
    # a valid 1-graph that is not strongly connected: loops at a and b
    # and one edge a -> b, under the identity
    edges = [[Edge(0, 0, 0, 0), Edge(1, 0, 1, 1), Edge(2, 0, 0, 1)]]
    graph = KGraph(1, 2, edges, {}, vertex_names=("a", "b"))
    fixed = GeneratorTable("e", (0, 1), {(0, e): e for e in range(3)},
                           {(0, e): () for e in range(3)})
    path = tmp_path / "one_way.json"
    path.write_bytes(canonical_bytes(emit_model(graph, ActionSystem(
        graph, (fixed,)))))
    return path


@pytest.mark.parametrize("argv", [
    ["gen", "odometer", "--n", "1"],
    ["gen", "katsura", "--t", "2,1", "--b", "1,1,1"],
    ["per"], ["kms-eval"], ["analyze"]],
    ids=["odometer", "katsura", "per", "kms-eval", "missing-model"])
def test_library_errors_exit_2(tmp_path, capsys, argv):
    # spectral_data refuses the graph of per and kms-eval; analyze gets
    # a model file that is not there
    if argv[0] != "gen":
        model = (tmp_path / "missing.json" if argv[0] == "analyze"
                 else one_way_model_path(tmp_path))
        argv = argv + [str(model)]
    assert main(argv) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_analyze_exits_2_when_the_perron_stage_fails(tmp_path, capsys):
    assert main(["analyze", str(one_way_model_path(tmp_path))]) \
        == EXIT_INVALID
    report = json.loads(capsys.readouterr().out)
    assert report["validation"]["valid"]
    assert report["perron"] == {
        "error": "spectral data needs a strongly connected graph"}


def run_python(*argv):
    src = str(Path(ssgraph.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=path))


def test_python_dash_m_runs_the_cli():
    proc = run_python("-W", "error", "-m", "ssgraph", "gen", "odometer",
                      "--n", "2")
    assert proc.returncode == EXIT_OK
    assert proc.stderr == b""
    assert json.loads(proc.stdout)["schema"] == MODEL_SCHEMA


def test_import_loads_no_numeric_library():
    proc = run_python(
        "-c", "import sys, ssgraph; sys.exit('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_dataclasses_or_inspect():
    # records are named tuples, so no verb pays for either module
    proc = run_python("-c", "import sys, ssgraph, ssgraph.cli, ssgraph.kms, "
                      "ssgraph.models; print(sorted({'dataclasses', "
                      "'inspect'} & sys.modules.keys()))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"[]\n"
