"""Workloads of the benchmark: their jobs, their seeded input documents
and the answers each job must give.

A job is one invocation of the ``analyze`` or ``kms-eval`` verb.  Its
model is either a ``ssgraph/1`` document (the generic word engine, as
``ssgraph gen`` + ``analyze`` runs it) or a ``build_*`` constructor
call (the exact integer engine).  Every expected answer is derived here
from the model's definition with the standard library; none of it comes
from the package under test.
"""
from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

MODELS = Path(__file__).resolve().parent / "models"

ODO_623 = (6, 2, 3)
KATSURA_T = [[2, 1], [1, 2]]
KATSURA_B = [[1, 1], [1, 1]]


def _job(name, verb, model, box, ball, trace="haar", samples=0,
         expect=None):
    return {"name": name, "verb": verb, "model": model, "box": box,
            "ball": ball, "trace": trace, "samples": samples,
            "expect": expect}


def jobs(workload: str, seed: int) -> list[dict]:
    """The jobs of a workload, with documents permuted by ``seed``."""
    rng = random.Random(seed)
    if workload == "path-layer":
        # +1 moves every edge and restricts to 0 or 1
        odometer = {"closure": 2, "pseudo_free": True,
                    "locally_faithful": True}
        odo623 = _odometer_doc(ODO_623, 4, 3, rng)
        return [
            _analyze_job("odometer-623-doc", odo623, **odometer),
            _analyze_job("odometer-623-exact", odo623,
                         model={"build": "odometer", "n": list(ODO_623)},
                         **odometer),
            _analyze_job("odometer-22-doc", _odometer_doc((2, 2), 8, 3, rng),
                         **odometer),
            _analyze_job("odometer-24-doc", _odometer_doc((2, 4), 8, 3, rng),
                         **odometer),
            _kms_job("odometer-22-kms", _odometer_doc((2, 2), 4, 3, rng),
                     "character:0.3", 500),
            _kms_job("katsura-kms", _katsura_doc(rng), "haar", 500),
        ]
    if workload == "group-ball":
        adding = _stress_doc("adding_machine", rng)
        # closure sizes and hypotheses follow from the recursions in each
        # document's metadata: Grigorchuk d = (1, b) and basilica
        # a = (1, b) fix an edge and restrict to 1 there, so neither is
        # pseudo-free; the adding machine moves every edge, so it is
        return [
            _analyze_job("grigorchuk", _stress_doc("grigorchuk", rng),
                         closure=5, pseudo_free=False, locally_faithful=True),
            _analyze_job("basilica", _stress_doc("basilica", rng),
                         closure=3, pseudo_free=False, locally_faithful=True),
            _analyze_job("adding-machine", adding, closure=2,
                         pseudo_free=True, locally_faithful=True),
            _kms_job("adding-machine-kms", adding, "haar", 4000),
        ]
    raise KeyError(workload)


def _analyze_job(name, doc, model=None, **expect):
    """``analyze`` at the box and ball recorded in the document; ``model``
    replaces the document by a constructor call."""
    meta = doc["metadata"]
    return _job(name, "analyze", model or {"doc": doc}, meta["box"],
                meta["ball"], expect=_analyze_expect(doc, **expect))


def _kms_job(name, doc, trace, samples):
    """``kms-eval`` as the CLI runs it, at box 4 and ball 3.  Every
    model here has restriction closure {0, 1} under +1."""
    small = 2 * sum(p * p for p in _paths_up_to_ones(doc))
    expect = {"basis": _expected_basis(doc, 4), "pairs": small * small
              + samples, "small": small}
    return _job(name, "kms-eval", {"doc": doc}, 4, 3, trace, samples,
                expect)


def _analyze_expect(doc, closure, pseudo_free, locally_faithful):
    meta = doc["metadata"]
    return {"basis": _expected_basis(doc, meta["box"]), "closure": closure,
            "pseudoFree": pseudo_free, "locallyFaithful": locally_faithful}


# -- documents -------------------------------------------------------------

def _emit(system, metadata):
    from ssgraph.cli import emit_model
    return emit_model(system.graph, system, metadata)


def _odometer_doc(n, box, ball, rng):
    from ssgraph.models import build_odometer
    doc = _emit(build_odometer(n), {"model": "odometer", "n": list(n),
                                    "box": box, "ball": ball})
    return permute(doc, rng) if rng else doc


def _katsura_doc(rng):
    from ssgraph.models import build_katsura
    doc = _emit(build_katsura(KATSURA_T, KATSURA_B),
                {"model": "katsura", "t": KATSURA_T, "b": KATSURA_B,
                 "box": 4, "ball": 3})
    return permute(doc, rng)


def _stress_doc(name, rng):
    with open(MODELS / f"{name}.json", encoding="utf-8") as handle:
        return permute(json.load(handle), rng)


def permute(doc: dict, rng: random.Random) -> dict:
    """Relabel the vertices and the edge ids within each colour.

    The result presents the same action, so every answer is unchanged.
    """
    k = doc["k"]
    vertex = list(range(len(doc["vertices"])))
    rng.shuffle(vertex)
    ids = {}
    for color in range(1, k + 1):
        old = sorted(e["id"] for e in doc["edges"] if e["color"] == color)
        new = list(old)
        rng.shuffle(new)
        ids[color] = dict(zip(old, new))
    names = [None] * len(vertex)
    for old, new in enumerate(vertex):
        names[new] = doc["vertices"][old]
    edges = sorted(({"id": ids[e["color"]][e["id"]], "color": e["color"],
                     "source": vertex[e["source"]],
                     "range": vertex[e["range"]]} for e in doc["edges"]),
                   key=lambda e: (e["color"], e["id"]))
    squares = [{"i": s["i"], "j": s["j"], "f": ids[s["i"]][s["f"]],
                "g": ids[s["j"]][s["g"]], "gPrime": ids[s["j"]][s["gPrime"]],
                "fPrime": ids[s["i"]][s["fPrime"]]} for s in doc["squares"]]
    generators = []
    for gen in doc["generators"]:
        rows = sorted(({"color": r["color"],
                        "edge": ids[r["color"]][r["edge"]],
                        "image": [r["color"], ids[r["color"]][r["image"][1]]],
                        "restrictionWord": list(r["restrictionWord"])}
                       for r in gen["edgeAction"]),
                      key=lambda r: (r["color"], r["edge"]))
        generators.append({"name": gen["name"], "edgeAction": rows})
    return dict(doc, vertices=names, edges=edges, squares=squares,
                generators=generators)


# -- expected answers ------------------------------------------------------

def _prime_exponents(m: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _expected_basis(doc, box):
    """Hermite basis of the periodicity lattice inside the box.

    Rank 1 with every radius above 1 leaves no nonzero z with
    rho ** z == 1.  On one vertex, rho is the loop count per colour
    and the lattice of an odometer is every box vector with
    rho ** z == 1, found here on prime exponent vectors.
    """
    k = doc["k"]
    if k == 1:
        return []
    if len(doc["vertices"]) != 1:
        raise ValueError("expected lattices are known for one vertex only")
    n = [sum(1 for e in doc["edges"] if e["color"] == c)
         for c in range(1, k + 1)]
    primes = sorted({p for m in n for p in _prime_exponents(m)})
    rows = [[_prime_exponents(m).get(p, 0) for m in n] for p in primes]
    members = [z for z in itertools.product(range(-box, box + 1), repeat=k)
               if any(z) and all(sum(r * v for r, v in zip(row, z)) == 0
                                 for row in rows)]
    return hermite_basis(members, k)


def hermite_basis(vectors, k: int) -> list[list[int]]:
    """Row Hermite normal form: echelon rows, positive pivots, entries
    above each pivot reduced into [0, pivot)."""
    rows = [list(v) for v in vectors if any(v)]
    basis = []
    for col in range(k):
        while sum(1 for r in rows if r[col]) > 1:
            live = sorted((r for r in rows if r[col]), key=lambda r: abs(r[col]))
            pivot = live[0]
            for r in live[1:]:
                q = r[col] // pivot[col]
                r[:] = [a - q * b for a, b in zip(r, pivot)]
            rows = [r for r in rows if any(r)]
        live = [r for r in rows if r[col]]
        if live:
            rows.remove(live[0])
            basis.append(live[0] if live[0][col] > 0
                         else [-a for a in live[0]])
    for i, row in enumerate(basis):
        col = next(c for c, a in enumerate(row) if a)
        for above in basis[:i]:
            q = above[col] // row[col]
            above[:] = [a - q * b for a, b in zip(above, row)]
    return basis


def _paths_up_to_ones(doc) -> list[int]:
    """Per source vertex, the paths of degree at most (1, ..., 1).

    Coordinate matrices of a k-graph commute, so the paths of degree
    e_S from r to s number (prod of M_c over c in S)[r][s].  Monomials
    (mu, g, nu) need s(mu) = g.s(nu); the generators here fix every
    vertex, which is checked, so each source vertex w contributes
    P(w) ** 2 pairs (mu, nu) per group element.
    """
    k = doc["k"]
    size = len(doc["vertices"])
    mats = [[[0] * size for _ in range(size)] for _ in range(k)]
    ends = {}
    for e in doc["edges"]:
        mats[e["color"] - 1][e["range"]][e["source"]] += 1
        ends[(e["color"], e["id"])] = (e["source"], e["range"])
    for gen in doc["generators"]:
        for row in gen["edgeAction"]:
            if ends[(row["color"], row["edge"])] != \
                    ends[(row["color"], row["image"][1])]:
                raise ValueError(f"generator {gen['name']} moves a vertex")
    per_source = [0] * size
    for subset in itertools.product((0, 1), repeat=k):
        prod = [[int(r == s) for s in range(size)] for r in range(size)]
        for color, used in enumerate(subset):
            if used:
                prod = [[sum(prod[r][t] * mats[color][t][s]
                             for t in range(size)) for s in range(size)]
                        for r in range(size)]
        for s in range(size):
            per_source[s] += sum(prod[r][s] for r in range(size))
    return per_source


def check(job: dict, result: dict) -> list[str]:
    """Problems with one job's answer; empty when it is right."""
    expect = job["expect"]
    report = result.get("report")
    if result.get("error"):
        return [result["error"]]
    problems = []
    if job["verb"] == "analyze":
        if report.get("capped") or not report["validation"]["valid"]:
            problems.append("report is capped or invalid")
        hyp = report.get("hypotheses", {})
        for key in ("pseudoFree", "locallyFaithful"):
            if hyp.get(key) is not expect[key]:
                problems.append(f"{key} {hyp.get(key)} != {expect[key]}")
        if hyp.get("closureSize") != expect["closure"]:
            problems.append(f"closure {hyp.get('closureSize')} != "
                            f"{expect['closure']}")
        basis = report.get("periodicity", {}).get("basis")
        kms_rank = report.get("kms", {}).get("rank")
    else:
        verify = report.get("verify", {})
        if not verify.get("ok"):
            problems.append(f"verify_kms not ok: {verify}")
        if verify.get("checked") != expect["pairs"]:
            problems.append(f"checked {verify.get('checked')} != "
                            f"{expect['pairs']}")
        basis = report.get("basis")
        kms_rank = report.get("rank")
    if basis != expect["basis"]:
        problems.append(f"lattice basis {basis} != {expect['basis']}")
    if kms_rank != len(expect["basis"]):
        problems.append(f"KMS rank {kms_rank} != {len(expect['basis'])}")
    return problems
