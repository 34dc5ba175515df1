"""Per-layer tracing of ssgraph from outside the package.

Each public entry point of a computational module is replaced, on its
defining module or class and at every module that imported it by name,
by a wrapper that records a span: its name, its parent span and its
self time (duration minus the time covered by child spans).  Spans are
aggregated in memory per (parent, name) edge, because the hot layers
are entered millions of times and storing each span would cost more
than the work it measures.  Nothing under ``src/`` is modified.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

# (span name, module, attribute or Class.method).  Several entries may
# share a span name; they then count as one layer boundary.
SPANS = (
    ("kgraph.compose", "kgraph", "KGraph.compose"),
    ("kgraph.split_front", "kgraph", "KGraph.split_front"),
    ("kgraph.lambda_min", "kgraph", "KGraph.lambda_min"),
    ("kgraph.paths_of_degree", "kgraph", "KGraph.paths_of_degree"),
    ("kgraph.path", "kgraph", "KGraph.path"),
    ("action.word_ball", "action", "ActionSystem.word_ball"),
    ("action.restriction_closure", "action",
     "ActionSystem.restriction_closure"),
    ("action.multiply", "action", "ActionSystem.multiply"),
    ("action.inverse", "action", "ActionSystem.inverse"),
    ("action.act_path", "action", "ActionSystem.act_path"),
    ("action.restrict_edge", "action", "ActionSystem.restrict_edge"),
    ("action.restrict_path", "action", "ActionSystem.restrict_path"),
    ("action.validate_action", "action", "validate_action"),
    ("action.hypotheses", "action", "check_pseudo_free"),
    ("action.hypotheses", "action", "check_locally_faithful"),
    ("periodicity.periodicity_group", "periodicity", "periodicity_group"),
    ("periodicity.is_cycline", "periodicity", "is_cycline"),
    ("periodicity.cycline_partner", "periodicity", "cycline_partner"),
    ("perron.rho_power_is_one", "perron", "rho_power_is_one"),
    ("perron.spectral_data", "perron", "spectral_data"),
    ("intlattice.hnf_basis", "intlattice", "hnf_basis"),
    ("intlattice.lattice_coordinates", "intlattice", "lattice_coordinates"),
    ("algebra.multiply", "algebra", "multiply"),
    ("kms.make_kms_state", "kms", "make_kms_state"),
    ("kms.verify_kms", "kms", "verify_kms"),
    ("kms.simplex_summary", "kms", "simplex_summary"),
    ("kms.evaluate", "kms", "evaluate"),
    ("cli.parse_model", "cli", "parse_model"),
    ("cli.run_analysis", "cli", "run_analysis"),
    ("cli.canonical_bytes", "cli", "canonical_bytes"),
)

MODULES = ("kgraph", "action", "periodicity", "perron", "intlattice",
           "algebra", "kms", "cli")


class Tracer:
    """Span aggregation plus the work counters read at span exits."""

    def __init__(self):
        self.stack: list[list] = []      # open spans: [name, child seconds]
        self.edges: dict = {}            # (parent, name) -> [calls, self s]
        self.counts: dict[str, float] = {}
        self.cycline_keys: set = set()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, hook=None):
        stack = self.stack
        edges = self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    key = (parent[0], name)
                else:
                    key = ("", name)
                edge = edges.get(key)
                if edge is None:
                    edges[key] = [1, elapsed - frame[1]]
                else:
                    edge[0] += 1
                    edge[1] += elapsed - frame[1]
            if hook is not None:
                hook(args, result)
            return result

        span.__wrapped_span__ = name
        return span

    def spans(self) -> dict[str, list]:
        """Per span name: [calls, self seconds], summed over parents."""
        out: dict[str, list] = {}
        for (_, name), (calls, self_s) in self.edges.items():
            total = out.setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += self_s
        return out

    # -- work counters read from arguments and results ------------------

    def _hooks(self):
        return {
            "action.word_ball":
                lambda args, out: self.count("action.ball_size", len(out)),
            "action.restriction_closure":
                lambda args, out: self.count("action.closure_size", len(out)),
            "periodicity.is_cycline":
                lambda args, out: self.cycline_keys.add(
                    (args[1], args[2].key, args[3])),
            "perron.rho_power_is_one":
                lambda args, out: self.count("periodicity.box_survivors",
                                             bool(out)),
            "perron.spectral_data":
                lambda args, out: self.count("perron.iterations",
                                             out.iterations),
            "algebra.multiply":
                lambda args, out: self.count("algebra.product_terms",
                                             len(out.terms)),
            "kms.evaluate":
                lambda args, out: self.count("kms.evaluate.nonzero",
                                             out != 0),
        }

    def install(self, package) -> None:
        """Wrap every entry point of ``SPANS`` wherever it is bound."""
        hooks = self._hooks()
        loaded = [mod for key, mod in sys.modules.items()
                  if key == package.__name__
                  or key.startswith(package.__name__ + ".")]
        for name, module_name, attr in SPANS:
            module = sys.modules[f"{package.__name__}.{module_name}"]
            hook = hooks.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                base = getattr(module, cls_name)
                for mod in loaded:
                    for cls in vars(mod).values():
                        if inspect.isclass(cls) and issubclass(cls, base) \
                                and meth in vars(cls):
                            original = vars(cls)[meth]
                            if not hasattr(original, "__wrapped_span__"):
                                setattr(cls, meth,
                                        self.wrap(name, original, hook))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, hook)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)


def metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by name."""
    spans = tracer.spans()

    def calls(name):
        return spans.get(name, [0, 0.0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0])[1]

    out: dict[str, float] = {}
    for name in ("kgraph.compose", "kgraph.split_front", "kgraph.lambda_min",
                 "kgraph.paths_of_degree", "kgraph.path",
                 "action.word_ball", "action.restriction_closure",
                 "action.multiply", "action.inverse", "action.act_path",
                 "action.restrict_edge", "action.restrict_path",
                 "periodicity.periodicity_group", "periodicity.is_cycline",
                 "periodicity.cycline_partner", "perron.spectral_data",
                 "intlattice.hnf_basis", "intlattice.lattice_coordinates",
                 "algebra.multiply", "kms.evaluate"):
        out[name + ".calls"] = calls(name)
        out[name + ".self_s"] = self_s(name)
    for name in ("action.validate_action", "action.hypotheses",
                 "kms.make_kms_state", "kms.verify_kms", "cli.parse_model",
                 "cli.run_analysis", "cli.canonical_bytes"):
        out[name + ".self_s"] = self_s(name)
    out["kms.simplex_summary.calls"] = calls("kms.simplex_summary")
    for name in ("action.ball_size", "action.closure_size",
                 "perron.iterations", "algebra.product_terms"):
        out[name] = tracer.counts.get(name, 0)
    cycline_calls = calls("periodicity.is_cycline")
    distinct = len(tracer.cycline_keys)
    out["periodicity.is_cycline.distinct"] = distinct
    out["periodicity.is_cycline.reuse_ratio"] = \
        1 - distinct / cycline_calls if cycline_calls else 0.0
    out["periodicity.box_candidates"] = calls("perron.rho_power_is_one")
    out["periodicity.box_survivors"] = \
        tracer.counts.get("periodicity.box_survivors", 0)
    evaluations = calls("kms.evaluate")
    out["kms.evaluate.nonzero_ratio"] = \
        tracer.counts.get("kms.evaluate.nonzero", 0) / evaluations \
        if evaluations else 0.0
    return out


def layer_self_seconds(tracer: Tracer) -> dict[str, float]:
    """Self time summed per module, for the layer split."""
    out = {module: 0.0 for module in MODULES}
    for name, (_, self_s) in tracer.spans().items():
        out[name.split(".")[0]] += self_s
    return out


def top_edges(tracer: Tracer, limit: int = 8) -> list[tuple]:
    """The (parent, name, calls, self seconds) edges with most self time."""
    rows = [(parent or "<job>", name, calls, self_s)
            for (parent, name), (calls, self_s) in tracer.edges.items()]
    rows.sort(key=lambda row: -row[3])
    return rows[:limit]
