"""Span tracing of g2sextic from outside the package.

The tracer replaces selected public functions and methods with wrappers
that record one span per call: (name, start, end, parent).  Every binding
of an original object is replaced, so names imported elsewhere with
``from .module import name`` and aliases such as ``Poly.__rmul__ =
__mul__`` are traced too.  Spans stay in memory (four flat arrays) and are
written when the run ends; per-name aggregates are kept on the fly so that
reporting costs nothing extra.

Self time of a span is its duration minus the durations of its direct
child spans; ``.s`` metrics are inclusive and count only the outermost
span of a name, so recursion (``poly_gcd``) is not counted twice.
"""

from __future__ import annotations

import array
import importlib
import inspect
import json
import sys
import time

PACKAGE = "g2sextic"

# metric prefix -> (module, attribute path) of each traced callable.
# The criterion functions are the acceptance criteria C01..C12.
TRACED = (
    ("cli.c01", "cli", "criterion_structure_equations"),
    ("cli.c02", "cli", "criterion_cocalibration"),
    ("cli.c03", "cli", "criterion_realization"),
    ("cli.c04", "cli", "criterion_intermediate_metric"),
    ("cli.c05", "cli", "criterion_signatures"),
    ("cli.c06", "cli", "criterion_invariant_theory"),
    ("cli.c07", "cli", "criterion_curvature_law"),
    ("cli.c08", "cli", "criterion_lemma"),
    ("cli.c09", "cli", "criterion_eta_and_triviality"),
    ("cli.c10", "cli", "criterion_sampling_oracle"),
    ("cli.c11", "cli", "criterion_lift_and_transversality"),
    ("cli.c12", "cli", "criterion_corpus"),
    ("cli.emit", "cli", "emit"),
    ("wilczynski.generalized_theta", "wilczynski", "generalized_theta"),
    ("wilczynski.curvature_ode", "wilczynski", "curvature_ode"),
    ("wilczynski.classical_theta", "wilczynski", "classical_theta"),
    ("wilczynski.classical_theta_of_ode", "wilczynski", "classical_theta_of_ode"),
    ("wilczynski.jets_along_curve", "wilczynski", "jets_along_curve"),
    ("diffpoly.poly_mul", "diffpoly", "Poly.__mul__"),
    ("diffpoly.exact_div", "diffpoly", "Poly.exact_div"),
    ("diffpoly.evaluate", "diffpoly", "Poly.evaluate"),
    ("diffpoly.derivative", "diffpoly", "JetFunction.derivative"),
    ("diffpoly.derivative", "diffpoly", "ExtendedJetFunction.derivative"),
    ("diffpoly.poly_gcd", "diffpoly", "poly_gcd"),
    ("scalar.mul", "scalar", "AlgebraicScalar.__mul__"),
    ("scalar.inv", "scalar", "AlgebraicScalar.inv"),
    ("exterior.wedge", "exterior", "wedge"),
    ("exterior.d", "exterior", "d"),
    ("exterior.hodge_star", "exterior", "hodge_star"),
    ("liealg.extract_structure_constants", "liealg", "extract_structure_constants"),
    ("liealg.derive_invariance_form", "liealg", "derive_invariance_form"),
    ("g2verify.verify_cocalibrated", "g2verify", "verify_cocalibrated"),
    ("g2verify.g2_identities", "g2verify", "g2_identities"),
    ("binform.transvectant", "binform", "transvectant"),
    ("binform.gl2_act", "binform", "gl2_act"),
    ("orbit.signature", "orbit", "signature"),
)

THETA_ORDERS = range(7, 13)  # classical_theta(n) is timed per n for these


class Stats:
    __slots__ = ("calls", "self_ns", "incl_ns", "depth")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.incl_ns = 0
        self.depth = 0


class Tracer:
    """Installs wrappers, records spans, and reports per-layer metrics."""

    def __init__(self):
        self.names: list[str] = []
        self.stats: dict[str, Stats] = {}
        self.span_name = array.array("i")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self.span_parent = array.array("q")
        self._open: list[list] = []  # [span index, child ns] per open span
        self.hits = 0  # exact_div calls with a quotient
        self.poly_terms_max = 0
        self.p_terms_max = 0
        self.theta_ns = {n: 0 for n in THETA_ORDERS}
        self._theta_cache = None

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        importlib.import_module(f"{PACKAGE}.cli")  # loads every module
        loaded = [m for name, m in sys.modules.items()
                  if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for metric, module_name, path in TRACED:
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            for part in path.split("."):
                owner = getattr(owner, part)
            wrapper = self._wrap(metric, owner, self._observer(metric))
            if metric == "wilczynski.classical_theta":
                self._theta_cache = owner
            replaced = 0
            for namespace in self._namespaces(loaded):
                for attr, value in list(vars(namespace).items()):
                    if value is owner:
                        setattr(namespace, attr, wrapper)
                        replaced += 1
            if not replaced:
                raise RuntimeError(f"no binding of {module_name}.{path} found")

    @staticmethod
    def _namespaces(modules):
        for module in modules:
            yield module
            for value in vars(module).values():
                if inspect.isclass(value) and value.__module__.startswith(PACKAGE):
                    yield value

    def _observer(self, metric):
        if metric == "diffpoly.exact_div":
            def observe(args, result):
                if result is not None:
                    self.hits += 1
            return observe
        if metric == "diffpoly.poly_mul":
            def observe(args, result):
                n = len(result.terms)
                if n > self.poly_terms_max:
                    self.poly_terms_max = n
            return observe
        if metric == "wilczynski.classical_theta":
            def observe(args, result):
                for data in result.values():
                    n = len(data["p"].terms)
                    if n > self.p_terms_max:
                        self.p_terms_max = n
            return observe
        return None

    def _wrap(self, metric, fn, observe):
        stats = self.stats.setdefault(metric, Stats())
        name_id = len(self.names)
        self.names.append(metric)
        clock = time.perf_counter_ns
        open_spans = self._open
        span_name, span_start = self.span_name, self.span_start
        span_end, span_parent = self.span_end, self.span_parent
        theta_ns = self.theta_ns if metric == "wilczynski.classical_theta" else None

        def traced(*args, **kwargs):
            index = len(span_start)
            span_name.append(name_id)
            span_parent.append(open_spans[-1][0] if open_spans else -1)
            span_end.append(0)
            frame = [index, 0]
            open_spans.append(frame)
            stats.depth += 1
            start = clock()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                span_end[index] = end
                open_spans.pop()
                duration = end - start
                stats.calls += 1
                stats.self_ns += duration - frame[1]
                stats.depth -= 1
                if not stats.depth:
                    stats.incl_ns += duration
                if open_spans:
                    open_spans[-1][1] += duration
                if theta_ns is not None and args and args[0] in theta_ns:
                    theta_ns[args[0]] += duration
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- output -----------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Binary dump: a JSON header line with the name table, then the
        four int64/int32 arrays (name, start, end, parent) back to back."""
        with open(path, "wb") as out:
            header = {"names": self.names, "spans": len(self.span_start),
                      "arrays": ["name:i32", "start_ns:i64", "end_ns:i64",
                                 "parent:i64"]}
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_start, self.span_end,
                        self.span_parent):
                arr.tofile(out)

    def metrics(self) -> dict:
        """Calls, self time and inclusive time of every traced name, plus
        the derived counters; BENCHMARK.json's per_layer list picks the
        ones that are reported.  The criteria are named ``cli.cNN_s``."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_ns / 1e9
            out[f"{name}_s" if name.startswith("cli.") else f"{name}.s"] = st.incl_ns / 1e9
        ed = self.stats["diffpoly.exact_div"]
        out["diffpoly.exact_div.hit_ratio"] = self.hits / ed.calls if ed.calls else 0.0
        out["diffpoly.poly_mul.terms_max"] = self.poly_terms_max
        out["wilczynski.classical_theta.p_terms_max"] = self.p_terms_max
        out["wilczynski.classical_theta.cache_hits"] = self._theta_cache.cache_info().hits
        for n in THETA_ORDERS:
            out[f"wilczynski.classical_theta.n{n}_s"] = self.theta_ns[n] / 1e9
        return out
