"""In-memory span tracer that wraps the package's public functions.

Nothing in ``src/`` changes: the tracer replaces module attributes.  A call
that looks a name up on its module at call time (``kernels.apply_columns``,
``affine.normalize`` from the benchmark, ``_compose`` calling
``diagram_of_word`` inside ``affine``) then goes through a wrapper that
records a span: name, start, end and parent.  Names a module imported from
another module are wrapped in the importing module, under the name of the
module that defines them, so ``brauer.evaluate_word`` records a
``tensoraction.evaluate_word`` span.

Self time is a span's duration minus the time its direct children cover; it
is aggregated per span name and per layer while the run goes, so the totals
stay exact even past the cap on stored spans.  A layer is the module prefix
of the span name, except that kernel spans count towards the layer of their
parent span (the kernels are the inner loops of whichever layer calls them).
"""

import array
import functools
import json
import time

LAYERS = ("wordparse", "affine", "brauer", "tensoraction", "exactla",
          "kernels", "documents")

# (module, attribute, span name) for names a module imported from another
# module and calls through its own globals.
CROSS_MODULE = (
    ("affine", "canonical_word", "brauer.canonical_word"),
    ("affine", "diagram_of_word", "brauer.diagram_of_word"),
    ("affine", "diagram_multiply", "brauer.multiply"),
    ("affine", "enumerate_diagrams", "brauer.enumerate_diagrams"),
    ("affine", "jm_element", "brauer.jm_element"),
    ("affine", "evaluate_word", "tensoraction.evaluate_word"),
    ("affine", "evaluate_word_sum", "tensoraction.evaluate_word_sum"),
    ("brauer", "evaluate_word", "tensoraction.evaluate_word"),
    ("brauer", "mat_mul", "exactla.mat_mul"),
    ("tensoraction", "mat_mul", "exactla.mat_mul"),
)

# Public functions wrapped on their own module, so that both the benchmark
# and the module's internal callers record spans.
OWN = {
    "wordparse": ("parse_expression",),
    "documents": ("to_document", "from_document", "dumps", "loads"),
    "affine": ("normalize", "multiply", "tensor_image", "pi_m_word", "pi_m",
               "pbw_rank_check", "enumerate_regular", "to_daha"),
    "brauer": ("diagram_of_word", "multiply", "psi_image", "canonical_word",
               "enumerate_diagrams", "jm_element", "matching_of_operator"),
    "tensoraction": ("evaluate_word", "evaluate_word_sum",
                     "apply_word_to_vector", "g_action", "check_equivariance",
                     "commutant_dimension"),
    "exactla": ("mat_mul", "rank", "solve_in_span"),
    "kernels": ("combine_scaled", "apply_columns", "matmul_dicts",
                "bareiss_rank", "reduce_against"),
}

# Exact counts taken from a span's return value.
COUNTERS = {
    "affine.normalize": ("affine.terms_out", lambda r: len(r.terms)),
    "affine.multiply": ("affine.terms_out", lambda r: len(r.terms)),
    "tensoraction.evaluate_word": ("tensoraction.op_nnz",
                                   lambda r: len(r.matrix.entries)),
    "tensoraction.evaluate_word_sum": ("tensoraction.op_nnz",
                                       lambda r: len(r.matrix.entries)),
}


class Tracer:
    """Keeps spans in compact arrays and aggregates self time online."""

    def __init__(self, max_spans):
        self.max_spans = max_spans
        self.names = []
        self._ids = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self.dropped = 0
        self.calls = []
        self.self_ns = []
        self.layer_self_ns = {layer: 0 for layer in LAYERS}
        self.counters = {}
        self.enabled = False
        self._stack = []     # frames: [name id, span index, child ns]
        self._t0 = time.perf_counter_ns()

    def intern(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return nid

    def wrap(self, fn, name):
        nid = self.intern(name)
        count = COUNTERS.get(name)
        layer = name.split(".", 1)[0]
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if stack:
                parent_frame = stack[-1]
                parent_span = parent_frame[1]
            else:
                parent_frame = None
                parent_span = -1
            t0 = clock()
            idx = len(self.span_name)
            keep = idx < self.max_spans
            if keep:
                self.span_name.append(nid)
                self.span_parent.append(parent_span)
                self.span_start.append(t0 - self._t0)
                self.span_end.append(0)
            else:
                self.dropped += 1
                idx = -1
            frame = [nid, idx, 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[2]
                if parent_frame is not None:
                    parent_frame[2] += dur
                if keep:
                    self.span_end[idx] = t1 - self._t0
                self.calls[nid] += 1
                self.self_ns[nid] += own
                owner = layer
                if layer == "kernels" and parent_frame is not None:
                    owner = self.names[parent_frame[0]].split(".", 1)[0]
                self.layer_self_ns[owner] += own
            if count is not None:
                key, measure = count
                self.counters[key] = self.counters.get(key, 0) + measure(result)
            return result

        return traced

    def install(self, modules):
        """Wrap every listed name; ``modules`` maps a layer to its module."""
        for layer, attrs in OWN.items():
            mod = modules[layer]
            for attr in attrs:
                setattr(mod, attr, self.wrap(getattr(mod, attr),
                                             f"{layer}.{attr}"))
        for layer, attr, name in CROSS_MODULE:
            mod = modules[layer]
            setattr(mod, attr, self.wrap(getattr(mod, attr), name))
        matrix = modules["exactla"].SparseMatrix
        matrix.__eq__ = self.wrap(matrix.__eq__, "exactla.operator_eq")

    def function_stats(self, name):
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0
        return self.calls[nid], self.self_ns[nid] / 1e9

    def layer_self_s(self):
        return {layer: ns / 1e9 for layer, ns in self.layer_self_ns.items()}

    def write(self, path, meta):
        """Write the stored spans (start/end in ns from tracer creation)."""
        doc = {"meta": meta, "names": self.names,
               "dropped_spans": self.dropped,
               "spans": {"name": self.span_name.tolist(),
                         "parent": self.span_parent.tolist(),
                         "start_ns": self.span_start.tolist(),
                         "end_ns": self.span_end.tolist()}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
