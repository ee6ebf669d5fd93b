"""Span tracing around certlab's layer entry points, for traced runs only.

`Tracer.install` replaces each entry point named in LAYER_ENTRY_POINTS with a
wrapper that records one span per call: a name, a start, an end and the
span that was open when the call began (its parent).  Spans are kept in
memory and written out by `Tracer.write`.  The untraced runs never call
`install`, so they time certlab unwrapped.

An entry point that is no longer found where the table says is reported as
absent; the run still completes and its layer metrics read 0.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# (span name, module, attribute path).  Names shared by several entries
# (encode and decode of the formula encoding, construction and labelling of
# a concept) add up into one layer figure.
LAYER_ENTRY_POINTS = [
    ("sat.satisfying_mask", "certlab.sat", "satisfying_mask"),
    ("verifiers.encoding", "certlab.verifiers", "FormulaEncoding.encode"),
    ("verifiers.encoding", "certlab.verifiers", "FormulaEncoding.decode"),
    ("verifiers.accept_mask", "certlab.verifiers", "ThreeSatVerifier.accept_mask"),
    ("verifiers.first_certificate", "certlab.verifiers", "first_certificate"),
    ("codes.get_code", "certlab.codes", "get_code"),
    ("codes.decode_value", "certlab.codes", "LinearCode.decode_value"),
    ("concepts.CertConcept", "certlab.concepts", "CertConcept.__init__"),
    ("concepts.CertConcept", "certlab.concepts", "CertConcept.__call__"),
    ("concepts.build_decision_tree", "certlab.concepts", "build_decision_tree"),
    ("concepts.dt_eval", "certlab.concepts", "dt_eval"),
    ("paclearn.draw_sample", "certlab.paclearn", "draw_sample"),
    ("paclearn.error_of", "certlab.paclearn", "error_of"),
    ("paclearn.few_sample_learner", "certlab.paclearn", "few_sample_learner"),
    ("paclearn.sparse_erm", "certlab.paclearn", "sparse_erm"),
    ("reduction.rtime_decide", "certlab.reduction", "rtime_decide"),
    ("harness.cmd_tradeoff", "certlab.harness.commands", "cmd_tradeoff"),
]

# the learner callable the decide workload hands to the decider
LEARNER_SPAN = "reduction.learner"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self.absent: list[str] = []
        # counts read off arguments and results, by metric name
        self.counts: dict[str, int] = {}
        self.decodes: list[tuple[object, int, int]] = []
        self._codes_seen: set[int] = set()

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name: str, observe=None):
        """Return fn wrapped in a span.  observe(args, kwargs, result, span)
        runs after the span has ended; it only stores a few facts, and its
        small cost falls in the parent span's self time."""
        nid = self._name_id(name)
        stack = self._stack
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end,
        )
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result, idx)
            return result

        return traced

    # -- observers: counts that come from arguments and results --------------

    def _observe_get_code(self, args, kwargs, result, idx):
        if id(result) not in self._codes_seen:
            self._codes_seen.add(id(result))
            self.span_name[idx] = self._name_id("codes.get_code.build")

    def _observe_decode_value(self, args, kwargs, result, idx):
        self.decodes.append((args[0], args[1], result))

    def _observe_tree(self, args, kwargs, result, idx):
        self._count("concepts.tree_leaves", result.size)

    def _observe_rtime_decide(self, args, kwargs, result, idx):
        self._count("reduction.proofs_run", result.proofs_run)
        self._count("reduction.accepts", int(result.accept))

    def install(self) -> None:
        """Wrap every entry point in LAYER_ENTRY_POINTS, in place.

        Modules already imported have their references replaced; modules
        imported later bind the wrapped functions when they import them."""
        observers = {
            "codes.get_code": self._observe_get_code,
            "codes.decode_value": self._observe_decode_value,
            "concepts.build_decision_tree": self._observe_tree,
            "reduction.rtime_decide": self._observe_rtime_decide,
        }
        for name, module_name, path in LAYER_ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
                owner = module
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            if name == "verifiers.first_certificate":
                wrapped = self._wrap_first_certificate(original)
            else:
                wrapped = self.wrap(original, name, observers.get(name))
            if owner is module:
                _replace_everywhere(original, wrapped)
            else:
                setattr(owner, attr, wrapped)
        if self.absent:
            print("trace: absent entry points: " + ", ".join(self.absent), file=sys.stderr)

    def _wrap_first_certificate(self, original):
        """first_certificate reports its oracle calls and steps through a
        StepCounter; give it one when the caller did not, and read the
        counter's change over the call."""
        from certlab.verifiers import StepCounter

        traced = self.wrap(original, "verifiers.first_certificate")

        def with_counter(*args, **kwargs):
            if kwargs.get("counter") is None:
                kwargs["counter"] = StepCounter()
            counter = kwargs["counter"]
            calls, steps = counter.oracle_calls, counter.steps
            result = traced(*args, **kwargs)
            self._count("verifiers.oracle_calls", counter.oracle_calls - calls)
            self._count("verifiers.steps", counter.steps - steps)
            return result

        return with_counter

    def mark_timed(self) -> int:
        """Start the timed window: counts restart, and layer_totals and
        misses take only spans begun from now on.  Returns the start."""
        self.counts.clear()
        self.decodes.clear()
        return time.perf_counter_ns()

    # -- aggregation -----------------------------------------------------------

    def layer_totals(self, since_ns: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, time and self time (ms) of spans that began
        at or after since_ns.  Self time is a span's time minus the time of
        its direct child spans."""
        n = len(self.span_start)
        child_ns = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child_ns[p] += self.span_end[i] - self.span_start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            if self.span_start[i] < since_ns:
                continue
            rec = out.setdefault(self.names[self.span_name[i]], {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            dur = self.span_end[i] - self.span_start[i]
            rec["calls"] += 1
            rec["ms"] += dur / 1e6
            rec["self_ms"] += (dur - child_ns[i]) / 1e6
        return out

    def first_duration_ms(self, name: str) -> float:
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        for i in range(len(self.span_start)):
            if self.span_name[i] == nid:
                return (self.span_end[i] - self.span_start[i]) / 1e6
        return 0.0

    def misses(self, parent_name: str, child_name: str, since_ns: int) -> int:
        """Spans of parent_name, begun at or after since_ns, that have a
        direct child span of child_name (an accept_mask call that had to
        compute its mask)."""
        pid, cid = self._ids.get(parent_name), self._ids.get(child_name)
        if pid is None or cid is None:
            return 0
        hit = set()
        for i in range(len(self.span_start)):
            p = self.span_parent[i]
            if self.span_name[i] == cid and p >= 0 and self.span_name[p] == pid:
                if self.span_start[p] >= since_ns:
                    hit.add(p)
        return len(hit)

    def write(self, path, meta: dict) -> None:
        """Write all spans as JSON: names, then [name, start_ns, end_ns,
        parent] per span, in the order the spans began."""
        head = json.dumps(dict(meta, names=self.names, absent=self.absent), separators=(",", ":"))
        rows = zip(self.span_name, self.span_start, self.span_end, self.span_parent)
        with open(path, "w") as fh:
            # streamed row by row: a list of every span would cost far more
            # memory than the spans themselves
            fh.write(head[:-1] + ',"spans":[')
            for i, (name, start, end, parent) in enumerate(rows):
                fh.write(f"{',' if i else ''}[{name},{start},{end},{parent}]")
            fh.write("]}")


def _replace_everywhere(original, wrapped) -> None:
    """Point every certlab module attribute, and every value of a certlab
    module-level dict (such as the CLI's command table), that refers to
    original at wrapped instead."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "certlab" or mod_name.startswith("certlab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapped


# (metric, unit) reported by every traced run, in report order
LAYER_METRICS = [
    ("sat.satisfying_mask.calls", "count"),
    ("sat.satisfying_mask.ms", "ms"),
    ("sat.satisfying_mask.first_ms", "ms"),
    ("verifiers.encoding.ms", "ms"),
    ("verifiers.accept_mask.calls", "count"),
    ("verifiers.accept_mask.misses", "count"),
    ("verifiers.first_certificate.calls", "count"),
    ("verifiers.first_certificate.self_ms", "ms"),
    ("verifiers.oracle_calls", "count"),
    ("verifiers.steps", "count"),
    ("codes.get_code.build_ms", "ms"),
    ("codes.decode_value.calls", "count"),
    ("codes.decode_value.ms", "ms"),
    ("codes.decode_value.within_radius", "count"),
    ("concepts.CertConcept.calls", "count"),
    ("concepts.CertConcept.self_ms", "ms"),
    ("concepts.build_decision_tree.ms", "ms"),
    ("concepts.tree_leaves", "count"),
    ("concepts.dt_eval.calls", "count"),
    ("concepts.dt_eval.ms", "ms"),
    ("paclearn.draw_sample.ms", "ms"),
    ("paclearn.error_of.ms", "ms"),
    ("paclearn.few_sample_learner.calls", "count"),
    ("paclearn.few_sample_learner.ms", "ms"),
    ("paclearn.sparse_erm.calls", "count"),
    ("paclearn.sparse_erm.ms", "ms"),
    ("reduction.rtime_decide.calls", "count"),
    ("reduction.rtime_decide.self_ms", "ms"),
    ("reduction.proofs_run", "count"),
    ("reduction.accepts", "count"),
    ("harness.cmd_tradeoff.self_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("trace.absent_entry_points", "count"),
]


def layer_metrics(tracer: Tracer, since_ns: int) -> dict[str, float]:
    """The LAYER_METRICS values of one traced run, except trace.overhead_s,
    which takes an untraced run as well.  Calls and times cover the timed
    window; first_ms and build_ms cover the whole process, because the first
    mask and the code builds happen during set-up."""
    from reference import codeword

    totals = tracer.layer_totals(since_ns)
    out: dict[str, float] = {}
    for metric, _unit in LAYER_METRICS:
        span, _, field = metric.rpartition(".")
        if span in ("", "trace") or field not in ("calls", "ms", "self_ms"):
            continue
        out[metric] = totals.get(span, {}).get(field, 0)
    out["sat.satisfying_mask.first_ms"] = tracer.first_duration_ms("sat.satisfying_mask")
    out["verifiers.accept_mask.misses"] = tracer.misses(
        "verifiers.accept_mask", "sat.satisfying_mask", since_ns
    )
    out["codes.get_code.build_ms"] = tracer.layer_totals(0).get("codes.get_code.build", {}).get("ms", 0.0)
    within = 0
    for code, y_int, value in tracer.decodes:
        message = format(value, f"0{code.message_len}b")
        if bin(y_int ^ codeword(code.generator_rows, message)).count("1") <= code.radius:
            within += 1
    out["codes.decode_value.within_radius"] = within
    for key in ("verifiers.oracle_calls", "verifiers.steps", "concepts.tree_leaves",
                "reduction.proofs_run", "reduction.accepts"):
        out[key] = tracer.counts.get(key, 0)
    out["trace.absent_entry_points"] = len(tracer.absent)
    return out
