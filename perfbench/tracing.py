"""Outside-in tracing: spans recorded around the package's public callables.

The package is not edited.  Each traced callable is replaced, for the length
of a traced pass, wherever it is looked up: every ``cscforge`` module
namespace that binds the function object, or the class attribute for
methods.  A span records its name, start, end, parent span and the op it
belongs to, plus a work count for a few layers.  Spans stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


def _points(args, kwargs) -> Dict[str, float]:
    pts = args[1] if len(args) > 1 else kwargs["pts"]
    return {"points": float(getattr(pts, "size", len(pts)))}


def _degree(args, kwargs) -> Dict[str, float]:
    return {"degree_sum": float(max(args[0].degree, 0))}


def _rk4_steps(args, kwargs) -> Dict[str, float]:
    """RK4 steps of one oracle call, computed from its segment spans and its
    step the way the integrator sizes them: a coarse pass plus a half-step
    pass (three steps per unit)."""
    path = [complex(p) for p in (args[1] if len(args) > 1 else kwargs["path"])]
    step = kwargs.get("step", args[3] if len(args) > 3 else 1e-4)
    lengths = [abs(b - a) for a, b in zip(path, path[1:]) if a != b]
    total = sum(lengths)
    if total == 0:
        return {"rk4_steps_computed": 0.0}
    n = sum(max(1, math.ceil((L / total) / step)) for L in lengths)
    return {"rk4_steps_computed": 3.0 * n}


# (span name, module, attribute; "Class.method" for methods, work counter)
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("cli.main", "cscforge.cli", "main", None),
    ("forms.form_from_json", "cscforge.forms", "form_from_json", None),
    ("forms.build_third_kind", "cscforge.forms", "build_third_kind", None),
    ("forms.check_hypotheses", "cscforge.forms", "check_hypotheses", None),
    ("forms.divisor", "cscforge.forms", "MeromorphicOneForm.divisor", None),
    ("algebra.roots", "cscforge.algebra", "ComplexPolynomial.roots", _degree),
    ("algebra.residue_at_infinity", "cscforge.algebra", "residue_at_infinity", None),
    ("phifield.solve_phi_closed", "cscforge.phifield", "solve_phi_closed", None),
    ("phifield.integrate_phi_along_path", "cscforge.phifield",
     "integrate_phi_along_path", _rk4_steps),
    ("metric.MetricField", "cscforge.metric", "MetricField.__init__", None),
    ("metric.log_density_many", "cscforge.metric",
     "MetricField.log_density_many", _points),
    ("metric.suggest_grid", "cscforge.metric", "suggest_grid", None),
    ("metric.gauss_curvature_fd", "cscforge.metric", "gauss_curvature_fd", None),
    ("metric.negation_invariance_check", "cscforge.metric",
     "negation_invariance_check", None),
    ("metric.write_density_grid", "cscforge.metric", "write_density_grid", None),
    ("singularities.total_metric_area", "cscforge.singularities",
     "total_metric_area", None),
    ("singularities.gauss_bonnet_check", "cscforge.singularities",
     "gauss_bonnet_check", None),
    ("singularities.estimate_cone_angle", "cscforge.singularities",
     "estimate_cone_angle", None),
    ("singularities.classify_singular_points", "cscforge.singularities",
     "classify_singular_points", None),
    ("classify.normalize_form", "cscforge.classify", "normalize_form", None),
    ("classify.reduce_to_football", "cscforge.classify", "reduce_to_football", None),
)

SPAN_NAMES = tuple(t[0] for t in TARGETS)
OP_SPAN = "op"

# Work counts reported as "<span>.<count>"; a span's count includes the
# counts of the spans under it.
SUBTREE_COUNTS = {
    "singularities.total_metric_area": "points",
    "metric.log_density_many": "points",
    "algebra.roots": "degree_sum",
    "phifield.integrate_phi_along_path": "rk4_steps_computed",
}


class Tracer:
    """Span recorder for one traced pass (single thread)."""

    def __init__(self):
        self.rows: List[tuple] = []  # (op, id, parent, name, start, end, self_s, counts)
        self.op_labels: List[str] = []
        self._stack: List[list] = []  # open spans: [id, name, start, child_s, counts]
        self._next_id = 0
        self._patches: List[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0, defaultdict(float)]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, own_counts: Optional[Dict[str, float]] = None):
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child_s, counts = frame
        if own_counts:
            for key, val in own_counts.items():
                counts[key] += val
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += end - start
            for key, val in counts.items():
                parent[4][key] += val
        self.rows.append((
            len(self.op_labels) - 1, span_id,
            parent[0] if parent is not None else None,
            name, start, end, (end - start) - child_s, dict(counts),
        ))

    def run_op(self, label: str, fn: Callable):
        """Run one op under a root span; spans opened inside share its op id."""
        self.op_labels.append(label)
        frame = self._open(OP_SPAN)
        try:
            return fn()
        finally:
            self._close(frame)

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, counter(args, kwargs) if counter else None)

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Replace every target where it is looked up."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cscforge" or n.startswith("cscforge."))]
        for name, modname, attr, counter in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name, original, counter))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, counter)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, holder, key: str, original, wrapped):
        setattr(holder, key, wrapped)
        self._patches.append((holder, key, original))

    def uninstall(self):
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    # -- summaries ---------------------------------------------------------

    def per_op_layers(self) -> Dict[str, float]:
        """Per-op means of calls, self time and work counts by span name."""
        n_ops = max(1, len(self.op_labels))
        calls = defaultdict(float)
        self_s = defaultdict(float)
        counts = defaultdict(float)
        for _, _, _, name, _, _, own, cnt in self.rows:
            calls[name] += 1
            self_s[name] += own
            key = SUBTREE_COUNTS.get(name)
            if key:
                counts[name] += cnt.get(key, 0.0)
        out: Dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name] / n_ops
            out[f"{name}.self_s"] = self_s[name] / n_ops
        for name, key in SUBTREE_COUNTS.items():
            out[f"{name}.{key}"] = counts[name] / n_ops
        return out

    def shares(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Inclusive and self time of each span name as a share of op time
        (nested calls of one name counted once in the inclusive figure)."""
        op_time = sum(r[5] - r[4] for r in self.rows if r[3] == OP_SPAN) or math.inf
        by_id = {r[1]: r for r in self.rows}
        inclusive = defaultdict(float)
        own = defaultdict(float)
        for row in self.rows:
            own[row[3]] += row[6]
            parent = row[2]
            nested = False
            while parent is not None:
                prow = by_id[parent]
                if prow[3] == row[3]:
                    nested = True
                    break
                parent = prow[2]
            if not nested:
                inclusive[row[3]] += row[5] - row[4]
        return ({k: v / op_time for k, v in inclusive.items()},
                {k: v / op_time for k, v in own.items()})

    def calls_by_label(self) -> Dict[str, Dict[str, int]]:
        """Exact call counts of each span name for the first op of each label."""
        first_op: Dict[str, int] = {}
        for op, label in enumerate(self.op_labels):
            first_op.setdefault(label, op)
        wanted = {op: label for label, op in first_op.items()}
        out: Dict[str, Dict[str, int]] = {label: {} for label in first_op}
        for op, _, _, name, *_ in self.rows:
            label = wanted.get(op)
            if label is not None and name != OP_SPAN:
                out[label][name] = out[label].get(name, 0) + 1
        return out

    def dump(self, path, summary: dict) -> None:
        doc = {
            "summary": summary,
            "fields": ["op", "id", "parent", "name", "start", "end", "self_s", "counts"],
            "ops": self.op_labels,
            "spans": self.rows,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
