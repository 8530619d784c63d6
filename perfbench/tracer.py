"""Timing and counting wrappers for the traced benchmark run.

The wrappers live here, not in the package: `install` replaces the
public functions of each layer, in every `tilingspectra` module that
bound them (including names bound by `from .x import f`), with wrappers
that record one span per call.  Spans are kept in memory and written
when the run ends.  A layer's self time is its span's duration minus the
duration of its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, metric group); "Class.method" patches a method
TIMED = (
    ("cli", "cli_dispatch", "cli.cli_dispatch"),
    ("systemfile", "parse_system", "systemfile.parse_system"),
    ("tiles", "validate", "tiles.validate"),
    ("geometry", "interiors_overlap", "geometry.predicates"),
    ("geometry", "polygon_contains", "geometry.predicates"),
    ("tiles", "SubstitutionSystem.grow", "tiles.grow"),
    ("ordering", "sorted_by_value", "ordering.sorted_by_value"),
    ("algebraic", "AlgebraicReal.refine", "algebraic.refine"),
    ("returns", "enumerate_returns", "returns.enumerate_returns"),
    ("returns", "group_basis", "returns.group_basis"),
    ("returns", "kenyon_basis", "returns.kenyon_basis"),
    ("returns", "stabilized_module", "returns.stabilized_module"),
    ("returns", "control_points", "returns.control_points"),
    ("lattice", "hnf", "lattice.hnf"),
    ("lattice", "field_solve", "lattice.field_solve"),
    ("pisot", "is_pisot", "pisot.is_pisot"),
    ("traces", "dist_to_int_limit", "traces.dist_to_int_limit"),
    ("spectra", "eigenvalue_report", "spectra.eigenvalue_report"),
    ("spectra", "eigenvalue_module", "spectra.eigenvalue_module"),
    ("spectra", "weak_mixing", "spectra.weak_mixing"),
    ("spectra", "convergence_diagnostic", "spectra.convergence_diagnostic"),
)

# counted only: these run millions of times, a span each would swamp the run
COUNTED = (
    ("field", "QThetaElem.__mul__", "field.mul"),
    ("field", "QThetaElem.sign", "field.sign"),
)
COUNTED_GROUPS = frozenset(group for _, _, group in COUNTED)


def _length(args, result):
    return len(result)


# group -> (counter, amount of work done by one call, from its args and result)
WORK = {
    "tiles.grow": ("tiles.grow.tiles", _length),
    "ordering.sorted_by_value": ("ordering.sorted_by_value.items", _length),
    "returns.enumerate_returns": ("returns.enumerate_returns.vectors", _length),
    "returns.kenyon_basis": (
        "returns.kenyon_basis.verified",
        lambda args, result: result.verified_count,
    ),
    "returns.stabilized_module": (
        "returns.stabilized_module.depth",
        lambda args, result: result.sample_depth,
    ),
    "lattice.hnf": ("lattice.hnf.rows", lambda args, result: len(args[0])),
    "traces.dist_to_int_limit": (
        "traces.residue_states",
        lambda args, result: result.preperiod + result.period,
    ),
}


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans = []  # (id, parent id, op id, group, start, end, self seconds)
        self.counts = Counter()
        self.op_id = None  # set by the workload loop around each timed op
        self._stack = []  # [span id, group, start, child seconds]
        self._next = 0

    def _timed(self, group, fn):
        counter, amount = WORK.get(group, (None, None))
        undecided = group == "traces.dist_to_int_limit"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next += 1
            sid = self._next
            parent = self._stack[-1][0] if self._stack else None
            frame = [sid, group, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if undecided and type(exc).__name__ == "UndecidedError":
                    self.counts["traces.undecided"] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                dur = end - frame[2]
                if self._stack:
                    self._stack[-1][3] += dur
                self.spans.append((sid, parent, self.op_id, group, frame[2], end, dur - frame[3]))
            if counter is not None:
                self.counts[counter] += amount(args, result)
            return result

        return wrapper

    def _counted(self, group, fn):
        counts = self.counts
        key = group + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every function in TIMED and COUNTED where it is bound."""
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for module, attr, group in table:
                mod = importlib.import_module(f"tilingspectra.{module}")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[meth]
                    wrapper = make(group, original)
                    for name, value in list(vars(cls).items()):
                        if value is original:  # also catches aliases like __rmul__
                            setattr(cls, name, wrapper)
                    continue
                original = getattr(mod, attr)
                wrapper = make(group, original)
                for other in list(sys.modules.values()):
                    name = getattr(other, "__name__", "")
                    if name == "tilingspectra" or name.startswith("tilingspectra."):
                        for key, value in list(vars(other).items()):
                            if value is original:
                                setattr(other, key, wrapper)

    def aggregate(self, window_only=False):
        """Per group: calls, inclusive seconds (outermost spans) and self seconds."""
        calls = Counter()
        total = defaultdict(float)
        self_s = defaultdict(float)
        groups = {}
        for sid, parent, op, group, start, end, own in self.spans:
            groups[sid] = (parent, group)
        for sid, parent, op, group, start, end, own in self.spans:
            if window_only and op is None:
                continue
            calls[group] += 1
            self_s[group] += own
            # inclusive time counts only spans with no ancestor of the same group
            p = parent
            nested = False
            while p is not None:
                pp, pg = groups[p]
                if pg == group:
                    nested = True
                    break
                p = pp
            if not nested:
                total[group] += end - start
        return calls, total, self_s

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "parent", "op", "name", "start", "end", "self_s"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
