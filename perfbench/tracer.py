"""In-memory span tracer that wraps sobspec's public functions by name.

Each wrapped function records a span (name, start, end, parent) while the
tracer is active and adds per-call counts computed from its arguments and
result.  Wrapping happens from the outside, in every module where a caller
looks the name up (``sobspec.cli`` imports several functions by name, so the
wrapper must sit there as well as in the defining module).  A target that no
longer exists is recorded in ``missing`` instead of raising, and a count hook
that fails is recorded in ``hook_errors``, so the tracer survives refactors
that rename or delete functions or change what they take.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict


def _madds(args, kwargs, result):
    """Multiply-adds of a banded product, from the operands' shapes and bands."""
    A, B = args[0], args[1]
    total = 0
    for i in range(A.nrows):
        for k in range(max(0, i - A.lower_bw), min(A.ncols, i + A.upper_bw + 1)):
            total += min(B.ncols, k + B.upper_bw + 1) - max(0, k - B.lower_bw)
    return {"matrices.multiply.madds": total}


def _residual_entries(args, kwargs, result):
    return {"matrices.block_residual.entries": args[2] * args[2]}


def _leaves(value):
    if isinstance(value, (tuple, list)):
        return sum(_leaves(v) for v in value)
    return 1


def _suite_storage(args, kwargs, result):
    """Stored versus band entries over every matrix the suite holds.

    Stored entries are the scalars held in a matrix's tuple fields, whatever
    its layout (dense rows today), so the count follows a storage change.
    """
    stored = band = 0
    for value in vars(result).values():
        if hasattr(value, "band_entries"):
            stored += sum(_leaves(v) for v in vars(value).values()
                          if isinstance(v, (tuple, list)))
            band += sum(1 for _ in value.band_entries())
    return {"matrices.stored_entries": stored, "matrices.band_entries": band}


def _oracle_entries(args, kwargs, result):
    return {"oracle.exact_entries":
            sum(len(row) for rows in result.matrices.values() for row in rows)}


def _json_bytes(args, kwargs, result):
    return {"serialize.bytes": len(result.encode())}


# span name -> (places where callers look the name up, count hook or None).
# A place is (module, attribute path); "Class.method" patches the class, so
# every caller sees the wrapper.
TARGETS = {
    "core.recurrence": ([("sobspec.core", "MeasureSpec.recurrence")], None),
    "kernels.KernelTable.build": ([("sobspec.kernels", "KernelTable.build")], None),
    "christoffel.ChristoffelLedger.build": (
        [("sobspec.christoffel", "ChristoffelLedger.build")], None),
    "sobolev.SobolevLedger.build": ([("sobspec.sobolev", "SobolevLedger.build")], None),
    "matrices.build_jacobi": ([("sobspec.matrices", "build_jacobi")], None),
    "matrices.build_iterated_jacobi": (
        [("sobspec.matrices", "build_iterated_jacobi")], None),
    "matrices.cholesky_shifted": ([("sobspec.matrices", "cholesky_shifted")], None),
    "matrices.commute_cholesky": ([("sobspec.matrices", "commute_cholesky")], None),
    "matrices.qr_pair": ([("sobspec.matrices", "qr_pair")], None),
    "matrices.build_T": ([("sobspec.matrices", "build_T")], None),
    "matrices.build_H": ([("sobspec.matrices", "build_H")], None),
    "matrices.MatrixSuite.build": (
        [("sobspec.matrices", "MatrixSuite.build")], _suite_storage),
    "matrices.verify_propositions": (
        [("sobspec.matrices", "verify_propositions"),
         ("sobspec.cli", "verify_propositions")], None),
    "matrices.multiply": (
        [("sobspec.matrices", "multiply"), ("sobspec.cli", "multiply")], _madds),
    "matrices.block_residual": (
        [("sobspec.matrices", "block_residual")], _residual_entries),
    "oracle.build_oracle_suite": (
        [("sobspec.oracle", "build_oracle_suite"),
         ("sobspec.cli", "build_oracle_suite")], _oracle_entries),
    "serialize.matrix_to_json": (
        [("sobspec.serialize", "matrix_to_json"), ("sobspec.cli", "matrix_to_json")],
        _json_bytes),
    "serialize.ledgers_to_doc": (
        [("sobspec.serialize", "ledgers_to_doc"), ("sobspec.cli", "ledgers_to_doc")],
        None),
    "golden.load_reference": (
        [("sobspec.golden", "load_reference"), ("sobspec.cli", "load_reference")],
        None),
    "cli.generate": ([("sobspec.cli", "generate.callback")], None),
    "cli.verify": ([("sobspec.cli", "verify.callback")], None),
    "cli.reproduce_paper": ([("sobspec.cli", "reproduce_paper.callback")], None),
}

LAYERS = ("core", "kernels", "christoffel", "sobolev", "matrices", "oracle",
          "serialize", "golden", "cli")


class Tracer:
    """Spans and counts of one traced run, kept in memory until written out."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []          # [id, name, start, end, parent, op]
        self.counts = defaultdict(int)
        self.errors = defaultdict(int)
        self.missing = []
        self.hook_errors = set()
        self.active = False
        self.op = None
        self._stack = []
        self._patches = []

    # -- installation -----------------------------------------------------

    def install(self):
        for name, (places, hook) in self.targets.items():
            for module, path in places:
                if not self._patch(name, hook, module, path):
                    self.missing.append(f"{module}:{path}")

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def _patch(self, name, hook, module, path):
        *owner_path, attr = path.split(".")
        try:
            owner = importlib.import_module(module)
            for part in owner_path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            return False
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(name, hook, raw.__func__))
        elif callable(raw):
            wrapped = self._wrap(name, hook, raw)
        else:
            return False
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw))
        return True

    def _wrap(self, name, hook, fn):
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name, layer):
                result = fn(*args, **kwargs)
            if hook is not None:
                try:
                    self.add(hook(args, kwargs, result))
                except Exception as exc:  # a refactor changed what it reads
                    self.hook_errors.add(f"{name}: {type(exc).__name__}: {exc}")
            return result

        traced.__wrapped__ = fn
        return traced

    # -- recording --------------------------------------------------------

    def span(self, name, layer=None):
        return _Span(self, name, layer)

    def add(self, counts):
        for key, value in counts.items():
            self.counts[key] += value

    # -- derived numbers --------------------------------------------------

    def self_times(self):
        """Span id -> duration minus the durations of its direct children."""
        own = {sid: end - start for sid, _, start, end, _, _ in self.spans}
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def busy(self):
        """Span name -> (total duration, total self time, calls)."""
        own = self.self_times()
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for sid, name, start, end, _, _ in self.spans:
            row = out[name]
            row[0] += end - start
            row[1] += own[sid]
            row[2] += 1
        return out

    def as_doc(self):
        return {
            "fields": ["id", "name", "start", "end", "parent", "op"],
            "spans": sorted(self.spans),
            "counts": dict(self.counts),
            "errors": dict(self.errors),
            "missing": list(self.missing),
            "hook_errors": sorted(self.hook_errors),
        }


class _Span:
    __slots__ = ("tracer", "name", "layer", "sid", "parent", "start")

    def __init__(self, tracer, name, layer):
        self.tracer, self.name, self.layer = tracer, name, layer

    def __enter__(self):
        t = self.tracer
        self.parent = t._stack[-1] if t._stack else None
        self.sid = len(t.spans) + len(t._stack)
        t._stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        t.spans.append([self.sid, self.name, self.start, end, self.parent, t.op])
        if exc_type is not None and self.layer is not None:
            t.errors[self.layer] += 1
        return False
