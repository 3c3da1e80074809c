"""Per-layer spans and counts, recorded from outside the program.

The layers are graycohom's modules.  ``install`` replaces chosen public
functions and methods with wrappers that record a span (name, start, end,
parent span, phase) or bump a counter, and rebinds every name a graycohom
module imported with ``from ... import``, so callers reach the wrapper
too.  ``uninstall`` puts the originals back.

A span's self time is its duration minus the durations of its direct child
spans; calls run on one thread, so spans nest strictly.  Spans are kept in
memory and written out by ``Tracer.write`` when the run ends.

Phase 0 is the set-up and phase r >= 1 is round r of the workload.  A layer
metric is its set-up value plus the median of its per-round values.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute) -> span name; the attribute may name a method
SPANNED = {
    ("graycohom.exactlinalg", "kernel_basis"): "exactlinalg.kernel_basis",
    ("graycohom.exactlinalg", "rank"): "exactlinalg.rank",
    ("graycohom.exactlinalg", "solve_in_image"): "exactlinalg.solve_in_image",
    ("graycohom.exactlinalg", "SparseMatrix.mul_matrix"):
        "exactlinalg.mul_matrix",
    ("graycohom.twocat", "product_many"): "twocat.product_many",
    ("graycohom.gray", "tensor_power"): "gray.tensor_power",
    ("graycohom.gray", "validate_gray"): "gray.validate_gray",
    ("graycohom.schema", "load_structure"): "schema.load_structure",
    ("graycohom.pfcomplex", "pf_cochain_basis"): "pfcomplex.pf_cochain_basis",
    ("graycohom.pfcomplex", "delta_pf_matrix"): "pfcomplex.delta_pf_matrix",
    ("graycohom.defcomplex", "delta_v_matrix"): "defcomplex.delta_v_matrix",
    ("graycohom.defcomplex", "phi_matrix"): "defcomplex.phi_matrix",
    ("graycohom.defcomplex", "delta_pent_matrix"):
        "defcomplex.delta_pent_matrix",
    ("graycohom.defcomplex", "total_differential"):
        "defcomplex.total_differential",
    ("graycohom.deformations", "brute_force_classes"):
        "deformations.brute_force_classes",
    ("graycohom.deformations", "check_structural"):
        "deformations.check_structural",
    ("graycohom.deformations", "check_equivalence"):
        "deformations.check_equivalence",
    ("graycohom.cli", "run_cohomology"): "cli.run_cohomology",
    ("graycohom.cli", "run_classify"): "cli.run_classify",
    ("graycohom.cli", "run_oracle"): "cli.run_oracle",
}

# 2-cell algebra runs millions of times per round: counted, not spanned
COUNTED = {
    ("graycohom.twocat", "TwoCategory.vcomp"): "twocat.vcomp",
    ("graycohom.twocat", "TwoCategory.hcomp"): "twocat.hcomp",
    ("graycohom.gray", "GraySemigroup.tensor2"): "gray.tensor2",
}

# exact elimination entry points: the span also counts the matrix passed
# in, and is named with a "[Q]" suffix when the matrix is over Q
ELIM = ("exactlinalg.kernel_basis", "exactlinalg.rank",
        "exactlinalg.solve_in_image")
ELIM_Q = tuple(name + "[Q]" for name in ELIM)

# the serialisation of a command's result, as the command does it, is
# recorded by the benchmark under this span name
SERIALISE = "cli.serialise"

# metric -> ("self", span names) or ("count", counter names)
METRICS = {
    "exactlinalg.elim_s": ("self", ELIM + ELIM_Q),
    "exactlinalg.elim_q_s": ("self", ELIM_Q),
    "exactlinalg.elim_calls": ("count", ("elim.calls",)),
    "exactlinalg.elim_nnz": ("count", ("elim.nnz",)),
    "exactlinalg.elim_cols": ("count", ("elim.cols",)),
    "exactlinalg.solve_calls": ("count", ("elim.solve_calls",)),
    "exactlinalg.mul_matrix_s": ("self", ("exactlinalg.mul_matrix",)),
    "exactlinalg.mul_matrix_calls": ("count", ("exactlinalg.mul_matrix",)),
    "twocat.product_many_s": ("self", ("twocat.product_many",)),
    "twocat.product_many_calls": ("count", ("twocat.product_many",)),
    "twocat.vcomp_calls": ("count", ("twocat.vcomp",)),
    "twocat.hcomp_calls": ("count", ("twocat.hcomp",)),
    "gray.tensor2_calls": ("count", ("gray.tensor2",)),
    "gray.tensor_power_s": ("self", ("gray.tensor_power",)),
    "gray.validate_s": ("self", ("gray.validate_gray",)),
    "schema.load_s": ("self", ("schema.load_structure",)),
    "pfcomplex.cochain_basis_s": ("self", ("pfcomplex.pf_cochain_basis",)),
    "pfcomplex.delta_pf_s": ("self", ("pfcomplex.delta_pf_matrix",)),
    "defcomplex.delta_v_s": ("self", ("defcomplex.delta_v_matrix",)),
    "defcomplex.phi_pent_s": ("self", ("defcomplex.phi_matrix",
                                       "defcomplex.delta_pent_matrix")),
    "defcomplex.total_differential_s": ("self",
                                        ("defcomplex.total_differential",)),
    "deformations.brute_force_s": ("self",
                                   ("deformations.brute_force_classes",)),
    "deformations.check_structural_s": ("self",
                                        ("deformations.check_structural",)),
    "deformations.check_structural_calls": (
        "count", ("deformations.check_structural",)),
    "deformations.check_equivalence_s": (
        "self", ("deformations.check_equivalence",)),
    "deformations.check_equivalence_calls": (
        "count", ("deformations.check_equivalence",)),
    "cli.self_s": ("self", ("cli.run_cohomology", "cli.run_classify",
                            "cli.run_oracle", SERIALISE)),
}


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        # [name, start, end, parent index or -1, phase]
        self.spans: list = []
        self._stack: list = []
        self.counts: defaultdict = defaultdict(int)  # (name, phase) -> n
        self.phase = 0
        self._saved: list = []  # (owner, attribute, original)

    # ----- recording -----------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase]
        stack.append(len(self.spans))
        self.spans.append(rec)
        self.counts[name, self.phase] += 1
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def _span_wrapper(self, name, orig):
        call = self.call
        if name not in ELIM:
            def wrapper(*args, **kwargs):
                return call(name, orig, *args, **kwargs)
            return wrapper
        counts = self.counts
        solve = name == "exactlinalg.solve_in_image"
        rational = importlib.import_module(
            "graycohom.exactlinalg").RationalField

        def elim_wrapper(M, *args, **kwargs):
            phase = self.phase
            counts["elim.calls", phase] += 1
            counts["elim.nnz", phase] += len(M.entries)
            counts["elim.cols", phase] += M.cols
            if solve:
                counts["elim.solve_calls", phase] += 1
            label = name + "[Q]" if isinstance(M.field, rational) else name
            return call(label, orig, M, *args, **kwargs)
        return elim_wrapper

    def _count_wrapper(self, name, orig):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name, self.phase] += 1
            return orig(*args, **kwargs)
        return wrapper

    # ----- patching ------------------------------------------------------

    def install(self):
        """Wrap every SPANNED and COUNTED attribute of graycohom."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for table, make in ((SPANNED, self._span_wrapper),
                            (COUNTED, self._count_wrapper)):
            for (modname, attr), name in table.items():
                module = importlib.import_module(modname)
                owner = module
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                orig = getattr(owner, leaf)
                wrapper = make(name, orig)
                self._rebind(owner, leaf, orig, wrapper)
                if owner is module:
                    # names bound by `from module import leaf` elsewhere
                    for other in _graycohom_modules():
                        for key, value in list(vars(other).items()):
                            if value is orig:
                                self._rebind(other, key, orig, wrapper)

    def _rebind(self, owner, attr, orig, wrapper):
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # ----- results -------------------------------------------------------

    def self_times(self) -> dict:
        """(span name, phase) -> total self time in seconds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, phase in spans:
            if parent >= 0:
                child[parent] += end - start
        out: defaultdict = defaultdict(float)
        for i, (name, start, end, parent, phase) in enumerate(spans):
            out[name, phase] += end - start - child[i]
        return out

    def metrics(self, rounds: int) -> dict:
        """Every METRICS value: set-up value plus the median round value."""
        selfs = self.self_times()
        out = {}
        for metric, (kind, names) in METRICS.items():
            table = selfs if kind == "self" else self.counts
            per_phase = [sum(table.get((n, phase), 0) for n in names)
                         for phase in range(rounds + 1)]
            out[metric] = per_phase[0] + statistics.median(per_phase[1:])
        return out

    def write(self, path):
        """All spans, one JSON array per line: name, start, end, parent,
        phase; times in seconds of time.perf_counter."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


def _graycohom_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "graycohom"
                                  or name.startswith("graycohom."))]
