"""Span tracer that wraps ebdyn's public functions from outside the package.

Every wrapped call records a span (function, start, end, parent span,
analysis id) and adds to per-function counters: calls and self time, where
self time is the span's duration minus the time covered by its child spans.
Nothing inside ``src/ebdyn`` changes: module functions and
``EvolutionHandle`` methods are replaced by wrappers while the tracer is
installed, and the callables stored on families (``generator_matrix``,
``closed_form.map_at``, ``closed_form.propagator_at``) are wrapped on the
family objects that the family constructors return.

Spans are kept in preallocated arrays, up to ``max_spans``; counters are
exact however many spans are dropped.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from collections import defaultdict
from time import perf_counter

# (module, function) pairs wrapped as module attributes
MODULE_FUNCTIONS = {
    "cli": ("main", "load_config"),
    "matcore": (
        "herm_eig", "min_herm_eig", "expm",
        "partial_transpose_second", "partial_trace_first",
    ),
    "superop": ("to_choi", "compose", "map_spectrum"),
    "classify": ("classify_map", "interior_certificate", "positivity_witness"),
    "asymptotics": (
        "arrival_time", "cone_witness", "witness_pair", "asymptotic_map",
        "predict_eventually_eb", "ppt_composition_experiment",
    ),
    "divisibility": ("scan_divisibility", "check_implication_chain"),
}
# EvolutionHandle methods, reported under the evolve layer
HANDLE_METHODS = ("solve", "solve_many", "propagator", "propagator_many")
# callables stored on family objects, reported under the families layer
FAMILY_CALLABLES = ("generator_matrix", "map_at", "propagator_at")
FAMILY_CONSTRUCTORS = (
    "gkls", "pauli_channel", "eternal_nm", "phase_covariant", "depolarizing",
    "detailed_balance", "floquet_product", "pure_decoherence",
    "diagonally_covariant",
)

FUNCTIONS = tuple(
    [f"{mod}.{fn}" for mod, fns in MODULE_FUNCTIONS.items() for fn in fns]
    + [f"evolve.{m}" for m in HANDLE_METHODS]
    + [f"families.{c}" for c in FAMILY_CALLABLES]
)

# functions whose per-call cost is broken down by the family dimension d,
# with the side n of the matrix they work on (for the sum of n^3)
SIZED = {
    "matcore.herm_eig": lambda args, kwargs: len(args[0] if args else kwargs["m"]),
    "matcore.expm": lambda args, kwargs: len(args[0] if args else kwargs["m"]),
    "superop.to_choi": lambda args, kwargs: (args[0] if args else kwargs["phi"]).d,
}


class Tracer:
    """Records spans and per-function counters while ``active`` is set."""

    def __init__(self, max_spans=250_000):
        self.active = False
        self.installed = False
        self.keys = list(FUNCTIONS)
        self.key_of = {name: k for k, name in enumerate(self.keys)}
        self.calls = [0] * len(self.keys)
        self.self_s = [0.0] * len(self.keys)
        self.n3 = defaultdict(float)          # key -> sum of n^3
        self.by_d = defaultdict(lambda: [0, 0.0])      # (key, d) -> calls, self
        self.by_kind = defaultdict(int)       # (family kind, key) -> calls
        self.by_cone = defaultdict(lambda: defaultdict(int))  # cone -> key -> calls
        self.solve_hits = 0
        self.stack = []
        self.analysis = -1
        self.kind = None
        self.d = None
        self.cone = None
        self.analyses = []  # analysis id -> metadata
        self.epoch = perf_counter()
        self.max_spans = max_spans
        self.n_spans = 0
        self.sp_key = array("i", bytes(4 * max_spans))
        self.sp_parent = array("i", bytes(4 * max_spans))
        self.sp_analysis = array("i", bytes(4 * max_spans))
        self.sp_start = array("d", bytes(8 * max_spans))
        self.sp_end = array("d", bytes(8 * max_spans))
        self._saved = []
        self._constructing = 0

    # -- analysis context ----------------------------------------------------

    def begin_analysis(self, meta):
        """Tag the following spans with a new analysis id; ``meta`` is kept."""
        self.analysis = len(self.analyses)
        self.analyses.append(meta)
        self.kind = meta["kind"]
        self.d = meta["d"]

    # -- wrapping --------------------------------------------------------------

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so that calls are recorded under ``name``."""
        if getattr(fn, "__traced__", None) is self:
            return fn
        k = self.key_of[name]
        marks_touch = name.startswith(("families.", "matcore."))
        is_solve = name == "evolve.solve"
        is_witness = name == "asymptotics.cone_witness"
        size = SIZED.get(name)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            idx = tr.n_spans
            tr.n_spans = idx + 1
            stack = tr.stack
            frame = [0.0, False, idx]  # child time, touched families/matcore, span
            parent = stack[-1] if stack else None
            stack.append(frame)
            if is_witness:
                saved_cone = tr.cone
                tr.cone = args[1] if len(args) > 1 else kwargs["cone"]
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                own = t1 - t0 - frame[0]
                tr.calls[k] += 1
                tr.self_s[k] += own
                if is_solve and not frame[1]:
                    tr.solve_hits += 1
                if size is not None:
                    n = size(args, kwargs)
                    tr.n3[k] += float(n) ** 3
                    cell = tr.by_d[(k, tr.d)]
                    cell[0] += 1
                    cell[1] += own
                tr.by_kind[(tr.kind, k)] += 1
                if tr.cone is not None:
                    tr.by_cone[tr.cone][k] += 1
                if is_witness:
                    tr.cone = saved_cone
                if idx < tr.max_spans:
                    tr.sp_key[idx] = k
                    tr.sp_parent[idx] = parent[2] if parent is not None else -1
                    tr.sp_analysis[idx] = tr.analysis
                    tr.sp_start[idx] = t0 - tr.epoch
                    tr.sp_end[idx] = t1 - tr.epoch
                if parent is not None:
                    if marks_touch or frame[1]:
                        parent[1] = True
                    # the parent's child time includes this bookkeeping, so
                    # the tracer's own cost stays out of the parent's self time
                    parent[0] += perf_counter() - t0

        traced.__traced__ = self
        return traced

    def instrument_family(self, family):
        """Wrap the callables stored on a family object in place."""
        wrap = self.wrap
        object.__setattr__(
            family, "generator_matrix",
            wrap("families.generator_matrix", family.generator_matrix),
        )
        cf = family.closed_form
        if cf is not None:
            object.__setattr__(cf, "map_at", wrap("families.map_at", cf.map_at))
            if cf.propagator_at is not None:
                object.__setattr__(
                    cf, "propagator_at",
                    wrap("families.propagator_at", cf.propagator_at),
                )
        return family

    def _constructor(self, fn):
        tr = self

        @functools.wraps(fn)
        def build(*args, **kwargs):
            # families built inside another constructor (eternal_nm builds a
            # pauli_channel) are instrumented once, on the outer result
            tr._constructing += 1
            try:
                family = fn(*args, **kwargs)
            finally:
                tr._constructing -= 1
            if tr._constructing == 0:
                tr.instrument_family(family)
            return family

        return build

    def install(self):
        """Replace the public functions by their traced wrappers."""
        if self.installed:
            return
        saved = []
        for mod_name, fns in MODULE_FUNCTIONS.items():
            mod = importlib.import_module(f"ebdyn.{mod_name}")
            for fn in fns:
                orig = getattr(mod, fn)
                saved.append((mod, fn, orig))
                setattr(mod, fn, self.wrap(f"{mod_name}.{fn}", orig))
        handle_cls = importlib.import_module("ebdyn.evolve").EvolutionHandle
        for meth in HANDLE_METHODS:
            orig = handle_cls.__dict__[meth]
            saved.append((handle_cls, meth, orig))
            setattr(handle_cls, meth, self.wrap(f"evolve.{meth}", orig))
        fam_mod = importlib.import_module("ebdyn.families")
        for ctor in FAMILY_CONSTRUCTORS:
            orig = getattr(fam_mod, ctor)
            saved.append((fam_mod, ctor, orig))
            setattr(fam_mod, ctor, self._constructor(orig))
        self._saved = saved
        self.installed = True

    def uninstall(self):
        """Restore the original functions."""
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []
        self.installed = False

    # -- results ---------------------------------------------------------------

    def stat(self, name):
        k = self.key_of[name]
        return self.calls[k], self.self_s[k]

    def write_spans(self, path):
        """Write a JSON header (functions, analyses), then one line per span."""
        n = min(self.n_spans, self.max_spans)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "functions": self.keys,
                "spans_recorded": n,
                "spans_dropped": self.n_spans - n,
                "columns": ["function", "start_s", "end_s", "parent", "analysis"],
                "analyses": self.analyses,
            }) + "\n")
            for i in range(n):
                fh.write(
                    f"{self.sp_key[i]} {self.sp_start[i]:.9f} {self.sp_end[i]:.9f} "
                    f"{self.sp_parent[i]} {self.sp_analysis[i]}\n"
                )
