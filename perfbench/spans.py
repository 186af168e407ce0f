"""Span tracer for the benchmark's traced passes.

The tracer wraps public functions of the package from outside, under every
name a module of the package holds them by, so calls between modules are
seen as well as calls from the benchmark.  Each call becomes one span
(name, operation id, parent span, start, end, terms in, terms out) kept in
memory; the worker writes the spans out when its pass ends and the parent
derives per-layer self times from them.

The lru-cached contraction helpers `engine.overlap` and
`engine.filtered_overlap` run millions of times per point and are not
wrapped: their hit and miss counts come from `cache_info()` instead.
"""

from __future__ import annotations

import functools
import json
import sys
import time

PACKAGE = "hybrid_teleport"

CROSSVAL_CHECKS = (
    "check_bell_support",
    "check_kraus_completeness",
    "check_channel_closed_form",
    "check_outcome_independence",
    "check_group_formulas",
    "check_group_sum_identity",
    "check_closed_vs_simulated",
    "check_backend_equivalence",
)

# (module, attribute path, whether first argument and result carry .terms)
TARGETS = (
    ("cli", "run_sweep", False),
    ("cli", "format_csv", False),
    ("formulas", "average_fidelity", False),
    ("formulas", "success_probability", False),
    ("protocol", "outcome_tensors", False),
    # Private, but wrapped so that the state build it does on a cache miss
    # is a child span and outcome_tensors' self time is the contraction.
    ("protocol", "_protocol_states", False),
    ("protocol", "average_fidelity", False),
    ("protocol", "average_success", False),
    ("protocol", "teleport_once", False),
    ("protocol", "group_statistics", False),
    ("protocol", "SphereQuadrature.nodes", False),
    ("protocol", "SphereQuadrature.mu_nu_grid", False),
    ("engine", "apply_beam_splitter", True),
    ("engine", "TermSum.canonicalized", True),
    ("engine", "trace_distance", False),
    ("loss", "damp_modes", True),
    ("loss", "damp_mode", False),
    ("loss", "decohered_channel", False),
    ("encoding", "ideal_channel", False),
    ("encoding", "logical_ket", False),
    ("encoding", "apply_correction", False),
    ("encoding", "bell_decomposition_check", False),
    ("measurement", "projector", False),
) + tuple(("crossval", name, False) for name in CROSSVAL_CHECKS)

# lru-cached functions whose cache_info() gives hits and misses
CACHED = (
    ("protocol", "outcome_tensors"),
    ("engine", "overlap"),
    ("engine", "filtered_overlap"),
)

# span record fields
NAME, OP, PARENT, START, END, TERMS_IN, TERMS_OUT = range(7)


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._caches = {}

    def wrap(self, name: str, func, count_terms: bool):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            rec = [name, self.op, stack[-1] if stack else -1, clock(), 0.0, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = func(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if count_terms:
                rec[TERMS_IN] = len(args[0].terms)
                rec[TERMS_OUT] = len(out.terms)
            return out

        return traced

    def install(self) -> None:
        """Replace every target, under each name the package binds it to."""
        for mod_name, attr in CACHED:
            self._caches[f"{mod_name}.{attr}"] = getattr(
                sys.modules[f"{PACKAGE}.{mod_name}"], attr
            )
        modules = [
            mod for key, mod in sys.modules.items()
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for mod_name, path, count_terms in TARGETS:
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            name = f"{mod_name}.{path}"
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), count_terms))
                continue
            orig = getattr(mod, path)
            traced = self.wrap(name, orig, count_terms)
            for holder in modules:
                for attr, val in list(vars(holder).items()):
                    if val is orig:
                        setattr(holder, attr, traced)

    def cache_counts(self) -> dict:
        """{name: (hits, misses)} for the lru caches, since process start."""
        out = {}
        for name, func in self._caches.items():
            info = func.cache_info()
            out[name] = (info.hits, info.misses)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def read_spans(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def summarize(spans: list) -> dict:
    """Per span name: calls, self seconds, terms in and out.

    Self time is a span's duration minus the time its direct children
    cover; in one thread the children are disjoint and nested inside it.
    """
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            covered[rec[PARENT]] += rec[END] - rec[START]
    out = {}
    for rec, kids in zip(spans, covered):
        agg = out.setdefault(
            rec[NAME], {"calls": 0, "self_s": 0.0, "terms_in": 0, "terms_out": 0}
        )
        agg["calls"] += 1
        agg["self_s"] += rec[END] - rec[START] - kids
        agg["terms_in"] += rec[TERMS_IN]
        agg["terms_out"] += rec[TERMS_OUT]
    return out
