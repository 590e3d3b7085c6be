"""In-memory spans around the public functions of the l1pcp modules.

A module that does ``from .matcore import svd`` holds its own reference to
the function, so wrapping ``matcore.svd`` alone would miss its callers. The
recorder therefore replaces the function on every loaded ``l1pcp`` module
attribute that refers to it, and puts the originals back on ``uninstall``.

A span is (id, name, start, end, parent, info). ``name`` is
``<module>.<function>`` and its first component is the layer. ``info`` holds
counts taken from the call's arguments and result (matrix cells, SVD work,
iterations) once the call has returned. A target whose function no longer
exists is recorded as absent, and every metric that needs it is left out of
the report rather than reported as zero.
"""

import importlib
import os
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    info: dict = field(default_factory=dict)

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start

    def to_json(self):
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "info": self.info}


def _shape(a):
    return getattr(a, "shape", ())


def _cells(args, kwargs, result):
    return {"cells": int(getattr(args[0], "size", 0))}


def _svd_work(args, kwargs, result):
    shape = _shape(args[0])
    if len(shape) != 2:
        return {}
    p, q = shape
    return {"work": p * q * min(p, q)}


def _l1reg_info(args, kwargs, result):
    return {"columns": int(_shape(args[0])[1]), "iterations": int(result.iterations),
            "failed": len(result.failed_columns)}


def _pcp_info(args, kwargs, result):
    return {"iterations": int(result.iterations), "unconverged": int(not result.converged)}


def _seed_info(args, kwargs, result):
    return {"cells": int(getattr(args[0], "size", 0)), "rank": int(result.r_prime)}


def _solution_info(args, kwargs, result):
    stats = {k: v for k, v in result.stats.items() if isinstance(v, (int, float))}
    return {"method": result.method, "stats": stats}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


@dataclass(frozen=True)
class Target:
    """Wrap ``module.attr`` as span ``name``; ``callers`` limits the
    replacement to those modules' bindings (default: every binding)."""

    name: str
    module: str
    attr: str
    info: object = None
    callers: tuple = ()


TARGETS = (
    Target("l1filter.estimate_rank_and_solve", "l1pcp.l1filter", "estimate_rank_and_solve",
           _solution_info),
    Target("l1filter.sample_submatrix", "l1pcp.l1filter", "sample_submatrix"),
    Target("l1filter.recover_seed", "l1pcp.l1filter", "recover_seed", _seed_info),
    Target("l1filter.filter_columns", "l1pcp.l1filter", "filter_columns"),
    Target("l1filter.filter_rows", "l1pcp.l1filter", "filter_rows"),
    Target("l1filter.nystrom_complete", "l1pcp.l1filter", "nystrom_complete"),
    Target("l1filter.assemble", "l1pcp.l1filter", "assemble"),
    Target("l1reg.solve_l1reg_columnwise", "l1pcp.l1reg", "solve_l1reg_columnwise",
           _l1reg_info),
    Target("l1reg.solve_l1reg", "l1pcp.l1reg", "solve_l1reg", _l1reg_info),
    Target("pcp_adm.solve_pcp", "l1pcp.pcp_adm", "solve_pcp", _pcp_info),
    Target("matcore.svd", "l1pcp.matcore", "svd", _svd_work),
    Target("matcore.svt_with_rank", "l1pcp.matcore", "svt_with_rank"),
    Target("matcore.as_dense", "l1pcp.matcore", "as_dense", _cells),
    Target("matio.read_matrix", "l1pcp.matio", "read_matrix", _file_bytes),
    Target("matio.write_matrix", "l1pcp.matio", "write_matrix", _file_bytes),
    Target("cli.cmd_decompose", "l1pcp.cli", "cmd_decompose"),
    Target("cli.stats", "l1pcp.matcore", "l1_norm", callers=("l1pcp.cli",)),
    Target("cli.stats", "l1pcp.matcore", "l0_count", callers=("l1pcp.cli",)),
    Target("synth.generate", "l1pcp.synth", "generate"),
)


class Recorder:
    """Collects spans from wrapped functions; one per benchmark process."""

    def __init__(self):
        self.spans = []
        self.absent = set()
        self._installed = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _new_id(self):
        with self._lock:
            self._next_id += 1
            return self._next_id

    def open(self, name):
        """Start a span by hand (used for the benchmark's own op roots)."""
        stack = self._stack()
        span = Span(self._new_id(), name, time.perf_counter(), 0.0,
                    stack[-1].id if stack else None)
        stack.append(span)
        return span

    def close(self, span, info=None):
        span.end = time.perf_counter()
        self._stack().pop()
        if info:
            span.info.update(info)
        with self._lock:
            self.spans.append(span)

    def adopt(self, recorded, root):
        """Add spans recorded by a child process (its ``{"spans", "absent"}``
        JSON) under ``root``. perf_counter is CLOCK_MONOTONIC on Linux, so
        the child's times share the parent's time base."""
        ids = {}
        for d in recorded["spans"]:
            ids[d["id"]] = self._new_id()
        for d in recorded["spans"]:
            parent = ids.get(d["parent"], root.id)
            self.spans.append(Span(ids[d["id"]], d["name"], d["start"], d["end"], parent,
                                   d["info"]))
        self.absent.update(recorded["absent"])

    def wrap(self, name, fn, info=None):
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(span, {"error": type(exc).__name__})
                raise
            self.close(span, info(args, kwargs, result) if info else None)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, targets=TARGETS):
        """Wrap every target on every loaded l1pcp module that binds it.

        All target modules are imported first, so that no module binds a
        wrapper at import time that uninstall would not know about.
        """
        originals = []
        for t in targets:
            try:
                originals.append(getattr(importlib.import_module(t.module), t.attr, None))
            except ImportError:
                originals.append(None)
        modules = [(name, mod) for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "l1pcp" or name.startswith("l1pcp."))]
        for t, original in zip(targets, originals):
            if original is None:
                self.absent.add(t.name)
                continue
            wrapper = self.wrap(t.name, original, t.info)
            for mod_name, mod in modules:
                if t.callers and mod_name not in t.callers:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()


def self_times(spans):
    """Map span id -> duration minus the durations of its direct children."""
    child_total = {}
    for s in spans:
        if s.parent is not None:
            child_total[s.parent] = child_total.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child_total.get(s.id, 0.0) for s in spans}


def descendants(spans, root_ids):
    """Spans below any of root_ids (excluding the roots themselves)."""
    by_parent = {}
    for s in spans:
        by_parent.setdefault(s.parent, []).append(s)
    out, todo = [], list(root_ids)
    while todo:
        for child in by_parent.get(todo.pop(), ()):
            out.append(child)
            todo.append(child.id)
    return out


def layer_metrics(spans, op_roots, absent=(), subprocess_ops=False):
    """Per-layer metrics, averaged per operation, from the spans of the
    traced operations rooted at op_roots.

    ``<layer>.self_s`` and ``l1reg.s`` are layer self times; the l1filter
    stage times (``sample_s`` ... ``assemble_s``) and ``matio.*_s`` are
    inclusive durations; the matcore ``*_s`` metrics are self times of the
    named function. ``cli.startup_s`` is the op wall time outside
    ``cmd_decompose`` when the op is a subprocess.
    """
    n_ops = len(op_roots)
    inner = descendants(spans, [r.id for r in op_roots])
    own = self_times(list(op_roots) + inner)
    by_name = {}
    for s in inner:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def per_op(x):
        return x / n_ops

    def self_of(layer):
        return per_op(sum(own[s.id] for s in inner if s.layer == layer))

    def self_named(name):
        return per_op(sum(own[s.id] for s in named(name)))

    def dur(name):
        return per_op(sum(s.duration for s in named(name)))

    def calls(name):
        return per_op(len(named(name)))

    def info_sum(name, key):
        return per_op(sum(s.info.get(key, 0) for s in named(name)))

    def info_max(spans_, key):
        return max((s.info.get(key, 0) for s in spans_), default=0)

    ids = {s.id: s for s in inner}
    l1reg_outer = [s for s in inner if s.layer == "l1reg"
                   and not (s.parent in ids and ids[s.parent].layer == "l1reg")]
    solves = named("l1filter.estimate_rank_and_solve")

    def stat(key):
        return per_op(sum(s.info.get("stats", {}).get(key, 0.0) for s in solves))

    wall = sum(r.duration for r in op_roots)
    startup = per_op(sum(own[r.id] for r in op_roots)) if subprocess_ops else 0.0
    attributed = per_op(sum(own[s.id] for s in inner)) + startup

    l1reg_names = ("l1reg.solve_l1reg_columnwise", "l1reg.solve_l1reg")
    table = [
        ("l1reg.s", l1reg_names, lambda: self_of("l1reg")),
        ("l1reg.calls", ("l1reg.solve_l1reg_columnwise",),
         lambda: calls("l1reg.solve_l1reg_columnwise")),
        ("l1reg.chunks", ("l1reg.solve_l1reg",), lambda: calls("l1reg.solve_l1reg")),
        ("l1reg.columns", l1reg_names,
         lambda: per_op(sum(s.info.get("columns", 0) for s in l1reg_outer))),
        ("l1reg.iterations_max", l1reg_names, lambda: info_max(l1reg_outer, "iterations")),
        ("l1reg.failed_columns", l1reg_names,
         lambda: per_op(sum(s.info.get("failed", 0) for s in l1reg_outer))),
        ("pcp_adm.self_s", ("pcp_adm.solve_pcp",), lambda: self_of("pcp_adm")),
        ("pcp_adm.calls", ("pcp_adm.solve_pcp",), lambda: calls("pcp_adm.solve_pcp")),
        ("pcp_adm.iterations", ("pcp_adm.solve_pcp",),
         lambda: info_sum("pcp_adm.solve_pcp", "iterations")),
        ("pcp_adm.unconverged", ("pcp_adm.solve_pcp",),
         lambda: info_sum("pcp_adm.solve_pcp", "unconverged")),
        ("matcore.svd_s", ("matcore.svd",), lambda: self_named("matcore.svd")),
        ("matcore.svd_calls", ("matcore.svd",), lambda: calls("matcore.svd")),
        ("matcore.svd_work", ("matcore.svd",), lambda: info_sum("matcore.svd", "work")),
        ("matcore.svt_s", ("matcore.svt_with_rank",), lambda: self_named("matcore.svt_with_rank")),
        ("matcore.svt_calls", ("matcore.svt_with_rank",), lambda: calls("matcore.svt_with_rank")),
        ("matcore.as_dense_s", ("matcore.as_dense",), lambda: self_named("matcore.as_dense")),
        ("matcore.as_dense_calls", ("matcore.as_dense",), lambda: calls("matcore.as_dense")),
        ("matcore.as_dense_cells", ("matcore.as_dense",),
         lambda: info_sum("matcore.as_dense", "cells")),
        ("l1filter.sample_s", ("l1filter.sample_submatrix",),
         lambda: dur("l1filter.sample_submatrix")),
        ("l1filter.sample_calls", ("l1filter.sample_submatrix",),
         lambda: calls("l1filter.sample_submatrix")),
        ("l1filter.attempts", ("l1filter.recover_seed",), lambda: calls("l1filter.recover_seed")),
        ("l1filter.seed_s", ("l1filter.recover_seed",), lambda: dur("l1filter.recover_seed")),
        ("l1filter.seed_cells", ("l1filter.recover_seed",),
         lambda: info_sum("l1filter.recover_seed", "cells")),
        ("l1filter.seed_rank", ("l1filter.recover_seed",),
         lambda: info_max(named("l1filter.recover_seed"), "rank")),
        ("l1filter.filter_cols_s", ("l1filter.filter_columns",),
         lambda: dur("l1filter.filter_columns")),
        ("l1filter.filter_rows_s", ("l1filter.filter_rows",), lambda: dur("l1filter.filter_rows")),
        ("l1filter.nystrom_s", ("l1filter.nystrom_complete",),
         lambda: dur("l1filter.nystrom_complete")),
        ("l1filter.assemble_s", ("l1filter.assemble",), lambda: dur("l1filter.assemble")),
        ("l1filter.self_s", ("l1filter.estimate_rank_and_solve",), lambda: self_of("l1filter")),
        ("l1filter.fallbacks", ("l1filter.estimate_rank_and_solve",),
         lambda: per_op(sum(s.info.get("method") == "full-pcp-fallback" for s in solves))),
    ] + [
        (f"l1filter.stats.{key}", ("l1filter.estimate_rank_and_solve",),
         lambda key=key: stat(key))
        for key in ("t1", "t2", "t_assemble", "seed_iterations", "filter_iterations")
    ] + [
        ("matio.read_s", ("matio.read_matrix",), lambda: dur("matio.read_matrix")),
        ("matio.read_bytes", ("matio.read_matrix",),
         lambda: info_sum("matio.read_matrix", "bytes")),
        ("matio.write_s", ("matio.write_matrix",), lambda: dur("matio.write_matrix")),
        ("matio.write_bytes", ("matio.write_matrix",),
         lambda: info_sum("matio.write_matrix", "bytes")),
        ("cli.self_s", ("cli.cmd_decompose",), lambda: self_of("cli") - dur("cli.stats")),
        ("cli.startup_s", ("cli.cmd_decompose",), lambda: startup),
        ("cli.stats_s", ("cli.stats",), lambda: dur("cli.stats")),
        ("trace.ops", (), lambda: n_ops),
        ("trace.solve_s", (), lambda: per_op(wall)),
        ("trace.unattributed_frac", (), lambda: 1.0 - attributed / per_op(wall)),
    ]
    # a metric is absent only when every function it reads has been removed
    return {name: float(fn()) for name, needs, fn in table
            if not needs or any(n not in absent for n in needs)}
