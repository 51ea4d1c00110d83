"""Span tracing for the benchmark, installed from outside the library.

The tracer replaces every public function of each ``cyclica`` module with a
wrapper that records a span (layer, function, start, end, parent, job id).
It patches every module namespace that holds the function, including names
one module imports from another (``cyclica.multishift.span_of_matrix``) and
the package re-exports, so nested calls are attributed to the layer that
defines the function.  :meth:`Tracer.uninstall` restores the originals, so
traced and untraced cycles can alternate.  Spans stay in memory until
:meth:`Tracer.write`.

``scipy.sparse.linalg.lsmr`` is counted, not spanned: its time belongs to
the layer that calls it.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

# The layers reported, in report order: every cyclica module except the
# verdict type.
LAYERS = ("core", "coefspace", "spectrum", "constructions", "multishift",
          "unions", "blocks", "modelspace", "orbit", "polydisc", "io", "cli")

_SPAN_FUNCS = ("numerical_span", "span_of_matrix")
# io functions that touch a file, and the position of their path argument
_IO_PATH_ARG = {"load_series": 0, "dump_report": 1, "write_csv": 0}


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[obj] = name
    return out


class Tracer:
    """Records spans and the per-layer counters derived from them."""

    def __init__(self):
        self.names = []  # function id -> (layer, name)
        self.spans = []  # [fid, t0, t1, parent, job, payload]; payload: vectors
        # passed to a span function, or (columns, accepted) of orbit_project
        self.stack = []  # open span indices
        self.job = -1
        self.lsmr_solves = 0
        self.lsmr_columns = 0
        self.discarded_solves = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self._replay_ordinal = {}  # span index of one_in_orbit_check -> count
        self._replay = set()  # span indices of replayed polydisc projections
        self._patches = None  # [(namespace, attribute, original, wrapper)]

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every public function of every layer, everywhere it is bound."""
        if self._patches is None:
            self._patches = self._find_patches()
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)

    def _find_patches(self):
        import scipy.sparse.linalg

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"cyclica.{layer}"]
            for fn, name in _public_functions(module).items():
                wrappers[fn] = self._wrap(fn, layer, name)
        patches = []
        for modname, module in list(sys.modules.items()):
            if modname != "cyclica" and not modname.startswith("cyclica."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((module, attr, obj, wrappers[obj]))
        lsmr = scipy.sparse.linalg.lsmr
        patches.append((scipy.sparse.linalg, "lsmr", lsmr, self._count_lsmr(lsmr)))
        return patches

    def _wrap(self, fn, layer, name):
        fid = len(self.names)
        self.names.append((layer, name))
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        is_span_func = name in _SPAN_FUNCS
        is_polydisc_projection = name == "orbit_project_polydisc"
        is_disc_projection = name == "orbit_project"
        io_path_arg = _IO_PATH_ARG.get(name) if layer == "io" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            payload = None
            if is_span_func:
                # materialize once so the count never consumes a generator
                if args and not hasattr(args[0], "__len__"):
                    args = (list(args[0]),) + args[1:]
                payload = len(args[0]) if args else 0
            parent = stack[-1] if stack else -1
            idx = len(spans)
            rec = [fid, 0.0, 0.0, parent, self.job, payload]
            spans.append(rec)
            if is_polydisc_projection and parent >= 0:
                self._note_replay(idx, parent)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if is_disc_projection:
                rec[5] = (len(result.residuals),
                          int(result.detail.get("accepted_directions", 0)))
            elif io_path_arg is not None:
                path = (args[io_path_arg] if len(args) > io_path_arg
                        else kwargs.get("path"))
                if path is not None:
                    size = os.path.getsize(path)
                    if name == "load_series":
                        self.bytes_read += size
                    else:
                        self.bytes_written += size
            return result

        return wrapper

    def _note_replay(self, idx, parent):
        """Projections after the first inside one_in_orbit_check are replays."""
        if self.names[self.spans[parent][0]][1] != "one_in_orbit_check":
            return
        ordinal = self._replay_ordinal.get(parent, 0)
        self._replay_ordinal[parent] = ordinal + 1
        if ordinal >= 1:
            self._replay.add(idx)

    def _count_lsmr(self, lsmr):
        @functools.wraps(lsmr)
        def counted(A, *args, **kwargs):
            self.lsmr_solves += 1
            self.lsmr_columns += int(A.shape[1])
            if any(i in self._replay for i in self.stack):
                self.discarded_solves += 1
            return lsmr(A, *args, **kwargs)

        return counted

    # -- summaries -----------------------------------------------------------

    def layer_metrics(self, jobs):
        """Calls and self time per layer, plus the named layer counters, all
        per traced job, so that they do not grow with the number of cycles
        that fit in a run."""
        child = defaultdict(float)
        for fid, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        self_s = defaultdict(float)
        span_calls = span_vectors = 0
        disc_columns = disc_accepted = 0
        for i, (fid, t0, t1, parent, _, payload) in enumerate(self.spans):
            layer, name = self.names[fid]
            calls[layer] += 1
            self_s[layer] += (t1 - t0) - child[i]
            if name in _SPAN_FUNCS:
                # span_of_matrix delegates to numerical_span: count once
                if parent < 0 or self.names[self.spans[parent][0]][1] != "span_of_matrix":
                    span_calls += 1
                    span_vectors += payload or 0
            elif name == "orbit_project" and payload is not None:
                disc_columns += payload[0]
                disc_accepted += payload[1]
        m = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = (calls[layer] / jobs, "count/job")
            m[f"{layer}.self_s"] = (self_s[layer] / jobs, "s/job")
        m["core.span_calls"] = (span_calls / jobs, "count/job")
        m["core.span_vectors"] = (span_vectors / jobs, "count/job")
        m["orbit.columns"] = ((disc_columns + self.lsmr_columns) / jobs, "count/job")
        m["orbit.accepted_ratio"] = (
            disc_accepted / disc_columns if disc_columns else 0.0, "1")
        m["orbit.polydisc_solves"] = (self.lsmr_solves / jobs, "count/job")
        m["orbit.discarded_solves"] = (self.discarded_solves / jobs, "count/job")
        m["io.bytes_read"] = (self.bytes_read / jobs, "B/job")
        m["io.bytes_written"] = (self.bytes_written / jobs, "B/job")
        return m

    def write(self, path):
        """Spans as JSON lines: layer, function, start, end, parent, job."""
        with open(path, "w") as fh:
            for fid, t0, t1, parent, job, _ in self.spans:
                layer, name = self.names[fid]
                fh.write(json.dumps([layer, name, t0, t1, parent, job]) + "\n")
