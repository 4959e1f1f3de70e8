"""Span tracing of curvecover's public functions, from outside the package.

``Tracer.install`` wraps every public function defined in a curvecover
module and rebinds the wrapper at every binding site: the defining
module, each module that did ``from .x import y``, and the package root.
A call through any of these names records a span.  Private kernels
(``_breakpoints``, ``_affine_pieces`` ...) are not wrapped; their time is
part of the self time of the public function that calls them.

A span is ``[name, start, end, parent, job, counts]``.  Spans stay in
memory until the run ends.  Work counts are taken at the same
boundaries by the functions in ``COUNTERS``.
"""

import functools
import os
import sys
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "curvecover"


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _saved_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _points(args, kwargs, result):
    return {"points": int(np.size(_arg(args, kwargs, 1, "t")))}


def _chord_points(args, kwargs, result):
    t, s = _arg(args, kwargs, 1, "t"), _arg(args, kwargs, 2, "s")
    return {"points": int(np.broadcast(np.asarray(t), np.asarray(s)).size)}


def _input_vertices(args, kwargs, result):
    return {"vertices": len(_arg(args, kwargs, 0, "vertices"))}


def _result_vertices(args, kwargs, result):
    return {"vertices": result.n}


def _curve_vertices(args, kwargs, result):
    return {"vertices": _arg(args, kwargs, 0, "curve").n}


def _nonzero_exit(args, kwargs, result):
    return {"exit_nonzero": int(result != 0)}


# name -> counts(args, kwargs, result), evaluated after the span closes
COUNTERS = {
    "curveio.load_curve": _file_bytes,
    "curveio.save_curve": _saved_bytes,
    "curve.build_curve": _input_vertices,
    "curve.point_at": _points,
    "curve.chord_length": _chord_points,
    "chords.min_chord_start": _curve_vertices,
    "generators.generate": _result_vertices,
    "cli.main": _nonzero_exit,
}

# spans whose descendant chord_length points are summed into "chord_points"
CHORD_POINT_OWNERS = ("chords.min_chord_start", "partition.best_uniform_shift")


def _average_chord_name(args, kwargs):
    cfg = _arg(args, kwargs, 2, "cfg")
    return "chords.average_chord." + ("sampled" if cfg is not None and cfg.mode == "sampled"
                                      else "exact")


def public_functions(package=PACKAGE):
    """(module, attribute, function) for every public curvecover function binding."""
    sites = []
    for modname, mod in sorted(sys.modules.items()):
        if mod is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, val in vars(mod).items():
            if (not attr.startswith("_") and isinstance(val, types.FunctionType)
                    and (val.__module__ or "").startswith(package)):
                sites.append((mod, attr, val))
    return sites


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._sites = []
        self.wrappers = {}  # original function -> wrapper

    def install(self):
        for mod, attr, fn in public_functions():
            if getattr(fn, "__wrapped_by_tracer__", False):
                continue
            wrapper = self.wrappers.get(fn)
            if wrapper is None:
                wrapper = self.wrappers[fn] = self._wrap(fn)
            setattr(mod, attr, wrapper)
            self._sites.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._sites):
            setattr(mod, attr, fn)
        self._sites.clear()

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        counter = COUNTERS.get(name)
        namer = _average_chord_name if name == "chords.average_chord" else None
        golden = name == "chords.golden_section"
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            evals = None
            if golden:
                evals, f = [0], args[0]

                def counted(x):
                    evals[0] += 1
                    return f(x)
                args = (counted,) + args[1:]
            rec = [namer(args, kwargs) if namer else name, 0.0, 0.0,
                   stack[-1] if stack else None, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counter is not None:
                rec[5] = counter(args, kwargs, result)
            elif golden:
                rec[5] = {"f_evals": evals[0]}
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper


def summarize(spans):
    """Per span name: calls, self_s and summed counts.

    Self time is a span's duration minus the durations of its direct
    children; on one thread children nest inside their parent and do not
    overlap, so this is the part of the interval no child covers.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, job, counts in spans:
        if parent is not None:
            child[parent] += end - start
    stats = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, job, counts) in enumerate(spans):
        st = stats[name]
        st["calls"] += 1
        st["self_s"] += (end - start) - child[i]
        if counts:
            for key, val in counts.items():
                st[key] += val
        if name == "curve.chord_length":
            p = parent
            while p is not None:
                if spans[p][0] in CHORD_POINT_OWNERS:
                    stats[spans[p][0]]["chord_points"] += counts["points"]
                p = spans[p][3]
    return {name: {k: (v if k == "self_s" else int(v)) for k, v in st.items()}
            for name, st in stats.items()}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(names, stats, overhead_frac):
    """Values of the per-layer metrics ``names`` from ``summarize`` output."""
    get = lambda span, key: stats.get(span, {}).get(key, 0.0)
    special = {
        "curveio.bytes_read": lambda: get("curveio.load_curve", "bytes"),
        "curveio.bytes_written": lambda: get("curveio.save_curve", "bytes"),
        "curve.build_curve.us_per_vertex": lambda: 1e6 * _ratio(
            get("curve.build_curve", "self_s"), get("curve.build_curve", "vertices")),
        "chords.min_chord_start.points_per_vertex": lambda: _ratio(
            get("chords.min_chord_start", "chord_points"),
            get("chords.min_chord_start", "vertices")),
        "cli.self_s": lambda: sum(st["self_s"] for n, st in stats.items()
                                  if n.startswith("cli.")),
        "cli.exit_nonzero": lambda: get("cli.main", "exit_nonzero"),
        "trace.overhead_frac": lambda: overhead_frac,
    }
    out = {}
    for m in names:
        if m in special:
            out[m] = special[m]()
        else:
            span, key = m.rsplit(".", 1)
            out[m] = get(span, key)
    return out
