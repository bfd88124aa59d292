"""Span tracing installed from outside the program.

`Tracer.install` wraps the public functions of each susy_fisheye module
and rebinds every module attribute (and every tuple inside a module-level
dict, such as verify.SUITES) that refers to one of them; `remove` puts the
originals back.  Spans live in flat arrays in memory (name, start, end,
parent span, request id, work count) and are written out once at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "fisheye", "isospectral", "do_core", "specfun", "fullline", "numerics",
          "verify", "svgplot")
# cli.run is left unwrapped so that cli.main's self time covers argparse,
# the output formatting and the write.
EXCLUDE = frozenset({"cli.run"})
# Argument whose size is the number of radius points a call works on.
_POINT_ARGS = ("rho", "beta", "grid", "x")
_MARK = "__perfbench_span__"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _with_arg(args, kwargs, index, name, value):
    if len(args) > index:
        return args[:index] + (value,) + args[index + 1:], kwargs
    return args, {**kwargs, name: value}


def _points_call(index, name):
    def call(fn, args, kwargs):
        return fn(*args, **kwargs), int(np.size(_arg(args, kwargs, index, name))), 0
    return call


def _plain_call(fn, args, kwargs):
    return fn(*args, **kwargs), 0, 0


def _derivative_call(fn, args, kwargs):
    f = _arg(args, kwargs, 0, "f")
    evals = 0

    def counted(x):
        nonlocal evals
        evals += 1
        return f(x)

    new_args, new_kwargs = _with_arg(args, kwargs, 0, "f", counted)
    result = fn(*new_args, **new_kwargs)
    return result, evals, 0


def _integrate_call(fn, args, kwargs):
    f = _arg(args, kwargs, 0, "f")
    evals = 0

    def counted(x):
        nonlocal evals
        evals += int(np.size(x))
        return f(x)

    new_args, new_kwargs = _with_arg(args, kwargs, 0, "f", counted)
    result = fn(*new_args, **new_kwargs)
    return result, evals, result.subdivisions


def _shooting_call(fn, args, kwargs):
    result = fn(*args, **kwargs)
    config = args[1] if len(args) > 1 else kwargs.get("config")
    if config is None:
        config = sys.modules["susy_fisheye.numerics"].ShootingConfig()
    return result, config.points, 0


def _numerov_call(fn, args, kwargs):
    result = fn(*args, **kwargs)
    return result, int(np.size(_arg(args, kwargs, 1, "grid"))) - 2, 0


def _csv_call(fn, args, kwargs):
    return fn(*args, **kwargs), int(np.size(_arg(args, kwargs, 0, "table").grid)), 0


# count = derivative f evaluations, quadrature integrand points, shooting
# grid points, Numerov steps or CSV rows; aux = quadrature panels.
_SPECIAL = {
    "numerics.derivative": _derivative_call,
    "numerics.integrate_adaptive": _integrate_call,
    "numerics.shooting_bound_states": _shooting_call,
    "numerics.numerov_zero_energy": _numerov_call,
    "fisheye.figure_table_csv": _csv_call,
    "isospectral.i0_quadrature": lambda fn, a, k: (fn(*a, **k), 1, 0),
}


def _call_spec(name, fn):
    if name in _SPECIAL:
        return _SPECIAL[name]
    params = list(inspect.signature(fn).parameters)
    for i, p in enumerate(params):
        if p in _POINT_ARGS:
            return _points_call(i, p)
    return _plain_call


def public_functions():
    """{'module.function': function} for every function the tracer wraps."""
    out = {}
    for short in LAYERS:
        mod = importlib.import_module(f"susy_fisheye.{short}")
        names = list(getattr(mod, "__all__", ()))
        if short == "verify":
            names += [n for n in vars(mod) if n.startswith("check_")]
        for name in names:
            fn = getattr(mod, name)
            qual = f"{short}.{name}"
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and qual not in EXCLUDE:
                out[qual] = fn
    return out


def _program_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "susy_fisheye" or n.startswith("susy_fisheye."))]


class Tracer:
    """In-memory span recorder; use as a context manager around traced calls."""

    def __init__(self):
        self.names = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.count = array("q")
        self.aux = array("q")
        self.request_id = -1
        self._stack = []
        self._patches = []
        self._wrappers = None

    def _wrap(self, qual, fn):
        name_id = len(self.names)
        self.names.append(qual)
        call = _call_spec(qual, fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.request.append(tracer.request_id)
            tracer.end.append(0.0)
            tracer.count.append(0)
            tracer.aux.append(0)
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result, count, aux = call(fn, args, kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
            tracer.count[idx] = count
            tracer.aux[idx] = aux
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self):
        """Wrap every public function and rebind each attribute that holds it."""
        if self._wrappers is None:
            self._wrappers = {fn: self._wrap(qual, fn) for qual, fn in public_functions().items()}
        wrappers = self._wrappers
        for mod in _program_modules():
            for key, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((vars(mod), key, value))
                    setattr(mod, key, wrappers[value])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if isinstance(v, tuple) and any(
                            inspect.isfunction(x) and x in wrappers for x in v
                        ):
                            self._patches.append((value, k, v))
                            value[k] = tuple(wrappers.get(x, x) if inspect.isfunction(x) else x
                                             for x in v)

    def remove(self):
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def arrays(self):
        """Spans as numpy arrays, with each span's self time in seconds."""
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        parent = np.array(self.parent, dtype=np.int32)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start": start,
            "end": end,
            "parent": parent,
            "request": np.array(self.request, dtype=np.int32),
            "count": np.array(self.count, dtype=np.int64),
            "aux": np.array(self.aux, dtype=np.int64),
            "duration": dur,
            "self": dur - child,
        }

    def save(self, path):
        spans = self.arrays()
        np.savez(path, names=np.array(self.names), **spans)


def leftover_wrappers():
    """Attributes of the program's modules that still hold a span wrapper."""
    found = []
    for mod in _program_modules():
        for key, value in vars(mod).items():
            if getattr(value, _MARK, False):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, dict):
                found += [f"{mod.__name__}.{key}[{k!r}]" for k, v in value.items()
                          if isinstance(v, tuple) and any(getattr(x, _MARK, False) for x in v)]
    return found
