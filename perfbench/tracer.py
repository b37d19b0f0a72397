"""Span tracer that instruments fracsim from outside the package.

Each traced callable is wrapped once and the wrapper is written over every
attribute of every loaded ``fracsim`` module that holds the original object
(compared by identity), so a module's own ``from .special import ml_e_neg``
is timed as well as the package namespace.  NumPy's n-dimensional FFTs are
wrapped only as fracsim sees them: each fracsim module's ``np`` is swapped for
a proxy whose ``fft`` namespace carries the wrappers.  ``uninstall`` puts
every original back, so untraced iterations run unmodified code.

A span is ``[name, start, end, parent, iteration, attrs]``; spans stay in
memory until ``dump``.  Argument sizes are recorded after the wrapped call
returns, so that work is charged to the caller's span, not the callee's.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import types
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = "iteration"
ML_NAMES = ("ml_e_neg", "ml_neg_fast")
FFT_NAMES = ("fftn", "ifftn", "rfftn", "irfftn")

# Layer that owns each traced callable; the root span is the benchmark's own.
LAYER = {
    "ml_e_neg": "special",
    "ml_neg_fast": "special",
    "wright_phi": "special",
    "integrate": "solver",
    "classify": "solver",
    "profile": "kernels",
    "apply_propagator": "kernels",
    "local_average_hypotheses": "criticality",
    "smallness_condition": "criticality",
    "bracket_pstar": "harness",
    **{name: "spectral" for name in FFT_NAMES},
    ROOT: "benchmark",
}


def _ml_attrs(args, kwargs, out):
    y = np.asarray(args[2] if len(args) > 2 else kwargs["y"], dtype=float)
    alpha = args[0] if args else kwargs["alpha"]
    beta = args[1] if len(args) > 1 else kwargs["beta"]
    return {"a": float(alpha), "b": float(beta), "n": int(y.size),
            "ymin": float(y.min()) if y.size else 0.0,
            "ymax": float(y.max()) if y.size else 0.0}


def _fft_attrs(args, kwargs, out):
    return {"n": int(np.size(args[0] if args else kwargs["a"]))}


def _binder(fn):
    """Maps a call's arguments to the parameter names of ``fn``."""
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _integrate_attrs(bind):
    def attrs(args, kwargs, out):
        a = bind(args, kwargs)
        grid, mesh = a["grid"], a["mesh"]
        return {"steps": int(out.t_nodes.size - 1), "planned": int(mesh.steps),
                "modes": int(grid.points ** grid.dim)}
    return attrs


def _profile_attrs(bind):
    def attrs(args, kwargs, out):
        return {"radii": int(np.size(bind(args, kwargs)["radii"]))}
    return attrs


def _wright_attrs(bind):
    def attrs(args, kwargs, out):
        a = bind(args, kwargs)
        return {"a": float(a["alpha"]), "theta": float(a["theta"])}
    return attrs


def _bracket_attrs(args, kwargs, out):
    return {"probes": len(out.rows), "undetermined": len(out.undetermined),
            "decided": sum(r.classification in ("BlowUp", "Global") for r in out.rows)}


class _Proxy(types.ModuleType):
    """Module stand-in: the given overrides, everything else from ``real``."""

    def __init__(self, real: types.ModuleType, overrides: dict):
        super().__init__(real.__name__)
        self.__dict__["_real"] = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        value = getattr(self.__dict__["_real"], name)
        self.__dict__[name] = value
        return value


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._iteration = -1
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, attrs_fn):
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer._iteration, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if attrs_fn is not None:
                rec[5] = attrs_fn(args, kwargs, out)
            return out

        return wrapper

    def _targets(self) -> dict[int, tuple[object, object]]:
        """id(original) -> (original, wrapper) for everything to instrument."""
        import fracsim

        named = {
            "ml_e_neg": _ml_attrs,
            "wright_phi": _wright_attrs(_binder(fracsim.wright_phi)),
            "integrate": _integrate_attrs(_binder(fracsim.integrate)),
            "classify": None,
            "profile": _profile_attrs(_binder(fracsim.profile)),
            "apply_propagator": None,
            "local_average_hypotheses": None,
            "smallness_condition": None,
            "bracket_pstar": _bracket_attrs,
        }
        originals = {name: getattr(fracsim, name) for name in named}
        # The bulk table evaluator is private and may be refactored away;
        # wrap it only where some fracsim module still holds it.
        for mod in self._modules():
            fast = vars(mod).get("ml_neg_fast")
            if callable(fast):
                originals["ml_neg_fast"] = fast
                named["ml_neg_fast"] = _ml_attrs
                break
        targets = {id(fn): (fn, self._wrap(fn, name, named[name]))
                   for name, fn in originals.items()}
        for name in FFT_NAMES:
            fn = getattr(np.fft, name)
            targets[id(fn)] = (fn, self._wrap(fn, name, _fft_attrs))
        return targets

    @staticmethod
    def _modules() -> list[types.ModuleType]:
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "fracsim" or n.startswith("fracsim."))]

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        fft_proxy = _Proxy(np.fft, {n: targets[id(getattr(np.fft, n))][1]
                                    for n in FFT_NAMES})
        np_proxy = _Proxy(np, {"fft": fft_proxy})
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is np:
                    replacement = np_proxy
                elif value is np.fft:
                    replacement = fft_proxy
                else:
                    hit = targets.get(id(value))
                    if hit is None:
                        continue
                    replacement = hit[1]
                setattr(mod, attr, replacement)
                self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- iterations ----------------------------------------------------------

    def run_iteration(self, index: int, body):
        """Run ``body()`` traced, under a root span; returns (result, wall)."""
        self.install()
        self._iteration = index
        first = len(self.spans)
        try:
            out = self._wrap(body, ROOT, None)()
        finally:
            self._iteration = -1
            self.uninstall()
        root = self.spans[first]
        return out, root[2] - root[1]

    def iteration_spans(self, index: int) -> list[tuple[int, list]]:
        return [(i, s) for i, s in enumerate(self.spans) if s[4] == index]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, it, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "layer": LAYER[name],
                                     "start": start, "end": end, "parent": parent,
                                     "iteration": it, "attrs": attrs}) + "\n")


def self_times(spans: list[tuple[int, list]]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    child = {i: 0.0 for i, _ in spans}
    for _, s in spans:
        if s[3] in child:
            child[s[3]] += s[2] - s[1]
    return {i: (s[2] - s[1]) - child[i] for i, s in spans}
