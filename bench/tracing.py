"""Per-layer call counts and self times for the abelianj modules.

The tracer wraps named public functions and methods from outside the
library: each wrapper replaces the original in every loaded abelianj module
that holds a reference to it (so `from .hermitian import curvature` in
another module is covered too), and `uninstall` puts every original back.

Self time is a call's duration minus the time spent in wrapped callees;
time in unwrapped helpers is charged to the nearest wrapped caller.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

# layer -> wrapped names; "Class.method" names a method, with "matmul" and
# "init" standing for __matmul__ and __init__
LAYERS = {
    "linalg": ("Matrix.matmul", "Matrix.apply", "Matrix.inverse", "Matrix.det",
               "Matrix.kernel", "Matrix.solve", "Subspace.init",
               "Subspace.intersect", "Subspace.coordinates"),
    "lie": ("check_jacobi", "commutator_ideal", "center",
            "derived_and_central_series", "bilinear_table", "pushforward"),
    "complex_structures": ("is_abelian_cs", "is_integrable", "abelian_cs_report",
                           "j_stable_commutator"),
    "assoc": ("check_axioms", "check_compatibility", "nilradical",
              "primitive_idempotents", "minimal_polynomial"),
    "constructions": ("double_product",),
    "hermitian": ("levi_civita", "first_canonical", "first_canonical_pairing",
                  "complex_projection", "connection_flags", "curvature",
                  "curvature_norm_sq", "is_kahler", "cyclic_metric_identity",
                  "twisted_cyclic_identity"),
    "lab": ("random_instance", "random_kahler_instance", "kahler_decompose",
            "theorem_suite"),
    "serialize": ("load_instance", "instance_to_dict", "emit"),
    "cli": ("main",),
}

_DUNDER = {"matmul": "__matmul__", "init": "__init__"}

DRAWS_METRIC = "assoc.idempotent_draws_per_call"


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for layer, names in LAYERS.items():
        for name in names:
            specs.append(("%s.%s.calls" % (layer, name), "count", "lower"))
            specs.append(("%s.%s.self_s" % (layer, name), "s", "lower"))
        specs.append(("%s.self_s" % layer, "s", "lower"))
    specs.append((DRAWS_METRIC, "draws/call", "lower"))
    return specs


class Tracer:
    def __init__(self):
        self.keys = [(layer, name) for layer, names in LAYERS.items()
                     for name in names]
        self.calls = [0] * len(self.keys)
        self.self_s = [0.0] * len(self.keys)
        self._stack = []        # time spent in wrapped callees, per open call
        self._undo = []

    def _wrap(self, idx, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                calls[idx] += 1
                self_s[idx] += dt - inner
                if stack:
                    stack[-1] += dt
        return wrapper

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "abelianj" or name.startswith("abelianj.")]
        for idx, (layer, name) in enumerate(self.keys):
            mod = importlib.import_module("abelianj." + layer)
            if "." in name:
                cls_name, meth = name.split(".")
                owner = getattr(mod, cls_name)
                attr = _DUNDER.get(meth, meth)
                orig = owner.__dict__[attr]
                self._undo.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(idx, orig))
                continue
            orig = getattr(mod, name)
            wrapper = self._wrap(idx, orig)
            for m in loaded:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def metrics(self, ops: int) -> dict:
        """Every per-layer metric as a per-op average over `ops` traced ops."""
        out = {}
        for layer, names in LAYERS.items():
            layer_s = 0.0
            for name in names:
                idx = self.keys.index((layer, name))
                out["%s.%s.calls" % (layer, name)] = self.calls[idx] / ops
                out["%s.%s.self_s" % (layer, name)] = self.self_s[idx] / ops
                layer_s += self.self_s[idx]
            out["%s.self_s" % layer] = layer_s / ops
        draws = self.calls[self.keys.index(("assoc", "minimal_polynomial"))]
        idem = self.calls[self.keys.index(("assoc", "primitive_idempotents"))]
        out[DRAWS_METRIC] = draws / idem if idem else 0.0
        return out
