"""Trace mode: spans around the public functions of each layer.

The tracer wraps the functions named in ``TRACED`` from outside the
program.  A function is replaced in every ``postlie`` module that binds
it, so calls through ``from .algebroid import triangle`` are traced too;
methods are replaced on their class.  Each call records one span (name,
start, end, parent span) in flat arrays; the spans of one round share a
run id and are written out when the round ends.

Per-layer metrics are derived from the spans and from ``cache_info()``
of every memoised kernel.  A name in ``TRACED`` that the program no
longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array

LAYERS = ("trees", "coeffs", "algebroid", "checks", "braiding", "series",
          "geomint", "cli")

# (module, attribute path, span name).  ``Class.method`` paths patch the
# class; a plain path patches the function wherever a module binds it.
TRACED = (
    ("trees", "graft_into_forest", "trees.graft_into_forest"),
    ("coeffs", "CoeffPoly.__mul__", "coeffs.CoeffPoly.mul"),
    ("coeffs", "CoeffPoly.__add__", "coeffs.CoeffPoly.add"),
    ("coeffs", "CoeffPoly.derive", "coeffs.CoeffPoly.derive"),
    ("coeffs", "CoeffPoly.scalar", "coeffs.CoeffPoly.scalar"),
    ("coeffs", "CoeffPoly.scale", "coeffs.CoeffPoly.scale"),
    ("algebroid", "triangle", "algebroid.triangle"),
    ("algebroid", "gl_product", "algebroid.gl_product"),
    ("algebroid", "theta", "algebroid.theta"),
    ("algebroid", "coproduct", "algebroid.coproduct"),
    ("algebroid", "concat_mul", "algebroid.concat_mul"),
    ("checks", "suite_axioms", "checks.suite_axioms"),
    ("checks", "suite_gl", "checks.suite_gl"),
    ("checks", "suite_theta", "checks.suite_theta"),
    ("checks", "suite_smash", "checks.suite_smash"),
    ("checks", "suite_degenerate", "checks.suite_degenerate"),
    ("braiding", "check_braiding", "braiding.check_braiding"),
    ("braiding", "braid_r", "braiding.braid_r"),
    ("braiding", "braid_expansion", "braiding.braid_expansion"),
    ("braiding", "reduce_pairs", "braiding.reduce_pairs"),
    ("series", "log_gl", "series.log_gl"),
    ("series", "exp_gl", "series.exp_gl"),
    ("series", "exp_concat", "series.exp_concat"),
    ("series", "TruncatedSeries.dump", "series.dump"),
    ("geomint", "tree_field", "geomint.tree_field"),
    ("geomint", "forest_operator_fn", "geomint.forest_operator_fn"),
    ("geomint", "element_tangent_matrix", "geomint.element_tangent_matrix"),
    ("geomint", "step_volume", "geomint.step_volume"),
    ("geomint", "run_experiment", "geomint.run_experiment"),
    ("geomint", "MatrixPoly.value", "geomint.MatrixPoly.value"),
    ("geomint", "MatrixPoly.derive_along", "geomint.MatrixPoly.derive_along"),
    # The SO(3) exponential is bound into the frame when ``so3()`` first
    # builds it; ``_install_exp_map`` also patches a frame already built.
    ("geomint", "_so3_expm", "geomint.exp_map"),
    ("cli", "main", "cli.main"),
)

# Factories whose return value is traced: the steppers that the
# experiments build.
FACTORIES = (
    ("geomint", "make_stepper", "geomint.stepper"),
)

# Kernels reported one by one; every other memoised function of a layer
# only counts towards that layer's totals.
KERNELS = {
    "algebroid": ("_triangle_words", "_gl_words", "gl_antipode_word", "_kmap",
                  "_triangle_term", "word_splits"),
    "braiding": ("_braid_words",),
}

_COUNT, _SECONDS, _RATIO = "count", "s", "ratio"


def _per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [
        ("trees.graft_into_forest.calls", _COUNT, "lower"),
        ("trees.graft_into_forest.self_s", _SECONDS, "lower"),
        ("trees.cache.entries", _COUNT, "lower"),
        ("trees.cache.hit_ratio", _RATIO, "higher"),
    ]
    for op in ("mul", "add", "derive", "scalar", "scale"):
        out.append((f"coeffs.CoeffPoly.{op}.calls", _COUNT, "lower"))
    out += [("coeffs.self_s", _SECONDS, "lower"),
            ("coeffs.cache.entries", _COUNT, "lower")]
    for fn in ("triangle", "gl_product", "theta", "coproduct", "concat_mul"):
        out += [(f"algebroid.{fn}.calls", _COUNT, "lower"),
                (f"algebroid.{fn}.self_s", _SECONDS, "lower")]
    for layer, kernels in KERNELS.items():
        for k in kernels:
            out += [(f"{layer}.cache.{k}.misses", _COUNT, "lower"),
                    (f"{layer}.cache.{k}.hit_ratio", _RATIO, "higher"),
                    (f"{layer}.cache.{k}.entries", _COUNT, "lower")]
        if layer == "algebroid":
            out.append(("algebroid.cache.entries", _COUNT, "lower"))
    for suite in ("axioms", "gl", "theta", "smash", "degenerate"):
        out.append((f"checks.suite_{suite}.s", _SECONDS, "lower"))
    out.append(("braiding.check_braiding.s", _SECONDS, "lower"))
    for fn in ("braid_r", "braid_expansion", "reduce_pairs"):
        out.append((f"braiding.{fn}.self_s", _SECONDS, "lower"))
    for fn in ("log_gl", "exp_gl", "exp_concat", "dump"):
        out.append((f"series.{fn}.s", _SECONDS, "lower"))
    for fn in ("tree_field", "forest_operator_fn", "element_tangent_matrix",
               "step_volume"):
        out.append((f"geomint.{fn}.self_s", _SECONDS, "lower"))
    out.append(("geomint.run_experiment.s", _SECONDS, "lower"))
    for fn in ("stepper", "exp_map", "MatrixPoly.value", "MatrixPoly.derive_along"):
        out.append((f"geomint.{fn}.calls", _COUNT, "lower"))
    out += [("cli.main.self_s", _SECONDS, "lower"),
            ("trace.spans", _COUNT, "lower"),
            ("trace.overhead_s", _SECONDS, "lower")]
    return out


PER_LAYER = _per_layer()


def _module(layer: str):
    return sys.modules.get(f"postlie.{layer}")


class Tracer:
    """Records spans in memory while installed; see the module docstring."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack = [-1]
        self._undo: list = []

    # -- recording

    def _wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_of, start, end, parent, stack = (
            self.name_of, self.start, self.end, self.parent, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def _wrap_factory(self, factory, name: str):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return self._wrap(factory(*args, **kwargs), name)

        return make

    def _set(self, owner, attr: str, value) -> None:
        old = owner.__dict__[attr]
        self._undo.append(lambda: setattr(owner, attr, old))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement) -> None:
        for name, mod in list(sys.modules.items()):
            if name == "postlie" or name.startswith("postlie."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, replacement)

    def install(self) -> None:
        for layer, path, name in TRACED:
            mod = _module(layer)
            if mod is None:
                continue
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name, None)
                raw = getattr(cls, "__dict__", {}).get(meth)
                if raw is None:
                    continue
                if isinstance(raw, staticmethod):
                    self._set(cls, meth, staticmethod(self._wrap(raw.__func__, name)))
                else:
                    self._set(cls, meth, self._wrap(raw, name))
                continue
            original = getattr(mod, path, None)
            if original is None:
                continue
            wrapped = self._wrap(original, name)
            self._replace_everywhere(original, wrapped)
            if name == "geomint.exp_map":
                self._install_exp_map(mod, original, wrapped)
        for layer, path, name in FACTORIES:
            original = getattr(_module(layer), path, None)
            if original is not None:
                self._replace_everywhere(original, self._wrap_factory(original, name))

    def _install_exp_map(self, geomint, original, wrapped) -> None:
        so3 = getattr(geomint, "so3", None)
        info = getattr(so3, "cache_info", None)
        if info is not None and info().currsize:
            frame = so3()
            if frame.exp_map is original:
                # GroupFrame is a frozen dataclass.
                self._undo.append(lambda: object.__setattr__(frame, "exp_map", original))
                object.__setattr__(frame, "exp_map", wrapped)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- output

    def write(self, path_stem: str) -> None:
        """Spans as raw arrays next to a JSON header that names them."""
        header = {
            "run_id": self.run_id,
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "H"], ["start_s", "d"], ["end_s", "d"],
                       ["parent", "l"]],
            "clock": "time.perf_counter",
        }
        with open(path_stem + ".json", "w") as fh:
            json.dump(header, fh)
        with open(path_stem + ".bin", "wb") as fh:
            for arr in (self.name_of, self.start, self.end, self.parent):
                arr.tofile(fh)

    def span_metrics(self) -> dict[str, float]:
        """Calls, self time and inclusive time per span name.

        Self time is a span's duration minus that of its child spans.
        Inclusive time counts only the outermost span of a name, so a
        recursive function is not counted twice.
        """
        n = len(self.start)
        names = self.names
        calls = [0] * len(names)
        self_s = [0.0] * len(names)
        incl = [0.0] * len(names)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        ancestors = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                ancestors[i] = ancestors[p] | (1 << self.name_of[p])
        for i in range(n):
            k = self.name_of[i]
            calls[k] += 1
            self_s[k] += dur[i] - child[i]
            if not ancestors[i] >> k & 1:
                incl[k] += dur[i]
        out: dict[str, float] = {}
        for k, name in enumerate(names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_s[k]
            out[f"{name}.s"] = incl[k]
        out["coeffs.self_s"] = sum(v for key, v in out.items()
                                   if key.startswith("coeffs.") and key.endswith(".self_s"))
        out["trace.spans"] = n
        return out


def cache_metrics() -> dict[str, float]:
    """Entries, misses and hit ratios of every memoised function.

    A function counts towards the layer that defines it, not towards the
    layers that import it.
    """
    out: dict[str, float] = {}
    for layer in LAYERS:
        mod = _module(layer)
        if mod is None:
            continue
        hits = misses = entries = 0
        for attr, fn in vars(mod).items():
            info = getattr(fn, "cache_info", None)
            if info is None or getattr(fn, "__module__", None) != mod.__name__:
                continue
            ci = info()
            hits += ci.hits
            misses += ci.misses
            entries += ci.currsize
            if attr in KERNELS.get(layer, ()):
                out[f"{layer}.cache.{attr}.misses"] = ci.misses
                out[f"{layer}.cache.{attr}.entries"] = ci.currsize
                out[f"{layer}.cache.{attr}.hit_ratio"] = _ratio(ci.hits, ci.misses)
        out[f"{layer}.cache.entries"] = entries
        out[f"{layer}.cache.hit_ratio"] = _ratio(hits, misses)
    return out


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(spans: dict[str, float], caches: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric except the overhead, 0 where nothing ran."""
    merged = {**spans, **caches}
    return {name: merged.get(name, 0) for name, _, _ in PER_LAYER
            if name != "trace.overhead_s"}


def out_dir(root: str) -> str:
    path = os.path.join(root, "perfbench", "out")
    os.makedirs(path, exist_ok=True)
    return path
