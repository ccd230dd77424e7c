"""Span tracing of starprob's layers, installed from outside the library.

The tracer wraps the public functions of each layer module and rebinds every
module attribute that refers to them, so ``similarity.meet`` and
``lattice.meet`` (two names for one function) both record spans.  Nothing in
``src/`` is edited; :meth:`Tracer.uninstall` restores the original bindings.

Spans live in typed arrays (about 30 bytes each) so that a pass with a
million calls stays small in memory.  Each span has a name, a parent span, the
item it belongs to, start and end times, and one integer tag (the ray
dimension for ``meet``).  Self time is a span's duration minus the durations
of its children; children of one span never overlap because the library is
single-threaded and synchronous.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("structures", "axioms", "lattice", "similarity", "sigma",
          "measures", "randomvars")

# Point-level helpers called inside nearly every other call, a microsecond
# each.  Wrapping them would double the span count, and the wrapper's own
# bookkeeping would then outweigh their work in their callers' self time;
# unwrapped, their time counts as their callers' self time.
_SKIP = {
    "structures": {"as_point", "check_point", "same_structure", "points_equal",
                   "similarity", "random_unit_vector", "random_frame"},
}


class Tracer:
    """Records spans for calls into the starprob layer modules."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.items = array("i")
        self.tags = array("i")
        self.stack = [-1]
        self.item = -1
        self.counters = {"sigma.closure_rounds": 0, "sigma.events": 0,
                         "sigma.boolean.triple_space": 0,
                         "similarity.exact": 0}
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self, package: str = "starprob") -> None:
        """Wrap every public function of each layer, at every binding.

        Call once per tracer; :meth:`uninstall` undoes it.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            skip = {id(getattr(mod, attr)) for attr in _SKIP.get(layer, ())}
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not callable(fn) or isinstance(fn, type)
                        or getattr(fn, "__module__", None) != mod.__name__
                        or id(fn) in skip or id(fn) in wrapped):
                    continue
                wrapped[id(fn)] = self._wrap(fn, f"{layer}.{attr}")
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                new = wrapped.get(id(val))
                if new is not None:
                    self._rebind(mod, attr, new)

        lat = importlib.import_module(f"{package}.lattice")
        self._rebind(lat.Subspace, "__eq__",
                     self._wrap(lat.Subspace.__eq__, "lattice.eq"))
        core = importlib.import_module(f"{package}.structures")
        for ctor in ("classical", "ray", "explicit"):
            fn = getattr(core.SPStructure, ctor)
            self._rebind(core.SPStructure, ctor, staticmethod(
                self._wrap(fn, f"structures.SPStructure.{ctor}")))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        starts, ends, name_ids = self.starts, self.ends, self.name_ids
        parents, items, tags, stack = self.parents, self.items, self.tags, self.stack
        pre = _PRE_TAG.get(name)
        post = _POST.get(name)
        tracer = self

        def traced(*args, **kwargs):
            sid = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            items.append(tracer.item)
            tags.append(pre(args) if pre is not None else 0)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if post is not None:
                post(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Views on the span buffers, which must not grow while the views live."""
        return {
            "name": np.frombuffer(self.name_ids, dtype=np.int32),
            "parent": np.frombuffer(self.parents, dtype=np.int32),
            "item": np.frombuffer(self.items, dtype=np.int32),
            "tag": np.frombuffer(self.tags, dtype=np.int32),
            "start": np.frombuffer(self.starts, dtype=np.float64),
            "end": np.frombuffer(self.ends, dtype=np.float64),
        }

    def write(self, path: Path) -> None:
        """Write every span and the name table to one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, each as ``(value, unit)``."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        n_names = len(self.names)
        calls = np.bincount(a["name"], minlength=n_names)
        self_by_name = np.bincount(a["name"], weights=self_t, minlength=n_names)
        ids = {n: i for i, n in enumerate(self.names)}

        def n_calls(name: str) -> int:
            return int(calls[ids[name]]) if name in ids else 0

        def self_s(name: str) -> float:
            return float(self_by_name[ids[name]]) if name in ids else 0.0

        def layer_ids(layer: str) -> list[int]:
            return [i for n, i in ids.items() if n.split(".")[0] == layer]

        def layer_self(layer: str) -> float:
            return float(sum(self_by_name[i] for i in layer_ids(layer)))

        def durations(name: str, tag: int | None = None) -> np.ndarray:
            if name not in ids:
                return np.zeros(0)
            sel = a["name"] == ids[name]
            if tag is not None:
                sel &= a["tag"] == tag
            return dur[sel]

        def median(x: np.ndarray, scale: float) -> float:
            return float(np.median(x)) * scale if x.size else 0.0

        m: dict[str, tuple[float, str]] = {}
        m["lattice.self_s"] = (layer_self("lattice"), "s")
        m["lattice.calls"] = (float(sum(calls[i] for i in layer_ids("lattice"))), "count")
        for op in ("from_span", "join", "meet", "ortho_complement", "eq", "distributes"):
            m[f"lattice.{op}.calls"] = (n_calls(f"lattice.{op}"), "count")
            m[f"lattice.{op}.self_s"] = (self_s(f"lattice.{op}"), "s")
        m["lattice.is_subset.calls"] = (n_calls("lattice.is_subset"), "count")
        m["lattice.is_orthogonal.calls"] = (n_calls("lattice.is_orthogonal"), "count")
        for d in (4, 8, 16, 32):
            m[f"lattice.meet.p50_us.d{d}"] = (median(durations("lattice.meet", d), 1e6), "us")

        n_sim = n_calls("similarity.subspace_similarity")
        m["similarity.self_s"] = (layer_self("similarity"), "s")
        m["similarity.subspace_similarity.calls"] = (n_sim, "count")
        m["similarity.exact_ratio"] = (
            self.counters["similarity.exact"] / n_sim if n_sim else 0.0, "ratio")
        m["similarity.sampled.calls"] = (n_calls("similarity.sampled_similarity"), "count")
        m["similarity.sampled.self_s"] = (self_s("similarity.sampled_similarity"), "s")
        m["similarity.sampled.p50_ms"] = (
            median(durations("similarity.sampled_similarity"), 1e3), "ms")

        m["sigma.self_s"] = (layer_self("sigma"), "s")
        m["sigma.generate.self_s"] = (self_s("sigma.generate_sigma_star"), "s")
        m["sigma.closure_rounds"] = (self.counters["sigma.closure_rounds"], "count")
        m["sigma.events"] = (self.counters["sigma.events"], "count")
        m["sigma.validate.self_s"] = (self_s("sigma.validate_sigma_star"), "s")
        m["sigma.atoms.self_s"] = (
            self_s("sigma.atoms") + self_s("sigma.atomic_decomposition"), "s")
        m["sigma.boolean.self_s"] = (
            self_s("sigma.is_boolean") + self_s("sigma.distributivity_witness"), "s")
        space = self.counters["sigma.boolean.triple_space"]
        tested = 0
        if "sigma.distributivity_witness" in ids and "lattice.distributes" in ids:
            scans = a["name"] == ids["sigma.distributivity_witness"]
            is_dist = a["name"] == ids["lattice.distributes"]
            tested = int(np.count_nonzero(
                is_dist & has_parent & scans[np.maximum(a["parent"], 0)]))
        m["sigma.boolean.scan_ratio"] = (tested / space if space else 0.0, "ratio")

        m["measures.self_s"] = (layer_self("measures"), "s")
        m["measures.validate_measure.calls"] = (n_calls("measures.validate_measure"), "count")
        m["measures.validate_measure.self_s"] = (self_s("measures.validate_measure"), "s")
        m["measures.evaluate.calls"] = (n_calls("measures.evaluate"), "count")
        m["randomvars.self_s"] = (layer_self("randomvars"), "s")
        m["randomvars.expectation.calls"] = (n_calls("randomvars.expectation"), "count")
        m["axioms.validate_sp_axioms.self_s"] = (self_s("axioms.validate_sp_axioms"), "s")
        m["structures.self_s"] = (layer_self("structures"), "s")
        return {k: (float(v), u) for k, (v, u) in m.items()}

    @property
    def span_count(self) -> int:
        return len(self.name_ids)


def _meet_dim(args) -> int:
    st = args[0].structure
    return st.d if st.kind == "ray" else 0


def _count_exact(tracer: Tracer, args, result) -> None:
    tracer.counters["similarity.exact"] += int(result.is_exact)


def _count_closure(tracer: Tracer, args, result) -> None:
    tracer.counters["sigma.closure_rounds"] += int(result.closure_meta["rounds"])
    tracer.counters["sigma.events"] += len(result.events)


def _count_triple_space(tracer: Tracer, args, result) -> None:
    tracer.counters["sigma.boolean.triple_space"] += len(args[0].events) ** 3


_PRE_TAG = {"lattice.meet": _meet_dim}
_POST = {
    "similarity.subspace_similarity": _count_exact,
    "sigma.generate_sigma_star": _count_closure,
    "sigma.distributivity_witness": _count_triple_space,
}
