"""Spans around singlab's public functions, installed from outside the package.

``Tracer.install()`` replaces every public function of every singlab module
in each module namespace that binds it (the defining module included, so
calls inside a module are traced too), plus ``SliceSpec.dataset_at`` and
``SliceSpec.boundary_family``, and ``scipy.optimize.minimize`` where
``singlab.metrics`` binds it and in ``scipy.optimize`` itself, from which
``singlab.measure`` imports it at call time.  The distance functions and
cell predicates that ``singlab.measure`` factories return are traced as
``measure.distance_fn`` and ``measure.cell_predicate``.  No file of the
package changes.

Spans are kept in memory as four flat arrays (name, parent, start, end) and
written once, at the end.  A span's self time is its duration minus the
durations of its direct children.  Hooks count the work a call did, read
from its arguments or result.  Calls made from threads other than the one
that installed the tracer run untraced, so the span stack stays consistent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "slices", "datamaps", "topology", "geometry", "metrics", "measure")
SOLVER = "solver.minimize"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._restore: list[tuple] = []
        self._thread = threading.get_ident()
        self._cache = None

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None):
        nid = self._id(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        open_spans = self._open
        owner = self._thread
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if get_ident() != owner:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(idx)
            result = error = None
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                ends[idx] = perf_counter()
                open_spans.pop()
                if hook is not None:
                    hook(args, kwargs, result, error)

        return traced

    def _kernel_factory(self, factory, name: str):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return self.wrap(name, factory(*args, **kwargs))

        return make

    # -- installation ----------------------------------------------------

    def _hooks(self, measure) -> dict:
        c = self.counters

        def evaluate(args, kwargs, result, error):
            if error is None and not result.defined:
                c["datamaps.evaluate.undefined"] += 1

        def gap_batch(args, kwargs, result, error):
            c["datamaps.gap_batch.rows"] += args[0].shape[0]

        def lad_gap_batch(args, kwargs, result, error):
            m, n, _ = args[0].shape
            c["datamaps.gap_batch.rows"] += m
            c["datamaps.lad_gap_batch.bytes_computed"] += m * (n * (n - 1) // 2) * 8

        def winding(args, kwargs, result, error):
            if error is None:
                c["topology.winding_number.returned"] += 1
                c["topology.winding_number.samples_used"] += result.samples_used

        def localize(args, kwargs, result, error):
            if error is None:
                for box in result:
                    c[f"topology.boxes_{box.status}"] += 1

        def minimize(args, kwargs, result, error):
            if error is None:
                c["solver.minimize.nit"] += int(getattr(result, "nit", 0))
                c["solver.minimize.nfev"] += int(getattr(result, "nfev", 0))

        box_sig = inspect.signature(measure.box_count_dimension)

        def box_count(args, kwargs, result, error):
            bound = box_sig.bind(*args, **kwargs).arguments
            if callable(bound["membership"]):
                lo = np.asarray(bound["domain_lo"], dtype=float)
                hi = np.asarray(bound["domain_hi"], dtype=float)
                for delta in bound["mesh_sizes"]:
                    cells = np.maximum(np.ceil((hi - lo) / float(delta) - 1e-12), 1)
                    c["measure.box_count_dimension.cells_computed"] += float(np.prod(cells))

        def samples(fn, param):
            sig = inspect.signature(fn)

            def hook(args, kwargs, result, error):
                c["measure.samples"] += int(sig.bind(*args, **kwargs).arguments[param])

            return hook

        return {
            "datamaps.evaluate": evaluate,
            "datamaps.ls_gap_batch": gap_batch,
            "datamaps.pc_gap_batch": gap_batch,
            "datamaps.aug_mean_gap_batch": gap_batch,
            "datamaps.lad_gap_batch": lad_gap_batch,
            "topology.winding_number": winding,
            "topology.localize_singularities": localize,
            "measure.box_count_dimension": box_count,
            "measure.distance_cdf": samples(measure.distance_cdf, "n_samples"),
            "measure.tube_volume": samples(measure.tube_volume, "mc_samples"),
            SOLVER: minimize,
        }

    def install(self) -> None:
        import scipy.optimize

        modules = {layer: importlib.import_module(f"singlab.{layer}") for layer in LAYERS}
        hooks = self._hooks(modules["measure"])
        wrapped = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if attr.startswith("_") or attr == "entry":
                    continue
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                traced = self.wrap(name, fn, hooks.get(name))
                if attr.endswith("_distance_fn"):
                    traced = self._kernel_factory(traced, "measure.distance_fn")
                elif attr.endswith("_membership"):
                    traced = self._kernel_factory(traced, "measure.cell_predicate")
                wrapped[id(fn)] = traced
        namespaces = [*modules.values(), importlib.import_module("singlab")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrapped:
                    self._patch(ns, attr, wrapped[id(value)])
        traced_minimize = self.wrap(SOLVER, scipy.optimize.minimize, hooks[SOLVER])
        self._patch(scipy.optimize, "minimize", traced_minimize)
        self._patch(modules["metrics"], "minimize", traced_minimize)
        slice_spec = modules["slices"].SliceSpec
        for attr in ("dataset_at", "boundary_family"):
            self._patch(slice_spec, attr, self.wrap(f"slices.{attr}", vars(slice_spec)[attr]))

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- analysis --------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_start)

    def _arrays(self):
        if self._cache is not None and self._cache[0] == self.span_count():
            return self._cache[1]
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(self.span_start, dtype=np.float64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self._cache = (self.span_count(), (names, parents, dur, dur - child))
        return self._cache[1]

    def summary(self, lo: int = 0, hi: int | None = None) -> dict:
        """Per span name: calls, total and self seconds over spans lo..hi-1."""
        names, _, dur, own = self._arrays()
        sl = slice(lo, hi)
        k = len(self.names)
        calls = np.bincount(names[sl], minlength=k)
        total = np.bincount(names[sl], weights=dur[sl], minlength=k)
        self_s = np.bincount(names[sl], weights=own[sl], minlength=k)
        return {n: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(self_s[i])}
                for i, n in enumerate(self.names) if calls[i]}

    def calls_under(self, name: str, ancestor: str, lo: int = 0, hi: int | None = None) -> int:
        """Number of ``name`` spans in lo..hi-1 with an ``ancestor`` span above them."""
        if name not in self._ids or ancestor not in self._ids:
            return 0
        target, anc = self._ids[name], self._ids[ancestor]
        names, parents, _, _ = self._arrays()
        idx = np.flatnonzero(names[lo:hi] == target) + lo
        under = np.zeros(len(idx), dtype=bool)
        p = parents[idx]
        while True:
            live = (p >= 0) & ~under
            if not live.any():
                break
            under |= live & (names[np.where(live, p, 0)] == anc)
            p = np.where(live & ~under, parents[np.where(live, p, 0)], -1)
        return int(under.sum())

    def save(self, path: str) -> None:
        names, parents, _, _ = self._arrays()
        np.savez(path, names=np.array(self.names), name=names, parent=parents,
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
