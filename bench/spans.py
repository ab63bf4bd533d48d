"""Tracing shim: spans around calls into the fransonsim layers.

The shim wraps public functions from outside the package. A wrapped
function is rebound in its defining module and in every fransonsim module
that imported it by name (``cli`` imports ``mle_reconstruct``,
``transfer`` and others that way), so calls made inside the package are
traced as well. Methods are wrapped on their class; that is how
``DensityMatrix.__post_init__`` counts state validations. ``uninstall``
restores every binding it replaced.

Each span records its name, layer, start, end, parent span and run id.
Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (layer, defining module, attribute). A dotted attribute names a method.
# The layers are the package modules; report, CSV and dump writing belong to
# ``cli`` because the pipelines call them, wherever they are defined.
TARGETS = (
    ("qcore", "fransonsim.qcore", "DensityMatrix.__post_init__"),
    ("qcore", "fransonsim.qcore", "apply_unitary"),
    ("qcore", "fransonsim.qcore", "apply_channel"),
    ("qcore", "fransonsim.qcore", "concurrence"),
    ("qcore", "fransonsim.qcore", "fidelity_to"),
    ("qcore", "fransonsim.qcore", "purity"),
    ("optics", "fransonsim.optics", "make_source_state"),
    ("optics", "fransonsim.optics", "apply_noisy_channel"),
    ("transfer", "fransonsim.transfer", "transfer"),
    ("transfer", "fransonsim.transfer", "block_long_arms"),
    ("transfer", "fransonsim.transfer", "sum_phase_scan"),
    ("tomo", "fransonsim.tomo", "simulate_counts"),
    ("tomo", "fransonsim.tomo", "linear_inversion"),
    ("tomo", "fransonsim.tomo", "mle_reconstruct"),
    ("tomo", "fransonsim.tomo", "analytic_counts"),
    ("tomo", "fransonsim.tomo", "setting_projectors"),
    ("tomo", "fransonsim.tomo", "monte_carlo_metrics"),
    ("tomo", "fransonsim.tomo", "chsh_value"),
    ("cli", "fransonsim.cli", "run_purification"),
    ("cli", "fransonsim.cli", "run_chsh_sweep"),
    ("cli", "fransonsim.cli", "run_custom"),
    ("cli", "fransonsim.cli", "run_fringe_scan"),
    ("cli", "fransonsim.cli", "config_to_raw"),
    ("cli", "fransonsim.cli", "RunReport.write"),
    ("cli", "fransonsim.cli", "emit_plot_data"),
    ("cli", "fransonsim.tomo", "counts_to_csv"),
    ("cli", "fransonsim.qcore", "dump_density_matrix"),
)
LAYERS = ("qcore", "optics", "transfer", "tomo", "cli")


def _package_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "fransonsim" or name.startswith("fransonsim."))
    ]


def _covered(intervals, start, end):
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Records spans for the calls into ``TARGETS`` while installed.

    A span opened on a thread with no open span of its own (a sweep worker
    of the thread pool) takes the outermost open span, the ``run_*``
    pipeline call, as its parent. Reconstruction results are kept as
    ``(method, iterations, converged)``.
    """

    def __init__(self):
        self.spans = []  # (id, parent, run, name, layer, start, end)
        self.fits = []  # (method, iterations, converged)
        self.bootstrap_samples = 0
        self.missing = []
        self.run = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root = None
        self._undo = []

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        self.missing = []
        for layer, modname, path in TARGETS:
            mod = sys.modules.get(modname)
            owner_name, _, attr = path.rpartition(".")
            name = f"{layer}.{path}"
            if owner_name:
                owner = getattr(mod, owner_name, None)
                orig = None if owner is None else owner.__dict__.get(attr)
                if orig is None:
                    self.missing.append(name)
                    continue
                setattr(owner, attr, self._wrap(name, layer, orig))
                self._undo.append((owner, attr, orig))
                continue
            orig = getattr(mod, attr, None)
            if not callable(orig):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, layer, orig)
            for module in _package_modules():
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, orig))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            if parent is None:
                tracer._root = sid
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if parent is None:
                    tracer._root = None
                tracer.spans.append((sid, parent, tracer.run, name, layer, start, end))
            tracer._observe(result)
            return result

        return wrapper

    def _observe(self, result) -> None:
        if hasattr(result, "converged") and hasattr(result, "iterations"):
            self.fits.append((result.method, int(result.iterations), bool(result.converged)))
        elif hasattr(result, "n_samples") and hasattr(result, "n_failed"):
            with self._lock:
                self.bootstrap_samples += int(result.n_samples)

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds; per layer: self seconds."""
        children = defaultdict(list)
        for sid, parent, _, _, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        by_name = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        by_layer = dict.fromkeys(LAYERS, 0.0)
        for sid, _, _, name, layer, start, end in self.spans:
            own = (end - start) - _covered(children.get(sid, ()), start, end)
            entry = by_name[name]
            entry["calls"] += 1
            entry["incl_s"] += end - start
            entry["self_s"] += own
            by_layer[layer] += own
        return {"names": dict(by_name), "layers": by_layer}

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        keys = ("id", "parent", "run", "name", "layer", "start", "end")
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
