"""Spans around the public functions of each orthantloop layer, recorded from
outside the program.

Names are imported by value across the package (``dimshift.evaluate_unit``
is ``npoint.evaluate_unit``), so the tracer replaces a function in every
``orthantloop.*`` namespace that holds it and puts the originals back on
exit.  Integrands handed to ``adaptive_batch`` are wrapped too: their nodes
are counted where they are evaluated, and their time is charged to the
module that passed them in (``gaussint.integrand`` and so on).

A function that a later version no longer has is reported as absent, with
zero calls, instead of failing the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

TRACED = {
    "matrixops": ("correlation_data", "det", "inverse_batch"),
    "quadrature": ("adaptive_batch", "integrate_contour"),
    "gaussint": ("quartet_batch", "i_hex"),
    "npoint": ("evaluate_unit", "orthant_probability", "orthant_probability_batch"),
    "dimshift": ("raise_dimension", "lower_dimension", "eps_expand",
                 "raise_power_duplicate", "choose_abscissa", "unit_contour_evaluator"),
    "cli": ("run",),
}
STACKED = {"matrixops.inverse_batch", "gaussint.quartet_batch",
           "npoint.orthant_probability_batch"}      # first argument is a stack
INTEGRAND_OWNERS = ("quadrature", "gaussint", "dimshift")


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    package = "orthantloop"

    def __init__(self, traced=TRACED):
        self.traced = traced
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- installation --------------------------------------------------------

    def __enter__(self):
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == self.package
                                            or name.startswith(self.package + "."))]
        for home, funcs in self.traced.items():
            home_mod = sys.modules.get(f"{self.package}.{home}")
            for fname in funcs:
                original = getattr(home_mod, fname, None)
                if not callable(original):
                    self.absent.append(f"{home}.{fname}")
                    continue
                for mod in namespaces:
                    if vars(mod).get(fname) is original:
                        owner = mod.__name__.rpartition(".")[2]
                        setattr(mod, fname, self._wrap(f"{home}.{fname}", original, owner))
                        self._saved.append((mod, fname, original))
        return self

    def __exit__(self, *exc):
        for mod, fname, original in reversed(self._saved):
            setattr(mod, fname, original)
        self._saved.clear()
        return False

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, label: str, original, owner: str):
        tracer = self
        adaptive = label == "quadrature.adaptive_batch"

        def traced(*args, **kwargs):
            if adaptive:
                args = (tracer._integrand(args[0], owner),) + args[1:]
            idx = tracer._open(label)
            try:
                out = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._count(label, args, kwargs, out)
            return out

        return traced

    def _integrand(self, f, owner: str):
        label = f"{owner}.integrand"
        tracer = self

        def counted(x):
            idx = tracer._open(label)
            try:
                y = f(x)
            finally:
                tracer._close(idx)
            tracer.counts["quadrature.integrand_nodes"] += np.size(x)
            return y

        return counted

    def _count(self, label: str, args, kwargs, out) -> None:
        if label in STACKED:
            stack = args[0] if args else next(iter(kwargs.values()))
            self.counts[f"{label}.matrices"] += np.shape(stack)[0]
        elif label == "quadrature.adaptive_batch":
            value, _, ok, neval = out
            self.counts[f"{label}.nodes"] += neval
            self.counts[f"{label}.evals"] += neval * np.size(value)
            self.counts[f"{label}.nonconverged"] += 0 if ok else 1

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name][0] += 1
            out[name][1] += (end - start) - inner
        return {k: (v[0], v[1]) for k, v in out.items()}

    def metrics(self) -> dict[str, float]:
        """Per-function calls and self time, the extra counters and the self
        time of every module.  Absent functions read zero."""
        times = self.self_times()
        out: dict[str, float] = {}
        module_self: dict[str, float] = defaultdict(float)
        for name, (_, self_s) in times.items():
            module_self[name.partition(".")[0]] += self_s
        for home, funcs in self.traced.items():
            for fname in funcs:
                calls, self_s = times.get(f"{home}.{fname}", (0, 0.0))
                out[f"{home}.{fname}.calls"] = calls
                out[f"{home}.{fname}.self_s"] = self_s
            out[f"{home}.self_s"] = module_self.get(home, 0.0)
        for owner in INTEGRAND_OWNERS:
            out[f"{owner}.integrand.self_s"] = times.get(f"{owner}.integrand", (0, 0.0))[1]
        for label in sorted(STACKED):
            out[f"{label}.matrices"] = self.counts.get(f"{label}.matrices", 0)
        for key in ("nodes", "evals", "nonconverged"):
            out[f"quadrature.adaptive_batch.{key}"] = self.counts.get(
                f"quadrature.adaptive_batch.{key}", 0)
        out["quadrature.integrand_nodes"] = self.counts.get("quadrature.integrand_nodes", 0)
        out["trace.spans"] = len(self.spans)
        out["trace.absent_names"] = len(self.absent)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
