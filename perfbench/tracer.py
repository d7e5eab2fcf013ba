"""Spans around trmod's layer functions, recorded from outside the program.

`Tracer().install()` replaces each listed function, in its defining
module and in every trmod module that imported it by name, with a
wrapper that records a span: name, start, end and parent span.  A
span's self time is its duration minus the time its child spans cover.
Spans are kept in memory and written out at the end of the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (metric name, defining module, attribute path)
TARGETS = [
    ("linalg.rref", "trmod.linalg", "rref"),
    ("linalg.rank", "trmod.linalg", "rank"),
    ("linalg.nullspace", "trmod.linalg", "nullspace"),
    ("linalg.solve", "trmod.linalg", "solve"),
    ("linalg.inv", "trmod.linalg", "inv"),
    ("linalg.subspace_add", "trmod.linalg", "Subspace.add"),
    ("algebra.mult_op", "trmod.algebra", "GradedLocalAlgebra.mult_op"),
    ("algebra.exact_zero_divisor_partner", "trmod.algebra", "exact_zero_divisor_partner"),
    ("algebra.enumerate_ezd", "trmod.algebra", "enumerate_ezd"),
    ("modmat.linearize", "trmod.modmat", "linearize"),
    ("modmat.syzygy", "trmod.modmat", "syzygy"),
    ("modmat.has_m2_column", "trmod.modmat", "has_m2_column"),
    ("modmat.prune_presentation", "trmod.modmat", "prune_presentation"),
    ("modmat.coker_length", "trmod.modmat", "coker_length"),
    ("modmat.is_equivalent", "trmod.modmat", "is_equivalent"),
    ("modmat.is_indecomposable", "trmod.modmat", "is_indecomposable"),
    ("modmat.endomorphism_space", "trmod.modmat", "endomorphism_space"),
    ("modmat.correction_space", "trmod.modmat", "correction_space"),
    ("modmat.cokernel_project", "trmod.modmat", "CokernelSpace.project"),
    ("modmat.cokernel_mult_op", "trmod.modmat", "CokernelSpace.mult_op"),
    ("totref.check_totally_reflexive", "trmod.totref", "check_totally_reflexive"),
    ("totref.check_ut_tr", "trmod.totref", "check_ut_tr"),
    ("filtration.find_ut_form", "trmod.filtration", "find_ut_form"),
    ("filtration.filtrate_ut", "trmod.filtration", "filtrate_ut"),
    ("ext.ext1", "trmod.ext", "ext1"),
    ("ext.gamma", "trmod.ext", "gamma"),
]

# function -> (ratio metric, which results count as useful outcomes)
RATIOS = {
    "linalg.subspace_add": ("linalg.subspace_add.growth_ratio", lambda r: r is True),
    "modmat.is_equivalent": ("modmat.is_equivalent.found_ratio", lambda r: r is not None),
    "modmat.has_m2_column": ("modmat.has_m2_column.true_ratio", lambda r: r is True),
    "filtration.find_ut_form": ("filtration.find_ut_form.found_ratio", lambda r: r is not None),
}


def _cells(args):
    shape = np.shape(args[0])
    if len(shape) == 1:
        return shape[0]
    return shape[0] * shape[1] if len(shape) == 2 else 0


class Tracer:
    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.calls = [0] * len(TARGETS)
        self.self_s = [0.0] * len(TARGETS)
        self.hits = [0] * len(TARGETS)  # useful outcomes, see RATIOS
        self.elim_cells = 0
        self.resolution_steps = 0
        # spans: name index, start, end, parent span (-1 for a root)
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack = []  # [span id, child time] per open span
        self._undo = []

    def _wrap(self, idx, fn):
        name = self.names[idx]
        hit = RATIOS[name][1] if name in RATIOS else None
        counts_cells = name in ("linalg.rref", "linalg.rank")
        counts_depth = name == "totref.check_totally_reflexive"
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.span_name)
            self.span_name.append(idx)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self.span_start[sid] = t0
                self.span_end[sid] = t1
                self.calls[idx] += 1
                self.self_s[idx] += dur - frame[1]
            if hit is not None and hit(result):
                self.hits[idx] += 1
            if counts_cells:
                self.elim_cells += _cells(args)
            if counts_depth:
                self.resolution_steps += result.depth
            return result

        return traced

    def install(self):
        """Patch every loaded trmod module; `uninstall` undoes it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "trmod" or n.startswith("trmod.")]
        for idx, (_, modname, path) in enumerate(TARGETS):
            owner = sys.modules[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(idx, original)
            self._set(owner, attr, wrapper)
            if not cls_path:
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is original and mod is not owner:
                            self._set(mod, key, wrapper)

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def metrics(self) -> dict:
        out = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[idx], "count")
            out[f"{name}.self_s"] = (self.self_s[idx], "s")
        for fn_name, (metric, _) in RATIOS.items():
            idx = self.names.index(fn_name)
            calls = self.calls[idx]
            out[metric] = (self.hits[idx] / calls if calls else 0.0, "ratio")
        out["linalg.elim_cells"] = (self.elim_cells, "count")
        out["totref.resolution_steps"] = (self.resolution_steps, "count")
        return out

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32))
