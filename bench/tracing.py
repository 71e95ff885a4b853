"""Timing wrappers around the program's public functions, for traced runs.

A ``Tracer`` replaces each function named in ``SPANS`` with a wrapper that
records one span (name, start, end, parent) per call.  The wrapper goes
wherever callers look the name up: every ``abrikosov`` module attribute
that refers to the original function is replaced, so ``torus`` and
``obstacle`` (which call ``backend.green_values`` through the module) and
``lattice`` (which imported ``dedekind_eta`` by name) are both covered.
Methods and constructors are replaced on their class.  Spans stay in
memory, in flat arrays, until ``layer_metrics`` and ``save`` read them.

Counts come from the calls' arguments (elements per kernel call, cells per
sweep) and from their outputs (restart tables, sweep counts, grid sizes).
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def replace_everywhere(orig, new):
    """Point every ``abrikosov`` module attribute that is ``orig`` at ``new``.

    Returns the undo list for ``restore``.
    """
    undo = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "abrikosov" or name.startswith("abrikosov.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)
                undo.append((mod, attr, orig))
    return undo


def restore(undo):
    for obj, attr, orig in reversed(undo):
        setattr(obj, attr, orig)


def _n_elems(args, kwargs):
    return len(args[0])


def _n_cells(args, kwargs):
    return len(args[1])


def _restart_counts(counts, args, kwargs, result):
    from abrikosov.torus import MinimizeControl

    ctl = kwargs.get("ctl", args[1] if len(args) > 1 else None) \
        or MinimizeControl()
    rows = [tuple(r[1:]) for r in result.restart_table]
    counts["torus.starts"] += len(rows)
    counts["torus.starts_converged"] += sum(r[2] < ctl.grad_tol for r in rows)
    counts["torus.duplicate_starts"] += sum(r in rows[:k] for k, r in enumerate(rows))
    counts["torus.descent_iters"] += sum(r[1] for r in rows)


def _sweeps(counts, args, kwargs, result):
    counts["obstacle.sweeps"] += result.iters


def _grid_cells(counts, args, kwargs, result):
    counts["obstacle.cells"] += args[0].n


def _scan_points(counts, args, kwargs, result):
    counts["lattice.moduli_scan.points"] += result.a.size


# (span name, module, attribute or Class.attribute, work count, output hook)
SPANS = [
    ("backend.green_values", "backend", "green_values", _n_elems, None),
    ("backend.green_grads", "backend", "green_grads", _n_elems, None),
    ("backend.psor_sweep", "backend", "psor_sweep", _n_cells, None),
    ("modular.dedekind_eta", "modular", "dedekind_eta", None, None),
    ("modular.kronecker_f", "modular", "kronecker_f", None, None),
    ("modular.zeta_difference_limit", "modular", "zeta_difference_limit",
     None, None),
    ("lattice.w_eta", "lattice", "w_eta", None, None),
    ("lattice.w_fourier", "lattice", "w_fourier", None, None),
    ("lattice.w_zeta_diff", "lattice", "w_zeta_diff", None, None),
    ("lattice.moduli_scan", "lattice", "moduli_scan", None, _scan_points),
    ("lattice.to_csv", "lattice", "ScanReport.to_csv", None, None),
    ("torus.GreenEvaluator", "torus", "GreenEvaluator.__init__", None, None),
    ("torus.minimize_config", "torus", "minimize_config", None,
     _restart_counts),
    ("torus.elkies_experiment", "torus", "elkies_experiment", None, None),
    ("torus.conjecture1_probe", "torus", "conjecture1_probe", None, None),
    ("obstacle.DomainGrid", "obstacle", "DomainGrid.__init__", None,
     _grid_cells),
    ("obstacle.scaled_residual", "obstacle", "DomainGrid.scaled_residual",
     None, None),
    ("obstacle.solve_h0", "obstacle", "solve_h0", None, _sweeps),
    ("obstacle.solve_obstacle", "obstacle", "solve_obstacle", None, _sweeps),
    ("obstacle.verify_scale_law", "obstacle", "verify_scale_law", None, None),
    ("obstacle.verify_gradient_bound", "obstacle", "verify_gradient_bound",
     None, None),
    ("obstacle.verify_ellipse_limit", "obstacle", "verify_ellipse_limit",
     None, None),
    ("cli.main", "cli", "main", None, None),
]

# counts from arguments and outputs; cli.* are set by the cli workload
COUNTS = ("backend.green_values.elems", "backend.green_grads.elems",
          "backend.psor_sweep.cells", "lattice.moduli_scan.points",
          "torus.starts", "torus.starts_converged", "torus.duplicate_starts",
          "torus.descent_iters", "obstacle.sweeps", "obstacle.cells",
          "cli.stdout_bytes", "cli.csv_bytes")

_WORK_KEY = {"backend.green_values": "elems", "backend.green_grads": "elems",
             "backend.psor_sweep": "cells"}


class Tracer:
    """Spans and counts of one traced round."""

    def __init__(self):
        self.names = [s[0] for s in SPANS]
        self.nid = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNTS, 0.0)
        self._stack = [-1]
        self._undo = []

    def _wrap(self, k, fn, work, post):
        name = self.names[k]
        work_key = f"{name}.{_WORK_KEY.get(name, '')}"
        nid, parent, start, end = self.nid, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            nid.append(k)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            if work is not None:
                counts[work_key] += work(args, kwargs)
            start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if post is not None:
                post(counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        for k, (_, mod_name, attr, work, post) in enumerate(SPANS):
            mod = importlib.import_module(f"abrikosov.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(k, orig, work, post))
                self._undo.append((cls, meth, orig))
            else:
                orig = getattr(mod, attr)
                self._undo += replace_everywhere(
                    orig, self._wrap(k, orig, work, post))

    def uninstall(self):
        restore(self._undo)
        self._undo = []

    def layer_metrics(self) -> dict:
        """Per-layer figures of the traced round, keyed by metric name."""
        nid = np.asarray(self.nid)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        out = defaultdict(float)
        out.update(self.counts)
        for k, name in enumerate(self.names):
            sel = nid == k
            out[f"{name}.calls"] = float(np.count_nonzero(sel))
            out[f"{name}.s"] = float(np.sum(dur[sel]))
            out[f"{name.split('.')[0]}.self_s"] += float(np.sum(self_time[sel]))
        for name, key in _WORK_KEY.items():
            work = out[f"{name}.{key}"]
            out[f"{name}.ns_per_{key[:-1]}"] = \
                1e9 * out[f"{name}.s"] / work if work else 0.0
        out["obstacle.verify.s"] = sum(
            out[f"obstacle.{v}.s"] for v in
            ("verify_scale_law", "verify_gradient_bound", "verify_ellipse_limit"))
        out["obstacle.residual_checks"] = out["obstacle.scaled_residual.calls"]
        starts = out["torus.starts"]
        out["torus.converged_ratio"] = \
            out["torus.starts_converged"] / starts if starts else 0.0
        # green_values calls made by the descent itself (initial energies
        # plus every line-search trial), per descent iteration
        k_gv = self.names.index("backend.green_values")
        k_min = self.names.index("torus.minimize_config")
        in_descent = (nid == k_gv) & has_parent
        in_descent[in_descent] = nid[parent[in_descent]] == k_min
        iters = out["torus.descent_iters"]
        out["torus.trials_per_iter"] = \
            float(np.count_nonzero(in_descent)) / iters if iters else 0.0
        return dict(out)

    def save(self, path):
        """Write the spans (name index, parent index, start, end) to .npz."""
        np.savez_compressed(
            path, names=np.array(self.names),
            nid=np.asarray(self.nid), parent=np.asarray(self.parent),
            start=np.asarray(self.start), end=np.asarray(self.end))
