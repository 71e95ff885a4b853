"""Command-line front end.

Four subcommands drive the library: ``lattice`` (single energy evaluations),
``moduli-scan`` (shape optimization over the fundamental domain), ``fekete``
(torus point-configuration search and the related experiments), and
``obstacle`` (constant-obstacle solves and their verification suites).

Output contract: JSON reports to stdout or ``--output`` with 12 significant
digits, sorted keys, an embedded run configuration, and a version stamp; CSV
side files with 9 significant digits.  Identical invocations produce
byte-identical output (no timestamps, fixed seeds, deterministic solvers).
Exit codes: 0 success, 2 input/usage error, 3 numerical failure.

The module imports only the standard library and ``errors``; each
subcommand imports the library modules it calls when it runs, so
``--version``, ``--help`` and usage errors answer without loading numpy.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from ._version import __version__
from .errors import InfeasibleObstacle, InputError, NumericalError, positive

# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------


def _json_ready(obj):
    """Recursively normalize a payload: 12 significant digits, plain types;
    a dataclass goes in as its fields."""
    import dataclasses

    import numpy as np

    def ready(obj):
        if dataclasses.is_dataclass(obj):
            return ready(dataclasses.asdict(obj))
        if isinstance(obj, dict):
            return {str(k): ready(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [ready(v) for v in obj]
        if isinstance(obj, (bool, np.bool_)):
            return bool(obj)
        if isinstance(obj, (int, np.integer)):
            return int(obj)
        if isinstance(obj, (float, np.floating)):
            x = float(obj)
            return float(f"{x:.12g}") if math.isfinite(x) else x
        if isinstance(obj, np.ndarray):
            return ready(obj.tolist())
        if obj is None or isinstance(obj, str):
            return obj
        return str(obj)

    return ready(obj)


def _emit_json(payload: dict, path) -> None:
    text = json.dumps(_json_ready(payload), sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_OUTPUT_FILES = ("csv", "trace_csv", "field_csv")


def _payload(args, table: dict) -> dict:
    """The report's version stamp and ``run_config``, from the run's table.

    ``table`` maps every input of the subcommand to the value the run uses,
    defaults included, or to None where the run does not read it.  An input
    given on the command line whose entry is None is an input error: the
    run would ignore it.  Output files follow the same rule but stay out of
    ``run_config``, and one whose directory does not exist is an input
    error too, raised before the run computes anything.
    """
    for key, value in table.items():
        if value is None and getattr(args, key, None) is not None:
            raise InputError(f"this run does not use {_flag(key)}")
    for key in (*_OUTPUT_FILES, "output"):
        path = getattr(args, key, None)
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise InputError(f"cannot write {_flag(key)} {path}: no such "
                             "directory")
    config = {k: v for k, v in table.items() if k not in _OUTPUT_FILES}
    return {"version": __version__,
            "run_config": {"command": args.command, **config}}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _fill(args, **defaults) -> None:
    """Set each flag still at its parser default, None, to the library's
    default; the parser is built without importing the library."""
    for key, value in defaults.items():
        if getattr(args, key) is None:
            setattr(args, key, value)


def _add_series_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--abs-tol", type=float, default=None,
                   help="absolute tolerance that sizes every q-series and "
                        "lattice sum")


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------


def cmd_lattice(args) -> int:
    from .lattice import (TRIANGULAR_TAU, lattice_to_tau, w_eta, w_fourier,
                          w_zeta_diff)
    from .modular import LatticeBasis, SeriesControl

    if (args.tau is None) == (args.basis is None):
        raise InputError("provide exactly one of --tau A B or --basis U1 U2 V1 V2")
    _fill(args, abs_tol=SeriesControl.abs_tol)
    ctl = SeriesControl(abs_tol=args.abs_tol)
    if args.tau is not None:
        tau = complex(args.tau[0], args.tau[1])
        m = args.m if args.m is not None else 1.0
    else:
        u1, u2, v1, v2 = args.basis
        basis = LatticeBasis((u1, u2), (v1, v2))
        tau, scale = lattice_to_tau(basis)
        # default density: the one the given basis actually has
        m = args.m if args.m is not None else 1.0 / (scale * scale)
    ref = None
    if args.route == "zetadiff-vs":
        ref = complex(*args.ref_tau) if args.ref_tau else TRIANGULAR_TAU
    payload = _payload(args, {
        "m": m, "route": args.route,
        "tau": [tau.real, tau.imag],
        "ref_tau": [ref.real, ref.imag] if ref is not None else None,
        "abs_tol": args.abs_tol,
    })
    if args.route == "eta":
        payload["report"] = w_eta(tau, m, ctl)
    elif args.route == "fourier":
        payload["report"] = w_fourier(tau, m, ctl)
    else:  # zetadiff-vs
        diff = w_zeta_diff(tau, ref, m, ctl)
        payload["report"] = {
            "value": diff,
            "route": "zetadiff-vs",
            "reference_tau": [ref.real, ref.imag],
        }
    _emit_json(payload, args.output)
    return 0


# ---------------------------------------------------------------------------
# moduli-scan
# ---------------------------------------------------------------------------


def cmd_moduli_scan(args) -> int:
    from .lattice import ModuliGrid, moduli_scan
    from .modular import SeriesControl

    (a_min, a_max), (b_min, b_max) = ModuliGrid.a_range, ModuliGrid.b_range
    _fill(args, a_min=a_min, a_max=a_max, b_min=b_min, b_max=b_max,
          resolution=ModuliGrid.resolution, abs_tol=SeriesControl.abs_tol)
    payload = _payload(args, {
        "a_min": args.a_min, "a_max": args.a_max,
        "b_min": args.b_min, "b_max": args.b_max,
        "resolution": args.resolution, "m": args.m,
        "abs_tol": args.abs_tol, "csv": args.csv,
    })
    grid = ModuliGrid(a_range=(args.a_min, args.a_max),
                      b_range=(args.b_min, args.b_max),
                      resolution=args.resolution)
    report = moduli_scan(grid, args.m, SeriesControl(abs_tol=args.abs_tol))
    payload["scan"] = report.to_json_dict()
    if args.csv:
        report.to_csv(args.csv)
        payload["csv_path"] = args.csv
    _emit_json(payload, args.output)
    return 0


# ---------------------------------------------------------------------------
# fekete
# ---------------------------------------------------------------------------


def _make_torus(name: str, aspect):
    from .torus import TorusSpec

    if name == "square":
        return TorusSpec.square()
    if name == "hex":
        return TorusSpec.hexagonal()
    return TorusSpec.rectangular(aspect)


def cmd_fekete(args) -> int:
    from .csvfile import write_csv
    from .modular import SeriesControl
    from .torus import (MinimizeControl, TorusConfig, _input_start,
                        conjecture1_probe, elkies_experiment, minimize_config)

    _fill(args, restarts=MinimizeControl.restarts,
          seed=MinimizeControl.rng_seed, max_iters=MinimizeControl.max_iters,
          grad_tol=MinimizeControl.grad_tol, abs_tol=SeriesControl.abs_tol)
    if args.elkies and args.conjecture1:
        raise InputError("--elkies and --conjecture1 are separate runs; "
                         "give one")
    search = not (args.elkies or args.conjecture1)
    if search and args.n is None:
        raise InputError("provide --n (or one of --elkies / --conjecture1)")
    torus_name = None if args.conjecture1 else args.torus or "square"
    aspect = None
    if torus_name == "rect":
        aspect = math.sqrt(3.0) if args.aspect is None else args.aspect
    table = {
        "mode": ("elkies" if args.elkies else
                 "conjecture1" if args.conjecture1 else "minimize"),
        "n": args.n if search else None,
        "n_max": (8 if args.n_max is None else args.n_max)
        if args.elkies else None,
        "n_list": (args.n_list or [2, 3, 4]) if args.conjecture1 else None,
        "torus": torus_name, "aspect": aspect, "seed": args.seed,
        "restarts": args.restarts, "max_iters": args.max_iters,
        "grad_tol": args.grad_tol, "abs_tol": args.abs_tol,
        "trace_csv": args.trace_csv if search else None,
    }
    payload = _payload(args, table)
    series = SeriesControl(abs_tol=args.abs_tol)
    mctl = MinimizeControl(max_iters=args.max_iters, grad_tol=args.grad_tol,
                           restarts=args.restarts, rng_seed=args.seed)
    if args.elkies:
        rep = elkies_experiment(range(2, table["n_max"] + 1),
                                _make_torus(torus_name, aspect), mctl, series)
        payload["elkies"] = rep.to_json_dict()
    elif args.conjecture1:
        payload["conjecture1"] = conjecture1_probe(table["n_list"], mctl,
                                                   series)
    else:
        if args.n < 1:
            raise InputError("--n must be >= 1")
        out = minimize_config(
            TorusConfig(_make_torus(torus_name, aspect),
                        _input_start(args.n, args.seed)), mctl, series)
        payload.update(
            energy=out.report, config=out.config.to_json_dict(),
            stalled=out.stalled, converged=out.converged,
            exit_reason=out.exit_reason, final_grad_norm=out.trace[-1][2],
            iterations=len(out.trace) - 1,
            restart_table=[{"index": i, "energy": e, "iters": k,
                            "grad_norm": g, "stalled": s}
                           for i, e, k, g, s in out.restart_table])
        if args.trace_csv:
            write_csv(args.trace_csv, "iter,energy,grad_norm",
                      "%d,%.9g,%.9g", [zip(*out.trace)])
            payload["trace_csv_path"] = args.trace_csv
    _emit_json(payload, args.output)
    return 0


# ---------------------------------------------------------------------------
# obstacle
# ---------------------------------------------------------------------------


def _make_shape(args):
    from .obstacle import ConvexPolygon, Ellipse, UnitDisk

    chosen = [bool(args.disk), args.ellipse is not None,
              args.polygon is not None]
    if sum(chosen) != 1:
        raise InputError(
            "provide exactly one of --disk, --ellipse RX RY, --polygon ..."
        )
    if args.disk:
        return UnitDisk(), {"shape": "disk"}
    if args.ellipse is not None:
        rx, ry = args.ellipse
        return Ellipse(rx, ry), {"shape": "ellipse", "rx": rx, "ry": ry}
    coords = args.polygon
    if len(coords) < 6 or len(coords) % 2:
        raise InputError("--polygon needs an even number (>= 6) of coordinates")
    verts = [(coords[i], coords[i + 1]) for i in range(0, len(coords), 2)]
    return ConvexPolygon(verts), {"shape": "polygon", "vertices": verts}


def _basic_suite(grid, tol: float) -> dict:
    """Activation threshold, endpoint, monotonicity, and mass checks.

    Two solves are compared up to the sum of their value-error bounds.
    """
    from .obstacle import coincidence_metrics, solve_h0, solve_obstacle

    h0 = solve_h0(grid, tol)
    low = solve_obstacle(grid, 0.5, tol)
    top = solve_obstacle(grid, 1.0, tol)
    levels = (0.80, 0.85, 0.90, 0.95)
    fields = [solve_obstacle(grid, m, tol) for m in levels]

    chain = [low] + fields + [top]
    monotone = True
    pad = 0.0
    for f1, f2 in zip(chain, chain[1:]):
        pair_pad = f1.value_error + f2.value_error
        pad = max(pad, pair_pad)
        dv = f2.values - f1.values
        if float(dv.min()) < -pair_pad \
                or float(dv.max()) > (f2.m - f1.m) + pair_pad:
            monotone = False
    mass = [f.m * coincidence_metrics(f).area for f in chain]
    increasing_mass = all(m2 >= m1 - 1e-12 for m1, m2 in zip(mass, mass[1:]))
    spans = (mass[0] == 0.0
             and abs(mass[-1] - grid.area) <= 1e-12 * max(grid.area, 1.0))
    verdict = {
        "h0": h0.to_json_dict(),
        "empty_below_threshold": bool(not low.active.any()),
        "inactive_matches_unconstrained": bool(
            float(abs(low.values - h0.values).max())
            <= low.value_error + h0.value_error),
        "full_at_top": bool(top.active.all()),
        "top_area": coincidence_metrics(top).area,
        "domain_area": grid.area,
        "monotone_in_m": monotone,
        "monotone_pad": pad,
        "increasing_mass": increasing_mass,
        "mass_spans_domain": spans,
        "complementarity_residuals": [f.residual for f in chain],
        "levels": [f.to_json_dict() for f in fields],
    }
    verdict["all_pass"] = all((
        verdict["empty_below_threshold"],
        verdict["inactive_matches_unconstrained"],
        verdict["full_at_top"],
        verdict["monotone_in_m"],
        verdict["increasing_mass"],
        verdict["mass_spans_domain"],
        all(r < tol for r in verdict["complementarity_residuals"]),
    ))
    return verdict


def cmd_obstacle(args) -> int:
    from .obstacle import (DomainGrid, check_level, solve_h0, solve_obstacle,
                           verify_ellipse_limit, verify_gradient_bound,
                           verify_scale_law)

    shape, shape_params = _make_shape(args)
    suite = args.suite
    if suite is None and (args.m is None) == (args.m_grid is None):
        raise InputError("provide exactly one of --m and --m-grid, or a "
                         "--suite")
    if args.field_csv and args.m_grid and len(args.m_grid) != 1:
        raise InputError("--field-csv requires exactly one level")
    if suite == "ellipse" and args.offsets and len(args.offsets) != 1:
        raise InputError("--suite ellipse takes one --offsets value")
    m_grid = {None: args.m_grid,
              "gradient-bound": args.m_grid or [0.90, 0.95, 0.99]}.get(suite)
    # the scale-law defaults lie inside the small-excess law's range,
    # 2 pi offset/base <= 1/(4e)
    offsets = {"scale-law": args.offsets or [0.005, 0.01],
               "ellipse": args.offsets or [0.03]}.get(suite)
    h = args.h if args.h is not None else (
        1.0 / 256.0 if suite in ("scale-law", "ellipse") else 1.0 / 128.0)
    single = suite is None
    payload = _payload(args, dict(
        shape_params, h=h, tol=args.tol, suite=suite,
        m=args.m if single else None, m_grid=m_grid, offsets=offsets,
        field_csv=args.field_csv if single else None))
    # a bad level or tol is rejected before the grid is built
    levels = [check_level(m)
              for m in ([args.m] if args.m is not None else m_grid or [])]
    positive("tol", args.tol)
    grid = DomainGrid(shape, h)
    payload["grid"] = {"h": h, "interior_cells": grid.n, "area": grid.area}

    if suite in (None, "gradient-bound"):
        fields = [solve_obstacle(grid, m, args.tol) for m in levels]
        if suite is not None:
            payload["suite"] = verify_gradient_bound(fields)
        else:
            payload["fields"] = [f.to_json_dict() for f in fields]
            if args.field_csv:
                fields[0].to_csv(args.field_csv)
                payload["field_csv_path"] = args.field_csv
    elif suite == "propA1":
        payload["suite"] = _basic_suite(grid, args.tol)
    else:
        base = solve_h0(grid, args.tol)
        if any(base.min_value + off > 1.0 for off in offsets):
            raise InfeasibleObstacle(
                f"--offsets {' '.join(map(str, offsets))} put a level above "
                f"the boundary value 1: the h0 minimum is {base.min_value}, "
                f"so an offset can be at most {1.0 - base.min_value}")
        fields = [solve_obstacle(grid, base.min_value + off, args.tol)
                  for off in offsets]
        payload["h0"] = base.to_json_dict()
        payload["suite"] = (verify_scale_law(fields, base.min_value)
                            if suite == "scale-law"
                            else verify_ellipse_limit(fields[0]))
    _emit_json(payload, args.output)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="abrikosov",
        description="Renormalized lattice energies, torus point "
                    "configurations, and the constant-obstacle problem.",
    )
    root.add_argument("--version", action="version", version=__version__)
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="single-lattice energy evaluation")
    p.add_argument("--tau", type=float, nargs=2, metavar=("A", "B"),
                   help="shape modulus a + i b")
    p.add_argument("--basis", type=float, nargs=4,
                   metavar=("U1", "U2", "V1", "V2"),
                   help="lattice basis vectors u = (U1, U2), v = (V1, V2)")
    p.add_argument("--m", type=float, default=None,
                   help="density (default 1, or the basis's own density)")
    p.add_argument("--route", choices=("eta", "fourier", "zetadiff-vs"),
                   default="eta")
    p.add_argument("--ref-tau", type=float, nargs=2, metavar=("A", "B"),
                   default=None,
                   help="reference shape for the zetadiff-vs route (default "
                        "the triangular rho = 1/2 + i sqrt(3)/2)")
    _add_series_flags(p)
    p.add_argument("--output", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("moduli-scan",
                       help="energy scan over fundamental-domain shapes")
    p.add_argument("--a-min", type=float, default=None)
    p.add_argument("--a-max", type=float, default=None)
    p.add_argument("--b-min", type=float, default=None)
    p.add_argument("--b-max", type=float, default=None)
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--m", type=float, default=1.0)
    _add_series_flags(p)
    p.add_argument("--csv", help="write the (a, b, W) grid CSV here")
    p.add_argument("--output", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_moduli_scan)

    p = sub.add_parser("fekete",
                       help="torus point-configuration search and experiments")
    p.add_argument("--n", type=int, default=None, help="number of points")
    p.add_argument("--torus", choices=("square", "hex", "rect"),
                   default=None,
                   help="torus of a --n search or --elkies (default square)")
    p.add_argument("--aspect", type=float, default=None,
                   help="side ratio of the rect torus (default sqrt(3))")
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--grad-tol", type=float, default=None)
    p.add_argument("--elkies", action="store_true",
                   help="run the excess-band experiment for n = 2..n-max")
    p.add_argument("--n-max", type=int, default=None,
                   help="largest n of --elkies (default 8)")
    p.add_argument("--conjecture1", action="store_true",
                   help="compare minima against the triangular reference")
    p.add_argument("--n-list", type=int, nargs="+", default=None,
                   help="point counts of --conjecture1 (default 2 3 4)")
    _add_series_flags(p)
    p.add_argument("--trace-csv", help="write the descent trace CSV here")
    p.add_argument("--output", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_fekete)

    p = sub.add_parser("obstacle",
                       help="constant-obstacle solves and verification suites")
    p.add_argument("--disk", action="store_true", help="unit disk domain")
    p.add_argument("--ellipse", type=float, nargs=2, metavar=("RX", "RY"))
    p.add_argument("--polygon", type=float, nargs="+",
                   metavar="C", help="flat x y pairs, counterclockwise")
    p.add_argument("--h", type=float, default=None,
                   help="grid spacing (default 1/128; 1/256 for the "
                        "scale-law and ellipse suites)")
    p.add_argument("--m", type=float, default=None, help="obstacle level")
    p.add_argument("--m-grid", type=float, nargs="+", default=None)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--suite",
                   choices=("propA1", "gradient-bound", "scale-law", "ellipse"),
                   default=None)
    p.add_argument("--offsets", type=float, nargs="+", default=None,
                   help="levels above the activation threshold for the "
                        "scale-law/ellipse suites")
    p.add_argument("--field-csv", help="write the x,y,H,active grid CSV here")
    p.add_argument("--output", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_obstacle)

    return root


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        # an output file that cannot be written is bad input, like a
        # missing directory caught before the run
        print(f"input error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
