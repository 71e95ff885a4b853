"""The benchmark's four workloads.

Each workload fixes its inputs at construction (the set-up the benchmark
times as ``setup_s``), makes its calls into the program in ``run`` (the
work timed as ``wall_s``), and checks every output in ``check`` against
``reference.py`` or against properties the mathematics guarantees, never
against a stored copy of an earlier output.

``input_seed`` seeds the program's own random starts; it has a fixed default
so that the solver work, and with it every iteration count, repeats exactly
from run to run.  ``check_seed`` (the benchmark's ``--seed``) draws the
inputs of the checks: the translation applied before an energy is
recomputed and the CSV rows that are recomputed.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import reference as ref
from tracing import replace_everywhere

ENERGY_TOL = 1e-9      # program energy against the theta_1-series energy
CRITICAL_TOL = 1e-6    # central-difference gradient at a converged minimum
W_TOL = 1e-12          # lattice energies printed with 12 significant digits
GAP_TOL = 1e-9         # W(i) - W(rho) by the theta/zeta route
# The disk grid, the red-black sweep and the cut legs are symmetric under
# the square's reflections, so a field may break the symmetry only by
# rounding accumulated over ~10^3 sweeps (about 3e-13).
SYMMETRY_TOL = 1e-11


class Verdict:
    """Operations attempted and failed in one round, and what went wrong.

    ``problems`` lists failed checks; a failed check also fails its
    operation.  ``counts`` are the round's exact solver counts, which must
    repeat from round to round and run to run.  ``layer`` holds per-layer
    counts that only the workload can see (bytes the CLI wrote).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.counts = {}
        self.layer = {}

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)
        return bool(ok)


def _close(a, b, tol):
    return abs(a - b) <= tol


class _Capture:
    """Keeps the outcome of every ``minimize_config`` call.

    The experiments return only their summary rows; the checks need the
    minimizing configurations and restart tables behind them.
    """

    def __init__(self, torus_mod):
        self.orig = torus_mod.minimize_config
        self.outcomes = []

        def minimize_config(*args, **kwargs):
            out = self.orig(*args, **kwargs)
            self.outcomes.append(out)
            return out

        replace_everywhere(self.orig, minimize_config)

    def take(self):
        out, self.outcomes = self.outcomes, []
        return out


def _check_starts(v, outcome, grad_tol, label):
    """Count the starts of one minimize_config call; unconverged ones fail."""
    rows = outcome.restart_table
    v.attempted += len(rows)
    v.failed += sum(1 for r in rows if not r[3] < grad_tol)
    v.counts[label] = [int(r[2]) for r in rows]


def _independent_energy(outcome, shift):
    """theta_1-series energy of the returned configuration, translated."""
    basis = outcome.config.torus.basis
    tau = ref.torus_tau(basis.u, basis.v)
    return ref.config_energy(outcome.config.points + shift, tau), tau


class Elkies:
    """``elkies_experiment`` for n = 2..8 on the square torus."""

    N_LIST = tuple(range(2, 9))

    def __init__(self, abr, input_seed, check_seed, workdir):
        self.torus = abr.torus
        self.ctl = abr.torus.MinimizeControl(rng_seed=input_seed)
        self.capture = _Capture(abr.torus)
        self.rng = np.random.default_rng(check_seed)
        self.ops_per_round = len(self.N_LIST) * (self.ctl.restarts + 1)

    def run(self):
        report = self.torus.elkies_experiment(self.N_LIST, ctl=self.ctl)
        return report, self.capture.take()

    def check(self, out):
        report, outcomes = out
        v = Verdict()
        if not v.check([r[0] for r in report.rows] == list(self.N_LIST)
                       and len(outcomes) == len(self.N_LIST),
                       "elkies: rows do not match n = 2..8"):
            v.attempted = v.failed = self.ops_per_round
            return v
        excesses = []
        for (n, e_min, excess), oc in zip(report.rows, outcomes):
            _check_starts(v, oc, self.ctl.grad_tol, f"iters n={n}")
            total, tau = _independent_energy(oc, self.rng.random(2))
            pair2 = 2.0 * (total - n * float(ref.w_lattice(tau)))
            good = v.check(_close(total, oc.report.value, ENERGY_TOL),
                           f"elkies n={n}: energy {oc.report.value!r} != "
                           f"theta_1 series {total!r}")
            good &= v.check(_close(e_min, pair2, 2 * ENERGY_TOL),
                            f"elkies n={n}: e_min {e_min!r} != {pair2!r}")
            excesses.append((pair2 + 0.25 * n * math.log(n)) / n)
            if oc.trace[-1][2] < self.ctl.grad_tol:
                g = ref.config_grad_fd(oc.config.points,
                                       oc.config.torus.basis.matrix)
                gmax = float(np.max(np.hypot(g[:, 0], g[:, 1])))
                good &= v.check(gmax < CRITICAL_TOL,
                                f"elkies n={n}: converged minimum has "
                                f"central-difference gradient {gmax:.3e}")
            if not good:
                v.failed += 1
        v.check(_close(report.rows[0][2], -0.25 * math.log(2.0), ENERGY_TOL),
                f"elkies: n=2 excess {report.rows[0][2]!r} != -log(2)/4")
        width = max(excesses) - min(excesses)
        v.check(width < 5.0 and report.band_ok
                and _close(width, report.band_width, 2 * ENERGY_TOL),
                f"elkies: band width {report.band_width!r} "
                f"(recomputed {width!r}) not below 5")
        return v


class Conjecture1:
    """``conjecture1_probe`` at n = 18 and 32, square and sqrt(3) tori."""

    N_LIST = (18, 32)
    RESTARTS = 2

    def __init__(self, abr, input_seed, check_seed, workdir):
        self.torus = abr.torus
        self.ctl = abr.torus.MinimizeControl(restarts=self.RESTARTS,
                                             rng_seed=input_seed)
        self.capture = _Capture(abr.torus)
        self.rng = np.random.default_rng(check_seed)
        self.ops_per_round = 2 * len(self.N_LIST) * (self.RESTARTS + 1)

    def run(self):
        report = self.torus.conjecture1_probe(self.N_LIST, ctl=self.ctl)
        return report, self.capture.take()

    def check(self, out):
        report, outcomes = out
        v = Verdict()
        kinds = [(r["n"], r["kind"]) for r in report.rows]
        expect = [(n, k) for n in self.N_LIST
                  for k in ("square", "triangular-rect")]
        if not v.check(kinds == expect and len(outcomes) == len(expect),
                       f"conjecture1: rows {kinds} != {expect}"):
            v.attempted = v.failed = self.ops_per_round
            return v
        for row, oc in zip(report.rows, outcomes):
            n, kind = row["n"], row["kind"]
            _check_starts(v, oc, self.ctl.grad_tol, f"iters n={n} {kind}")
            reference = ref.at_density(ref.W_RHO, n)
            total, _ = _independent_energy(oc, self.rng.random(2))
            good = v.check(_close(row["reference"], reference, ENERGY_TOL),
                           f"conjecture1 n={n}: reference {row['reference']!r}"
                           f" != n (W(rho) - log(n)/4) = {reference!r}")
            good &= v.check(row["best"] == oc.report.value
                            and _close(total, row["best"], ENERGY_TOL),
                            f"conjecture1 n={n} {kind}: best {row['best']!r}"
                            f" != theta_1 series {total!r}")
            if kind != "square":
                good &= v.check(row["best"] <= reference + ENERGY_TOL,
                                f"conjecture1 n={n}: best {row['best']!r} above"
                                f" the embedded triangular start {reference!r}")
            if not good:
                v.failed += 1
        return v


class Obstacle:
    """Criterion 11's problem at h = 1/256 and the level chain at h = 1/128."""

    H_LAW = 1.0 / 256.0
    OFFSETS = (0.005, 0.01)
    H_CHAIN = 1.0 / 128.0
    LEVELS = (0.5, 0.8, 0.85, 0.9, 0.95, 1.0)
    DISCRETIZATION = 0.02   # |h0 - I0(r)/I0(1)| <= DISCRETIZATION h^2

    def __init__(self, abr, input_seed, check_seed, workdir):
        self.ob = abr.obstacle
        self.shape = abr.obstacle.UnitDisk()
        self.ops_per_round = 1 + len(self.OFFSETS) + len(self.LEVELS)

    def run(self):
        ob = self.ob
        grid = ob.DomainGrid(self.shape, self.H_LAW)
        h0 = ob.solve_h0(grid)
        near = [ob.solve_obstacle(grid, h0.min_value + off)
                for off in self.OFFSETS]
        law = ob.verify_scale_law(near, h0.min_value)
        chain_grid = ob.DomainGrid(self.shape, self.H_CHAIN)
        chain = [ob.solve_obstacle(chain_grid, m) for m in self.LEVELS]
        return h0, near, law, chain

    @staticmethod
    def _full(field):
        """Field values on the grid's whole rectangle, NaN off the unknowns."""
        g = field.grid
        full = np.full(g.mask.shape, np.nan)
        full[g.ii, g.jj] = field.values
        return full

    def _check_field(self, v, field, m, label):
        """Bounds, residual and symmetry of one solve; True if all hold."""
        g = field.grid
        h, tol = g.h, field.tol
        diag = 4.0 / (h * h) + 1.0
        pad = 20.0 * tol / (h * h)   # value error behind a scaled residual tol
        vals = field.values
        lo = m if m is not None else 0.0
        good = v.check(np.all(vals >= lo) and np.all(vals <= 1.0 + pad),
                       f"{label}: values outside [{lo}, 1]")
        full = self._full(field)
        interior = g.mask == 1
        res, inner = ref.five_point_residual(np.nan_to_num(full), interior, h)
        gap = full - (m if m is not None else -np.inf)
        free = inner & (gap >= tol)
        touch = inner & (gap < tol)
        worst_free = float(np.max(np.abs(res[free]))) if free.any() else 0.0
        worst_touch = float(np.min(res[touch])) if touch.any() else 0.0
        good &= v.check(worst_free <= 2.0 * diag * tol,
                        f"{label}: five-point residual {worst_free:.3e} where"
                        f" H > m (limit {2 * diag * tol:.3e})")
        good &= v.check(worst_touch >= -2.0 * diag * tol,
                        f"{label}: five-point residual {worst_touch:.3e} < 0"
                        " where H = m")
        mirrors = (lambda a: a[::-1, :], lambda a: a[:, ::-1], np.transpose)
        symmetric = all(np.array_equal(interior, f(interior)) for f in mirrors)
        asym = max(float(np.max(np.abs(full - f(full))[interior]))
                   for f in mirrors) if symmetric else math.inf
        good &= v.check(asym <= SYMMETRY_TOL,
                        f"{label}: asymmetry {asym:.3e} under x->-x, y->-y "
                        "or x<->y")
        return good, pad

    def check(self, out):
        h0, near, law, chain = out
        v = Verdict()
        v.attempted = self.ops_per_round
        v.counts["sweeps h=1/256"] = [h0.iters] + [f.iters for f in near]
        v.counts["sweeps h=1/128"] = [f.iters for f in chain]

        g = h0.grid
        r = np.hypot(g.xy[:, 0], g.xy[:, 1])
        err = float(np.max(np.abs(h0.values - ref.disk_field(r))))
        bound = self.DISCRETIZATION * g.h * g.h
        good, pad = self._check_field(v, h0, None, "h0")
        good &= v.check(err <= bound, f"h0: |H - I0(r)/I0(1)| = {err:.3e} "
                        f"above the second-order bound {bound:.3e}")
        good &= v.check(h0.min_value == float(np.min(h0.values)),
                        "h0: min_value is not the field's minimum")
        v.failed += not good

        base = float(np.min(h0.values))
        prev = h0
        for off, f in zip(self.OFFSETS, near):
            good, pad = self._check_field(v, f, f.m, f"offset {off}")
            good &= v.check(_close(f.m, base + off, 1e-15),
                            f"offset {off}: level {f.m!r} != h0 minimum + offset")
            good &= self._monotone(v, prev, f, pad, f"offset {off}")
            v.failed += not good
            prev = f
        if v.check(len(law.rows) == len(near), "scale law: rows missing"):
            ratios = []
            for off, f, row in zip(self.OFFSETS, near, law.rows):
                ratio, axis = self._law(f, base, off)
                ratios.append(ratio)
                v.check(_close(ratio, row["ratio"], 1e-12 * ratio),
                        f"scale law {off}: ratio {row['ratio']!r} != "
                        f"recomputed {ratio!r}")
                v.check(0.5 <= ratio <= 2.0 and axis <= 1.2,
                        f"scale law {off}: ratio {ratio:.4f} outside [0.5, 2]"
                        f" or axis ratio {axis:.3f} above 1.2")
            v.check(abs(ratios[0] - 1.0) <= abs(ratios[-1] - 1.0),
                    f"scale law: ratios {ratios} do not move toward 1 as the"
                    " offset shrinks")

        prev = None
        for m, f in zip(self.LEVELS, chain):
            good, pad = self._check_field(v, f, m, f"m={m}")
            if prev is not None:
                good &= self._monotone(v, prev, f, pad, f"m={m}")
            v.failed += not good
            prev = f
        tol = chain[0].tol
        v.check(not chain[0].active.any() and chain[0].values.min() > 0.5 + 10 * tol,
                "m=0.5: contact set not empty")
        v.check(chain[-1].active.all()
                and np.all(np.abs(chain[-1].values - 1.0) <= 10 * tol),
                "m=1: contact set not the whole domain")
        return v

    @staticmethod
    def _monotone(v, lower, upper, pad, label):
        """The field rises with the level, by no more than the level does."""
        dv = upper.values - lower.values
        rise = upper.m - getattr(lower, "m", -math.inf)
        return v.check(dv.min() >= -pad and dv.max() <= rise + pad,
                       f"{label}: not monotone in m within {pad:.3e}")

    @staticmethod
    def _law(field, base, offset):
        """Scale-law ratio and axis ratio of the contact set {H - m < 10 tol}."""
        g = field.grid
        touch = field.values - field.m < 10.0 * field.tol
        pts = g.xy[touch]
        area = pts.shape[0] * g.h * g.h
        length = math.sqrt(area)
        ratio = length * length * abs(math.log(length)) \
            / (2.0 * math.pi * offset / base)
        d = pts - pts.mean(axis=0)
        cov = d.T @ d / pts.shape[0] + g.h * g.h / 12.0 * np.eye(2)
        e = np.linalg.eigvalsh(cov)
        return ratio, math.sqrt(e[1] / e[0])


class Cli:
    """``python -m abrikosov`` commands, each run twice, one at a time."""

    TAU0 = complex(0.3, 1.2)
    RESOLUTION = 1000
    SCAN_A = (-0.5, 0.5)
    SCAN_B = (0.8, 1.6)
    CSV_ROWS_CHECKED = 40
    FIELD_M = 0.9

    def __init__(self, abr, input_seed, check_seed, workdir):
        import abrikosov.cli

        self.cli = abrikosov.cli
        self.rng = np.random.default_rng(check_seed)
        self.out_dir = Path(workdir) / "bench" / "out" / "cli"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.in_process = False     # traced runs call cli.main in-process
        self.launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        i = ("0", "1")
        rho = ("0.5", repr(ref.RHO.imag))
        t0 = self.TAU0
        images = [t0, t0 + 1.0, -1.0 / t0, -1.0 / (t0 + 1.0)]
        scan_csv = str(self.out_dir / "scan.csv")
        field_csv = str(self.out_dir / "field.csv")
        self.commands = [
            ("W(i) eta", ["lattice", "--tau", *i], None),
            ("W(i) fourier", ["lattice", "--tau", *i, "--route", "fourier"], None),
            ("W(i)-W(rho)", ["lattice", "--tau", *i, "--route", "zetadiff-vs"],
             None),
            ("W(rho) eta", ["lattice", "--tau", *rho], None),
            ("W(rho) fourier", ["lattice", "--tau", *rho, "--route", "fourier"],
             None),
            ("W(rho)-W(i)", ["lattice", "--tau", *rho, "--route", "zetadiff-vs",
                             "--ref-tau", *i], None),
        ] + [
            (f"image {k}", ["lattice", "--tau", repr(t.real), repr(t.imag)], None)
            for k, t in enumerate(images)
        ] + [
            ("scan", ["moduli-scan", "--resolution", str(self.RESOLUTION),
                      "--a-min", str(self.SCAN_A[0]), "--a-max", str(self.SCAN_A[1]),
                      "--b-min", str(self.SCAN_B[0]), "--b-max", str(self.SCAN_B[1]),
                      "--csv", scan_csv], scan_csv),
            ("fekete 2", ["fekete", "--n", "2"], None),
            ("propA1", ["obstacle", "--disk", "--h", "0.03125",
                        "--suite", "propA1"], None),
            ("field", ["obstacle", "--disk", "--h", "0.015625",
                       "--m", str(self.FIELD_M), "--field-csv", field_csv],
             field_csv),
        ]
        self.images = images
        self.ops_per_round = 2 * len(self.commands)

    def _invoke(self, argv):
        if self.in_process:
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = self.cli.main(argv)
            return rc, buf.getvalue().encode()
        self.launcher.stdin.write(
            json.dumps([sys.executable, "-m", "abrikosov", *argv]) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        return reply["rc"], reply["stdout"].encode("latin-1")

    def children_peak_rss_mb(self):
        """Stop the launcher; the largest child's peak resident memory."""
        out, _ = self.launcher.communicate("\n", timeout=60)
        return json.loads(out.splitlines()[-1])["peak_rss_mb"]

    def run(self):
        results = []
        for label, argv, csv_path in self.commands:
            runs = []
            for _ in range(2):
                rc, out = self._invoke(argv)
                data = Path(csv_path).read_bytes() \
                    if csv_path and os.path.exists(csv_path) else None
                if csv_path and data is not None:
                    os.remove(csv_path)
                runs.append((rc, out, data))
            results.append((label, runs))
        return results

    def check(self, results):
        v = Verdict()
        docs = {}
        v.layer["cli.stdout_bytes"] = 0.0
        v.layer["cli.csv_bytes"] = 0.0
        for label, runs in results:
            v.attempted += len(runs)
            bad = [rc for rc, _, _ in runs if rc != 0]
            v.failed += len(bad)
            v.layer["cli.stdout_bytes"] += sum(len(o) for _, o, _ in runs)
            v.layer["cli.csv_bytes"] += sum(len(d or b"") for _, _, d in runs)
            if not v.check(not bad, f"cli {label}: exit codes {bad}"):
                continue
            (_, out1, csv1), (_, out2, csv2) = runs
            same = v.check(out1 == out2 and csv1 == csv2,
                           f"cli {label}: output differs on rerun")
            v.counts[label] = hashlib.sha256(out1 + (csv1 or b"")).hexdigest()[:16]
            try:
                docs[label] = (json.loads(out1), csv1)
            except ValueError:
                same = v.check(False, f"cli {label}: stdout is not JSON")
            if not same:
                v.failed += 2
        if len(docs) == len(self.commands):
            self._check_values(v, docs)
        return v

    def _check_values(self, v, docs):
        def value(label):
            return docs[label][0]["report"]["value"]

        for label, want, tol in (("W(i) eta", ref.W_I, W_TOL),
                                 ("W(i) fourier", ref.W_I, W_TOL),
                                 ("W(rho) eta", ref.W_RHO, W_TOL),
                                 ("W(rho) fourier", ref.W_RHO, W_TOL),
                                 ("W(i)-W(rho)", ref.W_I - ref.W_RHO, GAP_TOL),
                                 ("W(rho)-W(i)", ref.W_RHO - ref.W_I, GAP_TOL)):
            v.check(_close(value(label), want, tol),
                    f"cli {label}: {value(label)!r} != closed form {want!r}")
        w0 = float(ref.w_lattice(self.TAU0))
        for k in range(len(self.images)):
            got = value(f"image {k}")
            v.check(_close(got, value("image 0"), W_TOL)
                    and _close(got, w0, W_TOL),
                    f"cli image {k}: {got!r} != W(tau0) = {w0!r}")

        scan, scan_csv = docs["scan"]
        cell_a = (self.SCAN_A[1] - self.SCAN_A[0]) / (self.RESOLUTION - 1)
        cell_b = (self.SCAN_B[1] - self.SCAN_B[0]) / (self.RESOLUTION - 1)
        am = scan["scan"]["argmin_grid"]
        v.check(abs(abs(am["a"]) - 0.5) <= cell_a
                and abs(am["b"] - ref.RHO.imag) <= cell_b,
                f"cli scan: grid argmin {am} not within a cell of rho")
        v.check(_close(scan["scan"]["min"], ref.W_RHO, W_TOL),
                f"cli scan: min {scan['scan']['min']!r} != W(rho)")
        rows = scan_csv.splitlines()
        v.check(rows[0] == b"a,b,W"
                and len(rows) - 1 == scan["scan"]["n_points"],
                f"cli scan: {len(rows) - 1} CSV rows, "
                f"n_points {scan['scan']['n_points']}")
        picks = self.rng.integers(1, len(rows), self.CSV_ROWS_CHECKED)
        a, b, w = np.array([rows[k].split(b",") for k in picks], float).T
        want = ref.w_lattice(a + 1j * b)
        unit = 10.0 ** (np.floor(np.log10(np.abs(want))) - 8)
        worst = float(np.max(np.abs(w - want) / unit))
        v.check(worst <= 1.0, f"cli scan: CSV W off by {worst:.2f} units in"
                " the 9th significant digit")

        energy = docs["fekete 2"][0]["energy"]["value"]
        want = ref.at_density(ref.W_I, 2.0)
        v.check(_close(energy, want, ENERGY_TOL),
                f"cli fekete 2: {energy!r} != 2 (W(i) - log(2)/4) = {want!r}")
        v.check(docs["propA1"][0]["suite"]["all_pass"] is True,
                "cli propA1: all_pass is not true")

        field, field_csv = docs["field"]
        h = field["grid"]["h"]
        pad = 20.0 * 1e-10 / (h * h)     # default tol 1e-10
        table = np.loadtxt(io.BytesIO(field_csv), delimiter=",", skiprows=1)
        v.check(table.shape[0] >= field["grid"]["interior_cells"]
                and table[:, 2].min() >= self.FIELD_M
                and table[:, 2].max() <= 1.0 + pad,
                "cli field: CSV values outside [m, 1]")


WORKLOADS = {"elkies": Elkies, "conjecture1": Conjecture1,
             "obstacle": Obstacle, "cli": Cli}
