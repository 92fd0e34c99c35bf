"""Workloads of the circkrig benchmark: generators, operations, output checks.

Every workload runs in one process with one closed-loop client: an operation
("op") starts only when the previous one has returned.  Inputs come from the
workload seed alone, and the program sees only the generated config and CSV
files, or for library workloads only the generated arguments.

Sizes follow a fixed ladder that each cycle of jobs walks once, in an order
the seed shuffles.  The seed draws the angles, data, spectra, orders,
kernels and nuggets.  Runs at different seeds therefore time the same mix of
sizes on different inputs, which keeps medians comparable between seeds.
Every ladder has an odd number of rungs, so the median op sits inside the
middle rung's group rather than on the gap between two rungs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

import circkrig
import circkrig.cli
import reference

TWO_PI = 2.0 * math.pi
# Agreement tolerance of the verification suites, relative to the data
# scale (predictions) or the variance scale max(1, phi0) (variances).
REL_TOL = 1.0e-8
# Zero-nugget spline-m2 systems reach condition numbers near 1e10, where no
# float64 evaluation of the kernel pins predictions to 1e-8: two
# backward-stable solves may differ by about eps * cond(A) relative to the
# data scale.  Predictions are held to the larger of REL_TOL and this many
# times eps * cond(A); program-to-reference gaps measured on this workload's
# sizes stayed below 0.4 * eps * cond(A).
COND_SLACK = 4.0
# Pooled Monte Carlo checks allow this many standard errors, as the suites do.
TOL_FACTOR = 4.0


@dataclass
class Job:
    desc: str
    params: dict = field(default_factory=dict)


def _rung(lo, hi, k, count):
    """Size on rung ``k`` of ``count`` spaced geometrically from lo to hi.

    Op cost grows like n**2 or n**3, so geometric rungs keep neighbouring
    groups of ops apart in latency.
    """
    return int(round(lo * (hi / lo) ** (k / (count - 1))))


def _run_cli(argv):
    """Call ``circkrig.cli.main`` in-process, capturing what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = circkrig.cli.main(argv)
    return status, out.getvalue(), err.getvalue()


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _bytes(*paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _remove(*paths):
    """Delete outputs of the previous op so a failing op cannot reuse them."""
    for path in paths:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


class Workload:
    """A closed loop over endless cycles of jobs."""

    name = ""
    why = ""
    sizes: dict = {}

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng([seed, *map(ord, self.name)])
        self.workdir = workdir

    def path(self, name):
        return os.path.join(self.workdir, name)

    def jobs(self):
        """Yield (job, last job of its cycle) forever."""
        while True:
            cycle = self.cycle()
            for pos, i in enumerate(self.rng.permutation(len(cycle))):
                yield cycle[i], pos == len(cycle) - 1

    def cycle(self):
        raise NotImplementedError

    def prepare(self, job):
        """Write the op's input files; not timed."""

    def run(self, job):
        """The op itself; timed."""
        raise NotImplementedError

    def check(self, job, output):
        """Return None when the output is right, else the cause."""
        raise NotImplementedError

    def io_counts(self, job):
        """Rows and bytes the CLI read and wrote in the last op."""
        return {}

    def finish(self):
        """Run-level check after the last op; None or the cause."""
        return None


class _FitWorkload(Workload):
    """``circkrig fit`` through ``circkrig.cli.main``, checked against a
    dense reference solve at a few grid points."""

    grid = 0
    n_reference_points = 4

    def _job(self, desc, n, kappa, model_cfg, cov, phi0, nugget):
        rng = self.rng
        h = TWO_PI / n
        # Equispaced angles with per-point jitter and a random rotation.
        x = np.sort(((np.arange(n) + rng.uniform(-0.3, 0.3, n)) * h
                     + rng.uniform(0.0, TWO_PI)) % TWO_PI)
        y = (np.cos(x + rng.uniform(0.0, TWO_PI)) + 0.5 * np.sin(2.0 * x)
             + 0.3 * rng.standard_normal(n))
        idx = np.sort(rng.choice(self.grid, self.n_reference_points,
                                 replace=False))
        return Job(f"{desc} n={n} kappa={kappa} nugget={nugget}",
                   dict(x=x, y=y, kappa=kappa, nugget=nugget, cov=cov,
                        phi0=phi0, idx=idx,
                        config={"model": model_cfg, "nugget": nugget,
                                "io": {"data": self.path("data.csv"),
                                       "output": self.path("out.csv"),
                                       "grid_size": self.grid}}))

    def prepare(self, job):
        p = job.params
        out = self.path("out.csv")
        _remove(out, out + ".config.json")
        with open(self.path("data.csv"), "w", encoding="utf-8") as fh:
            fh.write("angle,value\n")
            fh.writelines(f"{a:.17g},{v:.17g}\n"
                          for a, v in zip(p["x"], p["y"]))
        _write_json(self.path("fit.json"), p["config"])

    def run(self, job):
        return _run_cli(["fit", "--config", self.path("fit.json")])

    def check(self, job, output):
        status, _, err = output
        if status != 0:
            return f"exit status {status}: {err.strip()}"
        with open(self.path("out.csv"), encoding="utf-8") as fh:
            header = fh.readline().strip()
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
        if header != "angle,prediction,kriging_variance":
            return f"unexpected header {header!r}"
        if table.shape != (self.grid, 3):
            return f"output shape {table.shape}, want ({self.grid}, 3)"
        if not np.all(np.isfinite(table)):
            return "non-finite output"
        grid = TWO_PI * np.arange(self.grid) / self.grid
        if np.max(np.abs(table[:, 0] - grid)) > 1e-12:
            return "output angles are not the prediction grid"
        if np.any(table[:, 2] < 0.0):
            return "negative kriging variance"
        p = job.params
        idx = p["idx"]
        want, want_var, cond = reference.predict(
            p["cov"], p["phi0"], p["kappa"], p["nugget"], p["x"], p["y"],
            table[idx, 0])
        err = np.max(np.abs(table[idx, 1] - want))
        scale = max(1.0, float(np.max(np.abs(p["y"]))))
        tol = max(REL_TOL, COND_SLACK * np.finfo(float).eps * cond) * scale
        if err > tol:
            return (f"prediction off the reference by {err:.3e} "
                    f"(tolerance {tol:.3e}, condition estimate {cond:.2e})")
        err = np.max(np.abs(table[idx, 2] - np.maximum(want_var, 0.0)))
        if err > REL_TOL * max(1.0, p["phi0"]):
            return f"variance off the reference by {err:.3e}"
        return None

    def io_counts(self, job):
        out = self.path("out.csv")
        return {"cli.rows_read": job.params["x"].size,
                "cli.rows_written": self.grid if os.path.exists(out) else 0,
                "cli.bytes_written": _bytes(out, out + ".config.json")}


class FitSeries(_FitWorkload):
    name = "fit-series"
    why = ("Series covariance: _series_eval (n^2*F cosines for the Gram, "
           "256*n*F for the cross-covariances) is most of each op, and its "
           "O(n^2*F) temporary sets peak_rss_mb; the bordered factor and "
           "solve are the rest.  Spectrum work (ROADMAP items 2-3) shows "
           "here.")
    grid = 256
    sizes = {"grid": 256, "nugget": [0.0, 0.1],
             "list_n": "8 geometric rungs 50..250", "list_kappa": [1, 3],
             "list_F": "ceil((n-(2*kappa-1))/2) + 2..5",
             "power_n_n_max": [[83, 250], [150, 500], [217, 1000]],
             "power_kappa": [1, 3], "power_p": [2, 3, 4]}

    def cycle(self):
        # n = 1000 with F = 508 would allocate 3.78 GiB in the seed's series
        # path and kill the machine, so n stops at 250.
        rng = self.rng
        jobs = []
        for k in range(8):
            n = _rung(50, 250, k, 8)
            kappa = int(rng.integers(1, 4))
            # As in the suites' _rich_spectrum: just enough frequencies for
            # the zero-nugget system to be regular, plus a margin.
            n_freq = math.ceil((n - (2 * kappa - 1)) / 2) \
                + int(rng.integers(2, 6))
            gammas = rng.uniform(0.4, 2.0, n_freq)
            cov, phi0 = reference.series_covariance(
                np.arange(kappa, kappa + n_freq), gammas)
            jobs.append(self._job(
                f"list F={n_freq}", n, kappa,
                {"spectrum": {"kappa": kappa, "type": "list",
                              "values": gammas.tolist()}},
                cov, phi0, float(rng.choice([0.0, 0.1]))))
        # The largest cutoff rides on the largest n, so every cycle holds
        # the op that sets the peak memory.
        for n, n_max in ((83, 250), (150, 500), (217, 1000)):
            kappa = int(rng.integers(1, 4))
            p = float(rng.choice([2, 3, 4]))
            a = float(rng.uniform(0.5, 2.0))
            freqs = np.arange(kappa, n_max + 1)
            cov, phi0 = reference.series_covariance(
                freqs, a * freqs.astype(float) ** (-p))
            jobs.append(self._job(
                f"power p={p:g} n_max={n_max}", n, kappa,
                {"spectrum": {"kappa": kappa, "type": "power", "a": a,
                              "p": p, "n_max": n_max}},
                cov, phi0, float(rng.choice([0.0, 0.1]))))
        return jobs


class FitSpline(_FitWorkload):
    name = "fit-spline"
    why = ("Closed-form spline covariance: the Gram is a cheap polynomial, so "
           "the bordered factorization, the 512-column solve with refinement "
           "and the variance quadratic form dominate.  Spectrum work should "
           "not move it; solver and variance work (ROADMAP item 5) should.")
    grid = 512
    sizes = {"n": "9 geometric rungs 200..800", "grid": 512,
             "nugget": [0.0, 0.01], "kernels": ["spline-m1", "spline-m2"]}

    def cycle(self):
        rng = self.rng
        jobs = []
        for k in range(9):
            n = _rung(200, 800, k, 9)
            m = int(rng.integers(1, 3))
            cov, phi0 = reference.spline_covariance(m)
            jobs.append(self._job(
                f"spline-m{m}", n, 1, {"kernel": f"spline-m{m}"}, cov, phi0,
                float(rng.choice([0.0, 0.01]))))
        return jobs


class Simulate(Workload):
    name = "simulate"
    why = ("Library simulation batches: path synthesis and per-path "
           "Realization construction dominate, covariance and kriging never "
           "run.  Few-path large-grid bridges expose the O(G^3) Cholesky, "
           "many-path small grids the per-path cost (ROADMAP item 4).  The "
           "CLI is left out because its CSV writer would hide synthesis.")
    # (grid, paths) rungs: paths fall as the grid grows.
    IRF_RUNGS = ((2048, 100), (1024, 250), (512, 500), (256, 1000))
    BRIDGE_RUNGS = ((2048, 50), (1024, 100), (768, 200), (512, 500),
                    (256, 1000))
    sizes = {"irf_grid_paths": IRF_RUNGS, "bridge_grid_paths": BRIDGE_RUNGS,
             "irf_kappa": [1, 3],
             "irf_spectra": "power (p in {2,3,4}) and list, alternating",
             "truncation": "(grid - 1) // 2"}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._cycles = 0
        # Pooled squared values over their model variance; the mean is 1.
        self._sum = self._sum_sq = 0.0
        self._count = 0

    def cycle(self):
        rng = self.rng
        jobs = []
        self._cycles += 1
        for k, (grid, paths) in enumerate(self.IRF_RUNGS):
            kappa = int(rng.integers(1, 4))
            limit = (grid - 1) // 2
            # Each rung alternates between the spectrum types cycle by cycle.
            if (k + self._cycles) % 2 == 0:
                p = float(rng.choice([2, 3, 4]))
                a = float(rng.uniform(0.5, 2.0))
                spec = dict(kind="power", kappa=kappa, a=a, p=p, n_max=limit)
                gammas = a * np.arange(kappa, limit + 1, dtype=float) ** (-p)
            else:
                gammas = rng.uniform(0.1, 2.0, limit - kappa + 1)
                spec = dict(kind="list", kappa=kappa, values=gammas)
            jobs.append(Job(
                f"irf {spec['kind']} kappa={kappa} {paths}x{grid}",
                dict(kind="irf", grid=grid, paths=paths, spec=spec,
                     variance=float(gammas.sum()),
                     sim_seed=int(rng.integers(0, 2**31)),
                     column=int(rng.integers(0, grid)))))
        for grid, paths in self.BRIDGE_RUNGS:
            jobs.append(Job(
                f"bridge {paths}x{grid}",
                dict(kind="bridge", grid=grid, paths=paths,
                     sim_seed=int(rng.integers(0, 2**31)),
                     column=int(rng.integers(1, grid)))))
        return jobs

    def prepare(self, job):
        spec = job.params.get("spec")
        if spec is None:
            return
        if spec["kind"] == "power":
            job.params["model"] = circkrig.SpectralModel.power_law(
                spec["kappa"], spec["a"], spec["p"], n_max=spec["n_max"])
        else:
            job.params["model"] = circkrig.SpectralModel.from_list(
                spec["kappa"], spec["values"])

    def run(self, job):
        p = job.params
        if p["kind"] == "irf":
            return circkrig.simulate_irf(p["model"], p["paths"], p["grid"],
                                         p["sim_seed"])
        return circkrig.simulate_brownian_bridge(p["grid"], p["paths"],
                                                 p["sim_seed"])

    def check(self, job, output):
        p = job.params
        # Reads a list of realizations or one (paths, grid) array alike.
        paths = np.stack([getattr(r, "values", r) for r in output])
        if paths.shape != (p["paths"], p["grid"]):
            return (f"batch shape {paths.shape}, "
                    f"want ({p['paths']}, {p['grid']})")
        if not np.all(np.isfinite(paths)):
            return "non-finite path values"
        t = TWO_PI * p["column"] / p["grid"]
        if p["kind"] == "bridge":
            if np.any(paths[:, 0] != 0.0):
                return "bridge path is not pinned to 0 at angle 0"
            variance = t * (TWO_PI - t)
        else:
            # Every frequency is >= kappa >= 1 and resolved by the grid, so
            # the grid mean of a path without drift vanishes.
            drift = np.max(np.abs(paths.mean(axis=1)))
            if drift > 1e-9 * max(1.0, float(np.max(np.abs(paths)))):
                return f"grid mean {drift:.3e} of a path with no drift"
            variance = p["variance"]
        u = paths[:, p["column"]] ** 2 / variance
        self._sum += float(u.sum())
        self._sum_sq += float(u @ u)
        self._count += u.size
        return None

    def finish(self):
        n = self._count
        if n < 2:
            return None
        mean = self._sum / n
        se = math.sqrt(max(self._sum_sq / n - mean * mean, 0.0) / (n - 1))
        z = abs(mean - 1.0) / se if se > 0.0 else math.inf
        if z > TOL_FACTOR:
            return (f"pooled variance ratio {mean:.4f} is {z:.1f} standard "
                    f"errors from 1 over {n} paths")
        return None


class Verify(Workload):
    """Not listed in BENCHMARK.json while ``circkrig verify`` fails its
    smoothing-monotone check at some seeds; such ops are reported failed
    with their cause."""

    name = "verify"
    why = ("The CI gate users wait on: circkrig verify with the default "
           "suites.  Hundreds of small fits (n <= 30) where per-call overhead "
           "dominates, the extended-precision spline oracle and the bridge "
           "Monte Carlo; catches changes tuned for large inputs that slow "
           "small calls.")
    sizes = {"suites": "default (all 8)", "verify_seed": "1000*seed + op"}
    # Checks the default suites report at the seed commit.
    MIN_CHECKS = 33
    _LINE = re.compile(r"^(PASS|FAIL)  (\S+): ")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._next = 1000 * seed

    def cycle(self):
        self._next += 1
        return [Job(f"verify seed={self._next}",
                    dict(verify_seed=self._next))]

    def prepare(self, job):
        report = self.path("report.json")
        _remove(report, report + ".config.json")
        _write_json(self.path("verify.json"),
                    {"verify": {"seed": job.params["verify_seed"]},
                     "io": {"output": self.path("report.json")}})

    def run(self, job):
        return _run_cli(["verify", "--config", self.path("verify.json")])

    def check(self, job, output):
        status, out, err = output
        with open(self.path("report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        failed = [c["check_name"] for c in report["checks"] if not c["pass"]]
        if status != 0 or failed:
            return (f"exit status {status}, failed checks {failed}"
                    f"{': ' + err.strip() if err.strip() else ''}")
        printed = [m.group(2) for m in map(self._LINE.match, out.splitlines())
                   if m]
        listed = [c["check_name"] for c in report["checks"]]
        if listed != printed or len(listed) < self.MIN_CHECKS:
            return (f"report lists {len(listed)} checks, the run printed "
                    f"{len(printed)}, expected at least {self.MIN_CHECKS}")
        return None

    def io_counts(self, job):
        out = self.path("report.json")
        try:
            with open(out, encoding="utf-8") as fh:
                checks = len(json.load(fh)["checks"])
        except (OSError, ValueError, KeyError, TypeError):
            checks = 0
        return {"cli.rows_read": 0, "cli.rows_written": checks,
                "cli.bytes_written": _bytes(out, out + ".config.json")}


WORKLOADS = {w.name: w for w in (FitSeries, FitSpline, Simulate, Verify)}
