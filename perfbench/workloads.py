"""The benchmark's fixed workloads, driven through the package's public entry points.

Each workload is set up from the benchmark seed (config files, grids). Its
fixed work is a list of parts, one per checked job (a sweep row, a quartic
run, a verify suite on one grid), which the driver times one by one. A part
returns its checked output as plain JSON data: the CLI exit code and report
without its timing and build fields, or the quartic probe's result.
``check`` turns the outputs of all parts into jobs judged at the package's
pinned tolerances, and ``margins`` says how much room the results leave
before those tolerances.

All row, level and sample seeds derive from the one benchmark seed, so the
program only ever sees generated inputs.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import random

from kirchhoff_spectral import cli, suites
from kirchhoff_spectral.grid import SpectralGrid

from stats import Job

# criterion 8 (tests/test_acceptance.py): C* stable within +-50% around the
# midpoint of its range, i.e. max/min <= 3
QUARTIC_SPREAD_MAX = 3.0
# sweep rows pass when the monitored norm stays within 2x of its start
NORM_RATIO_MAX = 2.0
# a failed margin reads as the worst value, never as room to spare
FAILED_MARGIN = 1e9
# report fields that change from run to run and are not checked output
VOLATILE_KEYS = ("runtime_s", "build_id")


def derived_seed(workload: str, seed: int) -> int:
    """The program seed of a workload, derived from the benchmark seed.

    String seeding hashes with SHA-512, so the value is the same on every
    Python version and platform.
    """
    return random.Random(f"{workload}/{seed}").randrange(1, 2**31)


def canonical(outputs) -> str:
    """Exact text form of checked outputs; floats keep every digit."""
    return json.dumps(outputs, sort_keys=True)


def _run_cli(argv: list[str], report_path: str) -> dict:
    # a report left by an earlier call must never stand in for this one's
    with contextlib.suppress(FileNotFoundError):
        os.remove(report_path)
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(argv)
    except Exception as exc:  # a crash is one failed job per expected unit, not an abort
        return {"exit": None, "error": f"{type(exc).__name__}: {exc}", "report": None}
    try:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return {"exit": code, "error": f"report unreadable: {exc}", "report": None}
    for key in VOLATILE_KEYS:
        report.pop(key, None)
    said = buf.getvalue().strip().splitlines()
    return {"exit": code, "error": said[-1] if code != 0 and said else None, "report": report}


def _cli_problem(out: dict) -> str:
    """Why a CLI call cannot be trusted, or '' when it exited 0 with a report."""
    if out["exit"] != 0:
        return f"exit {out['exit']}" + (f": {out['error']}" if out["error"] else "")
    if out["report"] is None:
        return out["error"] or "no report"
    return ""


class Workload:
    name = ""
    why = ""
    # spans a traced run must record at least once
    expected_layers: tuple[str, ...] = ()

    def __init__(self, seed: int, out_dir: str):
        self.program_seed = derived_seed(self.name, seed)
        self.out_dir = os.path.join(out_dir, self.name)
        os.makedirs(self.out_dir, exist_ok=True)
        self.parts: list = []  # zero-argument callables, one per checked job

    def run(self) -> list:
        return [part() for part in self.parts]

    def check(self, outputs: list) -> list[Job]:
        raise NotImplementedError

    def margins(self, outputs: list) -> dict[str, float]:
        raise NotImplementedError


def _write_config(path: str, config: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)


class Lifespan(Workload):
    name = "lifespan"
    why = ("sweep on the original system: integrator overhead and the original RHS, "
           "plus inverse transforms, with no Jacobian solves")
    expected_layers = (
        "cli.main", "integrate", "dynamics.rhs_original", "transforms.cov",
        "transforms.cubic_inv", "transforms.mix", "grid.build",
    )
    EPS = (0.2, 0.185, 0.17)
    C1 = 0.02  # t_end = C1 / eps^4 = 12.5, 17.1, 23.9
    # about one sample per time unit, the density of a full-length sweep
    # (200 samples over t_end 62-482)
    SAMPLES = 20

    def __init__(self, seed: int, out_dir: str):
        super().__init__(seed, out_dir)
        # one sweep per row, so that each row is timed by itself; the row
        # seed is the one a single three-row sweep would give it
        for i, eps in enumerate(self.EPS):
            row_dir = os.path.join(self.out_dir, f"row{i}")
            os.makedirs(row_dir, exist_ok=True)
            config_path = os.path.join(row_dir, "sweep.json")
            _write_config(config_path, {
                "d": 1,
                "n_modes": 8,
                "eps_list": [eps],
                "seeds_per_eps": 1,
                "seed": self.program_seed + 37 * i,
                "c1_op": self.C1,
                "rel_tol": 1e-8,
                "n_samples": self.SAMPLES,
                "representation": "original",
                "measure_constants": False,
                "workers": 1,
            })
            argv = ["sweep", "--config", config_path, "--out", row_dir]
            report = os.path.join(row_dir, "sweep_report.json")
            self.parts.append(functools.partial(_run_cli, argv, report))

    @staticmethod
    def _ratios(row: dict) -> list[float]:
        return [v for k, v in row.items() if k.startswith("ratio_s")]

    @staticmethod
    def _row(out: dict) -> dict | None:
        rows = (out["report"] or {}).get("rows", [])
        return rows[0] if len(rows) == 1 else None

    def check(self, outputs: list) -> list[Job]:
        jobs = []
        for eps, out in zip(self.EPS, outputs):
            label = f"row eps={eps:g}"
            row = self._row(out)
            problems = [_cli_problem(out)] if _cli_problem(out) else []
            if row is None or row.get("eps") != eps:
                problems.append("row missing")
            else:
                passes = [v for k, v in row.items() if k.startswith("pass_2x_s")]
                if row.get("status") != "reached-target":
                    problems.append(f"status {row.get('status')}")
                if not row.get("n_steps", 0) > 0:
                    problems.append("no steps")
                if not passes or not all(passes):
                    problems.append(f"norm ratios {self._ratios(row)} exceed {NORM_RATIO_MAX}")
            jobs.append(Job(label, not problems, "; ".join(problems)))
        return jobs

    def margins(self, outputs: list) -> dict[str, float]:
        rows = [self._row(out) for out in outputs]
        ratios = [r for row in rows if row for r in self._ratios(row)]
        ok = len(ratios) > 0 and all(row and not _cli_problem(out) for row, out in zip(rows, outputs))
        return {"check.max_norm_ratio": max(ratios) if ok else FAILED_MARGIN}


class Quartic(Workload):
    name = "quartic"
    why = ("criterion-8 quartic probe on normal-form runs: time goes to the (I + jac) "
           "solve on small arrays, the integrator's own share is small")
    expected_layers = (
        "suites.quartic", "integrate", "integrate.monitor", "dynamics.rhs_normal_form",
        "normal_form.rhs", "coupling.solve", "coupling.jac", "grid.build",
    )
    EPS = (0.05, 0.1, 0.2)
    T_END = 0.25

    def __init__(self, seed: int, out_dir: str):
        super().__init__(seed, out_dir)
        self.grid = SpectralGrid(1, 8)
        self.parts = [functools.partial(self._probe, eps) for eps in self.EPS]

    def _probe(self, eps: float) -> dict:
        # one seed for every amplitude, as criterion 8 does: the same
        # direction at growing size
        try:
            return suites.measure_quartic_constant(
                self.grid, eps, self.program_seed, t_end=self.T_END
            )
        except Exception as exc:
            return {"eps": eps, "error": f"{type(exc).__name__}: {exc}"}

    @staticmethod
    def _cstars(outputs: list) -> list[float]:
        return [r.get("c_star_m0", math.nan) for r in outputs]

    def check(self, outputs: list) -> list[Job]:
        cs = self._cstars(outputs)
        finite = [c for c in cs if math.isfinite(c) and c > 0]
        spread = max(finite) / min(finite) if finite else math.inf
        jobs = []
        for run, c in zip(outputs, cs):
            problems = []
            if run.get("exit_reason") != "completed":
                problems.append(run.get("error") or f"exit {run.get('exit_reason')}")
            if not (math.isfinite(c) and c > 0):
                problems.append(f"C* = {c}")
            if spread > QUARTIC_SPREAD_MAX:
                problems.append(f"C* max/min {spread:.3f} > {QUARTIC_SPREAD_MAX}")
            jobs.append(Job(f"quartic eps={run['eps']:g}", not problems, "; ".join(problems)))
        return jobs

    def margins(self, outputs: list) -> dict[str, float]:
        cs = self._cstars(outputs)
        ok = all(math.isfinite(c) and c > 0 for c in cs)
        return {"check.cstar_spread": max(cs) / min(cs) if ok else FAILED_MARGIN}


class Oracle(Workload):
    name = "oracle"
    why = ("verify's neumann-vs-dense suite on the four default grids: the dense oracle's "
           "O(n^3) assembly and solve, and the Neumann solve on up to 196 modes")
    SUITE = "neumann-vs-dense"
    expected_layers = (
        "cli.main", f"suites.{SUITE}", "coupling.solve", "coupling.jac", "coupling.dense",
        "grid.build",
    )
    GRIDS = ((1, 4), (1, 8), (2, 4), (2, 8))  # verify's default grids
    SAMPLES = 10  # dense solves per grid

    def __init__(self, seed: int, out_dir: str):
        super().__init__(seed, out_dir)
        # one verify per grid, so that each grid's suite is timed by itself
        for d, n in self.GRIDS:
            grid_dir = os.path.join(self.out_dir, f"d{d}n{n}")
            os.makedirs(grid_dir, exist_ok=True)
            config_path = os.path.join(grid_dir, "verify.json")
            _write_config(config_path, {
                "grids": [[d, n]],
                "samples": self.SAMPLES,
                "seed": self.program_seed,
                "suites": [self.SUITE],
                "workers": 1,
            })
            argv = ["verify", "--config", config_path, "--out", grid_dir]
            report = os.path.join(grid_dir, "verify_report.json")
            self.parts.append(functools.partial(_run_cli, argv, report))

    @staticmethod
    def _suite(out: dict) -> dict | None:
        found = (out["report"] or {}).get("suites", [])
        return found[0] if len(found) == 1 else None

    def check(self, outputs: list) -> list[Job]:
        jobs = []
        for (d, n), out in zip(self.GRIDS, outputs):
            problems = [_cli_problem(out)] if _cli_problem(out) else []
            suite = self._suite(out)
            if suite is None or suite.get("suite") != self.SUITE:
                problems.append("suite result missing")
            elif not (suite.get("pass") and suite["max_defect"] <= suite["bound"]):
                problems.append(f"max defect {suite['max_defect']:.3e} > bound {suite['bound']:.3e}")
            elif suite.get("samples") != self.SAMPLES:
                problems.append(f"{suite.get('samples')} samples, expected {self.SAMPLES}")
            jobs.append(Job(f"{self.SUITE} d={d} N={n}", not problems, "; ".join(problems)))
        return jobs

    def margins(self, outputs: list) -> dict[str, float]:
        suites_ = [self._suite(out) for out in outputs]
        ok = all(s and not _cli_problem(out) for s, out in zip(suites_, outputs))
        worst = max(s["max_defect"] / s["bound"] for s in suites_) if ok else FAILED_MARGIN
        return {"check.worst_defect_over_bound": worst}


WORKLOADS = {w.name: w for w in (Lifespan, Quartic, Oracle)}
