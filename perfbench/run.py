"""Benchmark of the kirchhoff-spectral workbench: time to verdict on fixed workloads.

    python3 perfbench/run.py --workload lifespan --seed 1 --seconds 40 --trace 0

Run from the root of a checkout holding ``src/kirchhoff_spectral``; nothing
is installed. The process pins OpenBLAS, OpenMP and MKL to one thread before
numpy is imported, builds the workload from ``--seed`` and repeats its fixed
work while another repetition fits in ``--seconds`` (at least three), checking
every repetition's outputs at the package's pinned tolerances.

``--trace 0`` reports the end-to-end metrics: wall and CPU time of one
repetition, as the sum over the workload's parts (one per checked job) of
each part's fastest time; the median set-up time of fresh processes (spread
over the run); peak RSS; and the share of checked jobs that passed.
The work is deterministic and interference from other tenants of the host
only adds time, so a part's fastest time is the steadiest estimate of its
cost, and short parts are likelier than whole repetitions to land in a quiet
stretch. The sample count, minimum and median of whole repetitions are
printed and recorded beside it.
``--trace 1`` alternates untraced repetitions with traced ones (set-up
included) and reports the per-layer metrics; traced outputs must equal
untraced ones exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A run record with the
environment and every sample goes to ``.perfbench_out/``. Exit codes: 0 all
checks pass, 1 some check failed, 2 the package cannot be loaded, 3 the
tracer lost sight of a layer.
"""

from __future__ import annotations

import os

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402  (the pins must precede any numpy import)
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import CHECK, PER_LAYER, WORK, TraceError, Tracer, layer_metrics, span_calls  # noqa: E402
from stats import Job, median, summarize, tally  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_REPS = 3
MIN_TRACED_REPS = 2
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60

EXIT_PASS, EXIT_CHECK, EXIT_LOAD, EXIT_TRACE = 0, 1, 2, 3

END_TO_END = (
    # name, unit, better
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("pass_ratio", "1", "higher"),
)


def load_package() -> None:
    """Import the package from this checkout's ``src``, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import kirchhoff_spectral

    where = Path(kirchhoff_spectral.__file__).resolve()
    if SRC not in where.parents:
        raise ImportError(f"kirchhoff_spectral was imported from {where}, not from {SRC}")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    rev, dirty = None, None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            rev = lines[1]
            status = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=10,
            )
            dirty = bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_rev": rev,
        "git_dirty": dirty,
    }


def reference_kernel_ms(reps: int = 15) -> float:
    """Median time of a fixed numpy loop. Shows host-speed drift; never scales a metric."""
    import numpy as np

    base = np.linspace(0.0, 1.0, 4096)
    times = []
    for _ in range(reps):
        a = base
        t0 = time.perf_counter()
        for _ in range(300):
            a = a * 0.999999 + float(a @ base) * 1e-12
        times.append(time.perf_counter() - t0)
    return median(times) * 1e3


def setup_probe(workload: str, seed: int) -> float:
    """Process start to workload ready in a fresh process (imports, config, grid builds)."""
    # a directory of its own, so a probe never rewrites the timed run's config
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(OUT / "probe")]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
    return elapsed


def timed(fn):
    w0, c0 = time.perf_counter(), time.process_time()
    out = fn()
    return time.perf_counter() - w0, time.process_time() - c0, out


def another_round(rounds: list[float], started: float, seconds: float, minimum: int) -> bool:
    """At least ``minimum`` rounds, then more while a typical round still ends in time."""
    if len(rounds) < minimum:
        return True
    return time.perf_counter() - started + median(rounds) <= seconds


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    """Repeat the workload part by part, timing fresh-process set-ups spread over the run."""
    from workloads import WORKLOADS, canonical

    wl = WORKLOADS[name](seed, str(OUT))
    part_walls = [[] for _ in wl.parts]
    part_cpus = [[] for _ in wl.parts]
    walls, cpus, setups, rounds, jobs = [], [], [], [], []
    first = None
    started = last_probe = time.perf_counter()
    while another_round(rounds, started, seconds, MIN_REPS):
        t0 = time.perf_counter()
        if not setups or t0 - last_probe >= seconds / SETUP_PROBES:
            setups.append(setup_probe(name, seed))
            last_probe = t0
        out = []
        for part, pw, pc in zip(wl.parts, part_walls, part_cpus):
            wall, cpu, part_out = timed(part)
            pw.append(wall)
            pc.append(cpu)
            out.append(part_out)
        walls.append(sum(pw[-1] for pw in part_walls))
        cpus.append(sum(pc[-1] for pc in part_cpus))
        jobs += wl.check(out)
        text = canonical(out)
        if first is None:
            first = text
        elif text != first:
            jobs.append(Job("repeatable output", False, "differs from the first repetition"))
        rounds.append(time.perf_counter() - t0)
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(name, seed))
    return {
        "walls": walls, "cpus": cpus, "part_walls": part_walls, "part_cpus": part_cpus,
        "setups": setups, "jobs": jobs,
    }


def run_traced(name: str, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced repetitions; per-layer figures from the traced ones."""
    from workloads import WORKLOADS, canonical

    tracer = Tracer()
    plain = WORKLOADS[name](seed, str(OUT))
    walls_plain, walls_traced, samples, rounds, jobs = [], [], [], [], []
    started = time.perf_counter()
    while another_round(rounds, started, seconds, MIN_TRACED_REPS):
        t0 = time.perf_counter()
        wall, _, out_plain = timed(plain.run)
        walls_plain.append(wall)
        jobs += plain.check(out_plain)
        with tracer:
            traced = WORKLOADS[name](seed, str(OUT))  # set-up is traced too
            wall, _, out_traced = timed(traced.run)
        walls_traced.append(wall)
        spans = tracer.spans()
        jobs += traced.check(out_traced)
        if canonical(out_traced) != canonical(out_plain):
            jobs.append(Job("traced output", False, "differs from the untraced repetition"))
        calls = span_calls(spans)
        missing = [layer for layer in traced.expected_layers if not calls.get(layer)]
        if missing:
            raise TraceError(f"{name}: expected layers recorded no calls: {missing}")
        samples.append(layer_metrics(spans))
        del spans
        rounds.append(time.perf_counter() - t0)

    metrics = {}
    for metric, _, _, kind in PER_LAYER:
        values = [s[metric] for s in samples if metric in s]
        if not values:
            continue
        if kind == WORK:
            metrics[metric] = values[0]
            if any(v != values[0] for v in values):
                jobs.append(Job(f"repeatable {metric}", False, f"work counts differ: {values}"))
        else:
            metrics[metric] = min(values)
    # every check metric is reported; those of other workloads read 0
    metrics.update({m: 0.0 for m, _, _, kind in PER_LAYER if kind == CHECK})
    metrics.update(plain.margins(out_plain))
    metrics["trace.overhead"] = min(walls_traced) / min(walls_plain)
    return {
        "walls_plain": walls_plain,
        "walls_traced": walls_traced,
        "jobs": jobs,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        load_package()
    except ImportError as exc:
        print(f"perfbench: cannot load the package from {SRC}: {exc}", file=sys.stderr)
        return EXIT_LOAD
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "reference_kernel_ms": [reference_kernel_ms()],
    }

    try:
        if args.trace:
            res = run_traced(args.workload, args.seed, args.seconds)
            values = res["metrics"]
            table = [(name, unit) for name, unit, _, _ in PER_LAYER]
            record["samples"] = {"wall_plain": res["walls_plain"], "wall_traced": res["walls_traced"]}
        else:
            res = run_untraced(args.workload, args.seed, args.seconds)
            values = {
                "wall_s": sum(min(ws) for ws in res["part_walls"]),
                "cpu_s": sum(min(cs) for cs in res["part_cpus"]),
                "setup_s": median(res["setups"]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            table = [(name, unit) for name, unit, _ in END_TO_END]
            record["samples"] = {
                "wall": res["walls"], "cpu": res["cpus"], "setup": res["setups"],
                "part_wall": res["part_walls"], "part_cpu": res["part_cpus"],
            }
            record["summaries"] = {
                "rep_wall_s": summarize(res["walls"]),
                "rep_cpu_s": summarize(res["cpus"]),
                "setup_s": summarize(res["setups"]),
            }
    except TraceError as exc:
        print(f"perfbench: tracing failed: {exc}", file=sys.stderr)
        return EXIT_TRACE

    attempted, failed, fail_ratio = tally(res["jobs"])
    if not args.trace:
        values["pass_ratio"] = 1.0 - fail_ratio
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table}
    record["reference_kernel_ms"].append(reference_kernel_ms())
    record["failures"] = [vars(j) for j in res["jobs"] if not j.ok]
    record["metrics"] = metrics
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for j in res["jobs"]:
        if not j.ok:
            print(f"FAIL {j.label}: {j.detail}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} jobs, {failed} failed, fail_ratio {fail_ratio:.4g} (1)")
    for key, summary in record.get("summaries", {}).items():
        tail = (f"p{summary['tail_p']:g} {summary['tail']:.6g}" if summary["tail_p"]
                else "no tail percentile (fewer than 10 samples beyond p90)")
        print(f"  {key}: n={summary['n']} min {summary['min']:.6g} "
              f"median {summary['median']:.6g}; {tail}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  reference kernel: {record['reference_kernel_ms'][0]:.3f} ms before, "
          f"{record['reference_kernel_ms'][1]:.3f} ms after; record {record_path}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return EXIT_PASS if failed == 0 else EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
