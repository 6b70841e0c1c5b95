"""Benchmark of the ellipsample CLI: end-to-end child runs or a traced in-process run.

Usage, from the root of an ellipsample checkout:

    python3 bench/run.py --workload check-10d --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload runs as ``python -m ellipsample`` children in
a closed loop (one client, the next run starts after the previous one
exits), each followed by a ``volume`` run on the same ellipsoid flags that
times set-up.  With ``--trace 1`` it runs ``cli.main`` in-process,
alternating traced and untraced calls, and reports per-layer metrics.
Every output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans
from workloads import WORKLOADS, Case, Tally, verify_volume

ROOT = Path(__file__).resolve().parent.parent

E2E_UNITS = {"points_per_s": "points/s", "setup_s": "s", "peak_rss_mb": "MB", "cpu_s": "s"}

LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.resolve.self_s": "s",
    "cli.bytes_out": "bytes",
    "cli.render_mb_per_s": "MB/s",
    "linalg.busy_s": "s",
    "geometry.construct_s": "s",
    "geometry.pullback_s": "s",
    "geometry.pullback_calls": "count",
    "geometry.pullback_points": "count",
    "geometry.pullback_mb_computed": "MB",
    "sampling.busy_s": "s",
    "sampling.points": "count",
    "sampling.chunks": "count",
    "sampling.out_mb_computed": "MB",
    "validation.chi2.self_s": "s",
    "validation.ks.self_s": "s",
    "validation.identity.self_s": "s",
    "validation.reports": "count",
    "validation.pass_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


@dataclass(frozen=True)
class ChildRun:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int


def run_child(cmd: list[str], stdout: Path, env: dict | None = None) -> ChildRun:
    """Run one child to completion; resources come from wait4 on its own pid.

    ``getrusage(RUSAGE_CHILDREN)`` would report the high-water RSS over all
    children so far, so one large run would mask every later one.
    """
    with open(stdout, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6, proc.returncode)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS loaded by numpy, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _until(seconds: float, step) -> None:
    """Call ``step`` at least once, and again while another call should fit in ``seconds``."""
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return


def _describe(name: str, values: list[float], unit: str) -> str:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = f"q1 {q1:.6g} q3 {q3:.6g} min {min(values):.6g} max {max(values):.6g}"
    else:
        spread = ""
    return f"{name:30s} median {statistics.median(values):.6g} {unit:9s} n={len(values)} {spread}"


def measure_children(case: Case, seconds: float) -> tuple[dict[str, list[float]], list[Tally]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "ellipsample"]
    runs = Tally(case.verify)
    setups = Tally(lambda p: verify_volume(p, case.volume))
    stdout, volume_out = case.work / "stdout.txt", case.work / "volume.txt"
    samples: dict[str, list[float]] = {name: [] for name in E2E_UNITS}

    def workload() -> ChildRun:
        case.output.unlink(missing_ok=True)
        r = run_child(cmd + case.argv, stdout, env)
        runs.judge(r.returncode, case.output)
        return r

    def setup() -> ChildRun:
        r = run_child(cmd + case.volume_argv, volume_out, env)
        setups.judge(r.returncode, volume_out)
        return r

    # Discarded warm-up: the first run pays for bytecode compilation and a
    # cold page cache (2.4 s against 1.15 s for later check-10d runs).
    workload()
    setup()

    def step() -> None:
        r = workload()
        samples["points_per_s"].append(case.count / r.wall_s)
        samples["peak_rss_mb"].append(r.peak_rss_mb)
        samples["cpu_s"].append(r.cpu_s)
        samples["setup_s"].append(setup().wall_s)

    _until(seconds, step)
    return samples, [runs, setups]


def measure_traced(case: Case, seconds: float) -> tuple[dict[str, list[float]], list[Tally], list]:
    sys.path.insert(0, str(ROOT / "src"))
    from ellipsample import cli, geometry, linalg, sampling

    tally = Tally(case.verify)
    stdout = case.work / "stdout.txt"

    def call(tracer: spans.Tracer | None) -> tuple[float, int]:
        case.output.unlink(missing_ok=True)
        main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(buf):
                rc = main(list(case.argv))
        except Exception:
            traceback.print_exc()
            rc = None
        wall = time.perf_counter() - start
        stdout.write_text(buf.getvalue(), encoding="utf-8", newline="")
        tally.judge(rc, case.output)
        written = stdout.stat().st_size
        if case.output != stdout and case.output.is_file():
            written += case.output.stat().st_size
        return wall, written

    call(None)  # warm-up, discarded
    samples: dict[str, list[float]] = {name: [] for name in LAYER_UNITS}
    walls: dict[bool, list[float]] = {False: [], True: []}
    last: list[spans.Span] = []

    def traced() -> None:
        nonlocal last
        tracer = spans.Tracer()
        with spans.installed(tracer, cli, geometry, linalg, sampling):
            wall, written = call(tracer)
        walls[True].append(wall)
        for name, value in spans.layer_metrics(tracer, written).items():
            samples[name].append(value)
        last = tracer.spans

    def untraced() -> None:
        walls[False].append(call(None)[0])

    pairs = 0

    def step() -> None:
        nonlocal pairs
        # Alternate which side runs first so drift does not favour one.
        for fn in (traced, untraced) if pairs % 2 == 0 else (untraced, traced):
            fn()
        pairs += 1

    _until(seconds, step)
    samples["trace.overhead_ratio"] = [statistics.median(walls[True]) / statistics.median(walls[False])]
    return samples, [tally], last


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1, help="workload seed (inputs and CLI seed)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (ROOT / "src" / "ellipsample" / "__main__.py").is_file():
        print(f"error: no ellipsample sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        case = WORKLOADS[args.workload](args.seed, work)
        provenance = {
            "workload": args.workload,
            "seed": args.seed,
            "argv": case.argv,
            "trace": args.trace,
            "seconds": args.seconds,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(),
            "machine": platform.machine(),
        }
        print(json.dumps({"provenance": provenance}))
        if args.trace:
            samples, tallies, last = measure_traced(case, args.seconds)
            units = LAYER_UNITS
            t0 = last[0].start if last else 0.0
            print(json.dumps({"spans": [
                {"name": s.name, "start": s.start - t0, "end": s.end - t0, "parent": s.parent}
                for s in last
            ]}))
        else:
            samples, tallies = measure_children(case, args.seconds)
            units = E2E_UNITS
        digest = tallies[0].reference
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for name, unit in units.items():
        print(_describe(name, samples[name], unit))
    print(f"{'fail_ratio':30s} {failed / attempted:.6g} ({failed} of {attempted} runs)")
    print(f"{'output_sha256':30s} {digest}")
    for error in sorted({e for t in tallies for e in t.errors}):
        print(f"check failed: {error}")
    metrics = {
        name: {"value": statistics.median(samples[name]), "unit": unit} for name, unit in units.items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
