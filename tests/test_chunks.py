"""The chunk drivers: same bits at any worker count, failures surface, no pool on one CPU."""

import hashlib
import multiprocessing
import os
import select
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from ellipsample import Ellipsoid, RngStream, cli, sampling
from ellipsample.cli import main
from ellipsample.sampling import CHUNK_SIZE, _each_chunk, sample_batch
from ellipsample.validation import _pull_back, chi_square_uniformity, mc_volume, radial_ks
from helpers import child_env, dense_shape
from test_golden import CASES

WORKER_COUNTS = (2, 3, 7)
COUNTS = (1, CHUNK_SIZE, 3 * CHUNK_SIZE + 5)


def at_each_worker_count(monkeypatch, fn):
    """fn() with 1 usable CPU, then with each of WORKER_COUNTS: (reference, [results])."""
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: 1)
    reference = fn()
    results = []
    for workers in WORKER_COUNTS:
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: workers)
        results.append(fn())
    return reference, results


def dense(n: int) -> Ellipsoid:
    return Ellipsoid.from_spec({"dim": n, "shape": dense_shape(n), "centre": np.linspace(-1, 1, n)})


# Box rejection stops at 12 dimensions and accepts 1 draw in 400 at 10, so
# its multi-chunk case runs at 5 dimensions instead.
SAMPLE_CASES = [
    (method, n, count)
    for method, dims in (
        ("transform", (1, 2, 10, 64)),
        ("biased", (1, 2, 10, 64)),
        ("ellipsoid_rejection", (1, 2, 5)),
    )
    for n in dims
    for count in COUNTS
]


@pytest.mark.parametrize("method, n, count", SAMPLE_CASES)
def test_sample_batch_bits_do_not_depend_on_the_thread_count(method, n, count, monkeypatch):
    e = dense(n)
    reference, results = at_each_worker_count(
        monkeypatch, lambda: sample_batch(e, count, 5, method).points.tobytes()
    )
    assert all(r == reference for r in results)


@pytest.mark.parametrize("shells", [None, 3])
@pytest.mark.parametrize("n", [2, 10])
def test_pull_back_bits_do_not_depend_on_the_thread_count(n, shells, monkeypatch):
    e = dense(n)
    batch = sample_batch(e, 3 * CHUNK_SIZE + 5, 6)
    reference, results = at_each_worker_count(
        monkeypatch, lambda: _pull_back(batch, e, shells).tobytes()
    )
    assert all(r == reference for r in results)


@pytest.mark.parametrize("n", [2, 10, 64])
def test_reports_do_not_depend_on_the_thread_count(n, monkeypatch):
    e = dense(n)
    batch = sample_batch(e, 5 * CHUNK_SIZE + 7, 7)

    def reports():
        found = [radial_ks(batch, e).as_dict()]
        if n <= 10:
            found.append(chi_square_uniformity(batch, e, shells=2).as_dict())
        return found

    reference, results = at_each_worker_count(monkeypatch, reports)
    assert all(r == reference for r in results)


def test_mc_volume_does_not_depend_on_the_thread_count(monkeypatch):
    e = dense(3)
    # Past two _MC_CHUNK chunks, with a short last one.
    reference, results = at_each_worker_count(
        monkeypatch, lambda: mc_volume(e, 600_000, RngStream(8))
    )
    assert all(r == reference for r in results)


def test_mc_volume_working_set_is_a_few_blocks_per_thread(monkeypatch):
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: 7)
    e = Ellipsoid.from_spec({"dim": 12, "shape": np.eye(12)})
    tracemalloc.start()
    try:
        mc_volume(e, 600_000, RngStream(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One whole 262144 x 12 chunk and its pull-back alone take 75 MB.
    assert peak < 20e6


@pytest.mark.parametrize("workers", [1, 2, 7])
def test_results_come_back_in_chunk_order(workers, monkeypatch):
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: workers)
    found = _each_chunk(25, lambda i, rows: (i, rows.start, rows.stop), size=10)
    assert found == [(0, 0, 10), (1, 10, 20), (2, 20, 25)]
    assert _each_chunk(0, lambda i, rows: i) == []


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_a_failing_chunk_raises_and_cancels_the_rest(workers, monkeypatch):
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: workers)
    chunks = 400
    ran = []

    def fn(i, rows):
        ran.append(i)
        if i == 2:
            raise ArithmeticError("chunk 2 failed")
        time.sleep(0.005)

    with pytest.raises(ArithmeticError, match="chunk 2 failed"):
        _each_chunk(chunks, fn, size=1)
    assert 2 in ran and len(ran) < chunks


def test_disjoint_writes_survive_fast_thread_switching(monkeypatch):
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: 7)
    out = np.zeros(3000, dtype=np.int64)

    def bump(i, rows):
        out[rows] += i + 1
        return int(out[rows].sum())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        found = _each_chunk(out.size, bump, size=3)
    finally:
        sys.setswitchinterval(interval)
    expected = np.repeat(np.arange(1, 1001), 3)
    assert np.array_equal(out, expected)
    assert found == [3 * (i + 1) for i in range(1000)]


class RefusedPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a pool was created")


@pytest.mark.parametrize("workers, count", [(1, 3 * CHUNK_SIZE + 5), (7, CHUNK_SIZE)])
def test_one_worker_or_one_chunk_makes_no_pool(workers, count, monkeypatch, capsys):
    import concurrent.futures

    monkeypatch.setattr(sampling, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RefusedPool)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RefusedPool)
    e = dense(3)
    batch = sample_batch(e, count, 9)
    radial_ks(batch, e)
    assert main(["sample", "--dim", "2", "--count", str(count), "--seed", "9"]) == 0


FORMATS = ("csv", "svg", "json")


def sample_argv(fmt: str, count: int) -> list[str]:
    return ["sample", "--radii", "2,1", "--centre", "1,-0.5", "--count", str(count), "--seed", "4",
            "--format", fmt]


def run_main(argv, capsys) -> tuple[int, bytes, str]:
    """main(argv), its stdout bytes and stderr; no worker may outlive the call."""
    code = main(argv)
    captured = capsys.readouterr()
    assert multiprocessing.active_children() == []
    return code, captured.out.encode(), captured.err


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs the fork start method")


@needs_fork
@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("fmt", FORMATS)
def test_sample_output_does_not_depend_on_the_worker_count(fmt, workers, count, monkeypatch,
                                                           capsys):
    import concurrent.futures

    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    argv = sample_argv(fmt, count)
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: 1)
    reference = run_main(argv, capsys)
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    assert run_main(argv, capsys) == reference
    assert reference[0] == 0
    # One chunk renders inline; more fork a pool of at most one worker per chunk.
    chunks = -(-count // CHUNK_SIZE)
    assert len(pools) == (chunks > 1)
    assert all(pool._max_workers == min(workers, chunks) for pool in pools)


@pytest.mark.parametrize("why", ["no-fork", "other-thread"])
def test_rendering_is_inline_without_fork_or_beside_other_threads(why, monkeypatch, capsys):
    import concurrent.futures

    argv = sample_argv("csv", 3 * CHUNK_SIZE + 5)
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: 1)
    reference = run_main(argv, capsys)
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RefusedPool)
    if why == "no-fork":
        monkeypatch.delattr(os, "fork", raising=False)
        assert run_main(argv, capsys) == reference
        return
    # sample_batch's own thread pool must not count as another thread.
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        found = run_main(argv, capsys)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert found == reference


class ChunkFailed(Exception):
    pass


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_first_failing_chunk_raises_its_own_class(workers, monkeypatch):
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: workers)
    points = np.zeros((5 * CHUNK_SIZE, 2))

    def render(block, start):
        if start >= CHUNK_SIZE:
            raise ChunkFailed(f"chunk at row {start}")
        return "ok"

    found = []
    with pytest.raises(ChunkFailed, match=f"chunk at row {CHUNK_SIZE}$"):
        with cli._rendered_chunks(points, render) as chunks:
            for chunk in chunks:
                found.append(chunk)
    assert found == [b"ok"]
    assert multiprocessing.active_children() == []


@needs_fork
def test_a_dead_worker_is_exit_1_with_one_error_line(monkeypatch, capsys):
    parent = os.getpid()

    def die(block, start):
        if os.getpid() == parent:
            raise AssertionError("rendered inline")
        os._exit(1)

    monkeypatch.setattr(sampling, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_csv_rows", die)
    code, _, err = run_main(sample_argv("csv", 3 * CHUNK_SIZE + 5), capsys)
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


# Runs main with two usable CPUs, then reports how many worker processes are
# still alive.
_CLOSED_CHILD = """
import multiprocessing, sys
from ellipsample import sampling
from ellipsample.cli import main
sampling._usable_cpus = lambda: 2
code = main(sys.argv[1:])
sys.stderr.write(f"children alive: {len(multiprocessing.active_children())}\\n")
raise SystemExit(code)
"""


@needs_fork
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_leaves_no_worker(unbuffered):
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-c", _CLOSED_CHILD, *sample_argv("csv", 20 * CHUNK_SIZE)]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read().decode().splitlines()
    assert len(head) == 10
    assert proc.returncode == 1
    assert len(err) == 2 and err[0].startswith("error: ")
    assert err[1] == "children alive: 0"


@needs_fork
def test_workers_exit_when_the_parent_is_killed():
    # Two usable CPUs, as in _CLOSED_CHILD, on output no one reads.
    argv = [sys.executable, "-c", _CLOSED_CHILD, *sample_argv("csv", 40 * CHUNK_SIZE)]
    with subprocess.Popen(argv, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.kill()
        proc.wait()
        # Every worker holds a copy of the child's stdout, so the pipe reaches
        # its end once the last worker has exited.
        fd = proc.stdout.fileno()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if select.select([fd], [], [], 0.1)[0] and not os.read(fd, 1 << 16):
                break
        else:
            pytest.fail("a worker outlived its killed parent by 10 s")


# Runs one CLI command in a child and reports which process-pool modules it imported.
_IMPORTS_CHILD = """
import sys
from ellipsample.cli import main
code = main(sys.argv[1:])
pools = [m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules]
sys.stderr.write(f"pool modules: {pools}\\n")
raise SystemExit(code)
"""


@pytest.mark.parametrize(
    "argv",
    [
        "volume --radii 2,1 --seed 1 --mc 20000",
        "check --radii 2,1 --count 20000 --seed 7",
        f"sample --radii 2,1 --count {CHUNK_SIZE} --seed 7 --format json",
    ],
    ids=["volume", "check", "sample-one-chunk"],
)
def test_runs_that_fork_no_pool_do_not_import_it(argv):
    run = subprocess.run(
        [sys.executable, "-c", _IMPORTS_CHILD, *argv.split()],
        capture_output=True,
        env=child_env(),
        timeout=120,
    )
    assert run.returncode == 0
    assert run.stderr == b"pool modules: []\n"


# Runs one CLI command in a child; with CPU set, pinned to that CPU before the
# package (and numpy) is imported.  Reports how many Python threads started.
_CHILD = """
import os, sys, threading
cpu = {cpu}
if cpu is not None:
    os.sched_setaffinity(0, {{cpu}})
started = []
_start = threading.Thread.start
def start(self):
    started.append(self.name)
    _start(self)
threading.Thread.start = start
from ellipsample.cli import main
code = main(sys.argv[1:])
sys.stderr.write(f"threads started: {{len(started)}}\\n")
raise SystemExit(code)
"""


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs CPU affinity and at least two usable CPUs",
)
def test_one_usable_cpu_gives_the_golden_bytes_without_threads():
    # check's chunks and sample's rendering each run inline on one CPU.
    for name in ("check-10d-chunks", "sample-csv-chunks"):
        template, expected_code, expected_hash = CASES[name]
        runs = {}
        for cpu in (min(os.sched_getaffinity(0)), None):
            runs[cpu] = subprocess.run(
                [sys.executable, "-c", _CHILD.format(cpu=cpu), *template.split()],
                capture_output=True,
                env=child_env(),
                timeout=120,
            )
        one, every = runs.values()
        for run in (one, every):
            assert run.returncode == expected_code
            assert hashlib.sha256(run.stdout).hexdigest() == expected_hash
        assert one.stderr == b"threads started: 0\n"
        assert every.stderr != b"threads started: 0\n"
