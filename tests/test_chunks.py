"""The chunk driver: same bits at every thread count, failures surface, no pool on one CPU."""

import hashlib
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from ellipsample import Ellipsoid, RngStream, sampling
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
        raise AssertionError("a thread pool was created")


@pytest.mark.parametrize("workers, count", [(1, 3 * CHUNK_SIZE + 5), (7, CHUNK_SIZE)])
def test_one_worker_or_one_chunk_makes_no_pool(workers, count, monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(sampling, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RefusedPool)
    e = dense(3)
    batch = sample_batch(e, count, 9)
    radial_ks(batch, e)


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
    template, expected_code, expected_hash = CASES["check-10d-chunks"]
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
