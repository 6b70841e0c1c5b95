"""The chunk driver: same bits at any worker count, failures surface, no pool on one CPU."""

import hashlib
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from ellipsample import Ellipsoid, RngStream, sampling
from ellipsample.cli import main
from ellipsample.sampling import CHUNK_SIZE, _chunk_results, sample_batch
from ellipsample.validation import _pull_back_pass, chi_square_uniformity, mc_volume, radial_ks
from helpers import child_env, dense_shape
from test_golden import CASES

WORKER_COUNTS = (2, 3, 7)
COUNTS = (1, CHUNK_SIZE, 3 * CHUNK_SIZE + 5)


def driven(count, fn, size=CHUNK_SIZE) -> list:
    with _chunk_results(count, fn, size) as results:
        return list(results)


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

    def pulled() -> bytes:
        kept = _pull_back_pass(e, batch.count, lambda i, rows: batch.points[rows], shells, True)
        return b"".join(k.tobytes() for k in kept if k is not None)

    reference, results = at_each_worker_count(monkeypatch, pulled)
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


def traced_peak(argv, capsys) -> tuple[int, int]:
    """The traced peak bytes of main(argv), which must succeed, and the length of its output."""
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak, len(capsys.readouterr().out)


def test_check_working_set_does_not_grow_with_the_thread_count(monkeypatch, capsys):
    argv = "check --dim 64 --count 65536 --seed 3 --tests ks".split()
    peaks = []
    for workers in (2, 7):
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: workers)
        peaks.append(traced_peak(argv, capsys)[0])
    # Each added thread holds one chunk's rows, which it draws into, and a
    # piece's temporaries, a few 128 KiB; a whole chunk's would be about 5 MB more.
    assert (peaks[1] - peaks[0]) / 5 < CHUNK_SIZE * 64 * 8 + 1e6


def test_box_rejection_working_set_is_a_few_pieces(monkeypatch, capsys):
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: 2)
    argv = "sample --dim 8 --method reject --count 3000 --seed 4".split()
    peak, out = traced_peak(argv, capsys)
    # About 236k proposals per chunk: 15 MB as one array, before its
    # temporaries.  Drawn in passes of at most one piece, sized to the rows
    # still empty, sampling takes under 2 MB, and the two chunks of text
    # rendered at once about 3 MB.
    assert peak < out + 8e6


@pytest.mark.parametrize("workers", [1, 2, 7])
def test_results_come_back_in_chunk_order(workers, monkeypatch):
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: workers)
    found = driven(25, lambda i, rows: (i, rows.start, rows.stop), 10)
    assert found == [(0, 0, 10), (1, 10, 20), (2, 20, 25)]
    assert driven(0, lambda i, rows: i) == []


@pytest.mark.parametrize("workers", [1, 2])
def test_chunks_are_made_as_they_run(workers, monkeypatch):
    # A pass that stops at its third of 10^6 chunks never held a slice for each.
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: workers)

    def fn(i, rows):
        if i == 2:
            raise ArithmeticError("chunk 2 failed")

    tracemalloc.start()
    try:
        with pytest.raises(ArithmeticError):
            driven(10**6, fn, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_a_failing_chunk_raises_and_cancels_the_rest(workers, monkeypatch):
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: workers)
    chunks = 400
    ran = np.zeros(chunks, np.uint8)

    def fn(i, rows):
        ran[i] = 1
        if i == 2:
            raise ArithmeticError("chunk 2 failed")
        time.sleep(0.005)

    with pytest.raises(ArithmeticError, match="chunk 2 failed"):
        driven(chunks, fn, 1)
    assert ran[2] == 1 and ran.sum() < chunks


@pytest.mark.parametrize("workers", [2, 3], ids=["threads-2", "threads-3"])
def test_at_most_two_chunks_per_worker_are_in_flight(workers, monkeypatch):
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: workers)
    chunks = 40
    started = np.zeros(chunks, np.uint8)

    def fn(i, rows):
        started[i] = 1
        return i

    with _chunk_results(chunks, fn, 1) as results:
        for taken, i in enumerate(results, 1):
            # A slow consumer, which free-running workers would leave behind.
            time.sleep(0.01)
            assert i == taken - 1
            assert started.sum() <= taken + 2 * workers
    assert started.sum() == chunks


def test_disjoint_writes_survive_fast_thread_switching(monkeypatch):
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: 7)
    out = np.zeros(3000, dtype=np.int64)

    def bump(i, rows):
        out[rows] += i + 1
        return int(out[rows].sum())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        found = driven(out.size, bump, 3)
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
    assert driven(count, lambda i, rows: rows.stop)[-1] == count
    e = dense(3)
    batch = sample_batch(e, count, 9)
    radial_ks(batch, e)
    assert main(["sample", "--dim", "2", "--count", str(count), "--seed", "9"]) == 0


FORMATS = ("csv", "svg", "json")


def sample_argv(fmt: str, count: int) -> list[str]:
    return ["sample", "--radii", "2,1", "--centre", "1,-0.5", "--count", str(count), "--seed", "4",
            "--format", fmt]


def run_main(argv, capsys) -> tuple[int, bytes, str]:
    """main(argv), its stdout bytes and stderr."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("fmt", FORMATS)
def test_sample_output_does_not_depend_on_the_worker_count(fmt, workers, count, monkeypatch,
                                                           capsys):
    import concurrent.futures

    pools = []

    class CountedPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    argv = sample_argv(fmt, count)
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: 1)
    reference = run_main(argv, capsys)
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
    assert run_main(argv, capsys) == reference
    assert reference[0] == 0
    # One chunk is drawn and rendered inline; more make one pool, in which
    # each chunk is drawn and rendered by one task, of at most one thread per chunk.
    chunks = -(-count // CHUNK_SIZE)
    assert len(pools) == (chunks > 1)
    assert all(pool._max_workers == min(workers, chunks) for pool in pools)


@pytest.mark.parametrize("method", ["transform", "reject"])
def test_check_output_does_not_depend_on_the_worker_count(method, monkeypatch, capsys):
    # Each thread draws into its own buffer and writes its own rows of the KS
    # radii; the bin indices come back to one consumer.  More threads than
    # CPUs, switching every microsecond, must move no byte.
    argv = ["check", "--dim", "5", "--count", str(3 * CHUNK_SIZE + 5), "--seed", "12",
            "--tests", "chi2,ks", "--method", method]
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: 1)
    reference = run_main(argv, capsys)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (3, 7):
            monkeypatch.setattr(sampling, "_usable_cpus", lambda: workers)
            assert run_main(argv, capsys) == reference
    finally:
        sys.setswitchinterval(interval)
    assert reference[0] == 0


class ChunkFailed(Exception):
    pass


@pytest.mark.parametrize("workers", [1, 2, 3], ids=["threads-1", "threads-2", "threads-3"])
def test_the_first_failing_chunk_raises_its_own_class(workers, monkeypatch):
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: workers)

    def fn(i, rows):
        if i >= 1:
            raise ChunkFailed(f"chunk at row {rows.start}")
        return b"ok"

    found = []
    with pytest.raises(ChunkFailed, match=f"chunk at row {CHUNK_SIZE}$"):
        with _chunk_results(5 * CHUNK_SIZE, fn) as chunks:
            for chunk in chunks:
                found.append(chunk)
    assert found == [b"ok"]


# Runs one CLI command in a child and reports which process-pool modules it imported.
_IMPORTS_CHILD = """
import sys
from ellipsample.cli import main
code = main(sys.argv[1:])
pools = [m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules]
sys.stderr.write(f"pool modules: {pools}\\n")
sys.stderr.write(f"formats: {'ellipsample.formats' in sys.modules}\\n")
raise SystemExit(code)
"""


@pytest.mark.parametrize(
    "argv, renders",
    [
        ("volume --radii 2,1 --seed 1 --mc 20000", False),
        ("check --radii 2,1 --count 20000 --seed 7", False),
        (f"sample --radii 2,1 --count {CHUNK_SIZE} --seed 7 --format json", True),
        (f"sample --radii 2,1 --count {3 * CHUNK_SIZE + 5} --seed 7", True),
    ],
    ids=["volume", "check", "sample-one-chunk", "sample-chunks"],
)
def test_runs_that_fork_no_pool_do_not_import_it(argv, renders):
    # Nor does a run that renders no text load the render (formats).
    run = subprocess.run(
        [sys.executable, "-c", _IMPORTS_CHILD, *argv.split()],
        capture_output=True,
        env=child_env(),
        timeout=120,
    )
    assert run.returncode == 0
    assert run.stderr == f"pool modules: []\nformats: {renders}\n".encode()


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
