"""Time, own peak memory, page faults and context switches of one ``python -m ellipsample`` run.

Runs ``python -m ellipsample ARGS`` on the package under this repository's
``src/`` and prints one line, for example:

    wall_s 0.594 cpu_s 0.925 own_peak_mb 161.8 minflt 9120 sys_s 0.104 nvcsw 7512 exit 0

``own_peak_mb`` is the child's own VmHWM, read from /proc/self/status in an
atexit hook and sent back through a pipe.  Unlike ``ru_maxrss`` from
``wait4``, it never reports the parent's RSS at fork time, so it can read
below the RSS of a large parent.  ``cpu_s`` is the child's user plus system
time from ``wait4``, ``sys_s`` its system time alone and ``minflt`` its
minor page faults: memory the allocator hands back to the OS and takes
again shows in both.  ``nvcsw`` is its voluntary context switches, also
from ``wait4``: a thread that blocks, on I/O or on the interpreter lock
another thread holds, adds one.  The command's standard output is
discarded (give ``--out`` to keep it); its standard error passes through,
and its exit code is the tool's, or 128 + N if signal N killed it, as in
a shell.  The child writes and reads its bytecode under
``.bench_work/pycache`` in this repository, whatever the caller's
PYTHONDONTWRITEBYTECODE, so only the first run compiles the package.
Linux only; standard library only.  Run from anywhere:

    python3 tools/own_peak.py sample --dim 2 --count 1000000 --seed 3 --out points.csv
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src"

# The child's bytecode cache, so no run compiles the package again: a
# compile costs time, and its transient memory would count in the peak.
PYCACHE = SRC.parent / ".bench_work" / "pycache"

# The child: report VmHWM at exit, then run the package as ``python -m`` would.
_CHILD = """
import atexit, os, runpy, sys

def report(fd=int(os.environ.pop("OWN_PEAK_FD"))):
    with open("/proc/self/status") as fh:
        os.write(fd, next(line for line in fh if line.startswith("VmHWM:")).encode())

atexit.register(report)
sys.argv[0] = "ellipsample"
runpy.run_module("ellipsample", run_name="__main__", alter_sys=True)
"""


class Run(NamedTuple):
    wall_s: float
    cpu_s: float
    own_peak_mb: float
    minflt: int
    sys_s: float
    nvcsw: int
    exit: int


def run(args: list[str]) -> Run:
    """The readings of one ``python -m ellipsample`` run with ``args``."""
    read, write = os.pipe()
    env = dict(os.environ, OWN_PEAK_FD=str(write))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD, *args], stdout=subprocess.DEVNULL, env=env, pass_fds=(write,)
    )
    os.close(write)
    with os.fdopen(read, "rb") as fh:
        line = fh.read().decode()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # "VmHWM:   161800 kB"; empty if the child died before its exit hooks ran.
    peak = int(line.split()[1]) * 1024 / 1e6 if line else float("nan")
    return Run(wall, usage.ru_utime + usage.ru_stime, peak, usage.ru_minflt, usage.ru_stime,
               usage.ru_nvcsw, proc.returncode)


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if argv else 2
    r = run(argv)
    print(f"wall_s {r.wall_s:.3f} cpu_s {r.cpu_s:.3f} own_peak_mb {r.own_peak_mb:.1f} "
          f"minflt {r.minflt} sys_s {r.sys_s:.3f} nvcsw {r.nvcsw} exit {r.exit}")
    # A child killed by signal N reads exit -N; sys.exit would wrap -N to 256 - N.
    return r.exit if r.exit >= 0 else 128 - r.exit


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
