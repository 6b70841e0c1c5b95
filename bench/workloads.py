"""Benchmark workloads: seeded inputs, command lines and independent output oracles.

Inputs are generated with plain numpy from the workload seed and written in
the package's matrix text format, so the program under test sees only files
and flags.  Every oracle is computed from the generating parameters (radii,
eigenvalues, singular values), never through the package.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Containment slack for CSV points, and relative tolerance for the volume line.
MEMBERSHIP_SLACK = 1e-9
VOLUME_RTOL = 1e-9

# Spectrum range of the generated 10-d and 64-d matrices: condition number <= 4.
_SPECTRUM = (0.5, 2.0)

_TEST_NAMES = {"chi2": "chi_square_uniformity", "ks": "radial_ks", "identity": "proof_identity"}


class CheckFailed(Exception):
    """An output did not match what the oracle requires."""


@dataclass(frozen=True)
class Case:
    """One workload instantiated for one seed.

    ``argv`` and ``volume_argv`` follow ``python -m ellipsample``.  Runs
    write into ``work``; ``output`` is the file holding a run's result (the
    ``--out`` target for sample runs, otherwise the captured standard output).
    """

    argv: list[str]
    volume_argv: list[str]
    count: int
    output: Path
    work: Path
    verify: Callable[[Path], None]
    volume: float


def _write_matrix(path: Path, m: np.ndarray) -> None:
    path.write_text("".join(" ".join(repr(float(v)) for v in row) + "\n" for row in m))


def _haar(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


def verify_csv(path: Path, count: int, centre: np.ndarray, m: np.ndarray) -> None:
    """Header plus ``count`` rows of ``dim`` floats, each inside {(x-c)^T m (x-c) <= 1}."""
    dim = centre.size
    with open(path, "rb") as fh:
        header = fh.readline()
    expected = (",".join(f"x{i + 1}" for i in range(dim)) + "\n").encode()
    if header != expected:
        raise CheckFailed(f"csv header {header[:80]!r}, expected {expected!r}")
    try:
        pts = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise CheckFailed(f"csv body does not parse: {exc}") from None
    if pts.shape != (count, dim):
        raise CheckFailed(f"csv body has shape {pts.shape}, expected {(count, dim)}")
    d = pts - centre
    q = np.einsum("ij,jk,ik->i", d, m, d)
    inside = q <= 1.0 + MEMBERSHIP_SLACK
    if not inside.all():
        bad = int(np.argmin(inside))
        raise CheckFailed(f"row {bad + 1} has (x-c)^T M (x-c) = {q[bad]!r} > 1 + {MEMBERSHIP_SLACK}")


def verify_reports(path: Path, tests: list[str], count: int) -> None:
    """One passing JSON report per requested test, in order, on ``count`` samples."""
    lines = path.read_text().splitlines()
    if len(lines) != len(tests):
        raise CheckFailed(f"{len(lines)} report lines for tests {tests}")
    for flag, line in zip(tests, lines):
        try:
            report = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"report is not JSON: {exc}") from None
        if report.get("test") != _TEST_NAMES[flag]:
            raise CheckFailed(f"report {report.get('test')!r}, expected {_TEST_NAMES[flag]!r}")
        if report.get("pass") is not True:
            raise CheckFailed(f"{flag} did not pass: {line}")
        n = report.get("n_samples")
        # The identity check draws its own few trial points, not the batch.
        sized = isinstance(n, int) and n >= 1 if flag == "identity" else n == count
        if not sized:
            raise CheckFailed(f"{flag} reports n_samples={n!r}, batch count is {count}")


def verify_volume(path: Path, volume: float) -> None:
    lines = path.read_text().split("\n")
    head, _, value = lines[0].partition(" ")
    try:
        got = float(value)
    except ValueError:
        got = math.nan
    if head != "volume" or not abs(got - volume) <= VOLUME_RTOL * volume:
        raise CheckFailed(f"volume line {lines[0]!r}, oracle volume {volume!r}")


def sample_csv_2d(seed: int, work: Path) -> Case:
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    rotation = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    cli_seed = int(rng.integers(2**32))
    radii = np.array([2.0, 1.0])
    centre = np.array([1.0, -0.5])
    _write_matrix(work / "R.txt", rotation)
    m = rotation @ np.diag(radii**-2) @ rotation.T
    count = 1_000_000
    flags = ["--radii", "2,1", "--rotation", str(work / "R.txt"), "--centre=1,-0.5"]
    out = work / "points.csv"
    return Case(
        argv=["sample", *flags, "--count", str(count), "--format", "csv", "--out", str(out),
              "--seed", str(cli_seed)],
        volume_argv=["volume", *flags, "--seed", str(cli_seed)],
        count=count,
        output=out,
        work=work,
        verify=lambda p: verify_csv(p, count, centre, m),
        volume=unit_ball_volume(2) * float(np.prod(radii)),
    )


def check_10d(seed: int, work: Path) -> Case:
    rng = np.random.default_rng(seed)
    u = _haar(rng, 10)
    eig = rng.uniform(*_SPECTRUM, 10)
    quad = u @ np.diag(eig) @ u.T
    quad = 0.5 * (quad + quad.T)
    cli_seed = int(rng.integers(2**32))
    _write_matrix(work / "Q.txt", quad)
    count = 1_000_000
    flags = ["--quadratic", str(work / "Q.txt")]
    tests = ["chi2", "ks", "identity"]
    out = work / "stdout.txt"
    return Case(
        argv=["check", *flags, "--count", str(count), "--seed", str(cli_seed)],
        volume_argv=["volume", *flags, "--seed", str(cli_seed)],
        count=count,
        output=out,
        work=work,
        verify=lambda p: verify_reports(p, tests, count),
        volume=unit_ball_volume(10) / math.sqrt(float(np.prod(eig))),
    )


def check_64d(seed: int, work: Path) -> Case:
    rng = np.random.default_rng(seed)
    sv = rng.uniform(*_SPECTRUM, 64)
    shape = _haar(rng, 64) @ np.diag(sv) @ _haar(rng, 64).T
    cli_seed = int(rng.integers(2**32))
    _write_matrix(work / "S.txt", shape)
    count = 250_000
    flags = ["--shape", str(work / "S.txt")]
    tests = ["ks", "identity"]
    out = work / "stdout.txt"
    return Case(
        argv=["check", *flags, "--count", str(count), "--tests", ",".join(tests),
              "--seed", str(cli_seed)],
        volume_argv=["volume", *flags, "--seed", str(cli_seed)],
        count=count,
        output=out,
        work=work,
        verify=lambda p: verify_reports(p, tests, count),
        volume=unit_ball_volume(64) * float(np.prod(sv)),
    )


WORKLOADS = {
    "sample-csv-2d": sample_csv_2d,
    "check-10d": check_10d,
    "check-64d": check_64d,
}


def sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


class Tally:
    """Attempted and failed runs of one workload.

    A run fails on a non-zero exit code, on an oracle rejection, or when its
    output digest differs from the first verified run's: one seed must
    always give the same bytes.  Only the first good output is parsed by the
    oracle; later outputs are held to its digest.
    """

    def __init__(self, verify: Callable[[Path], None]):
        self.verify = verify
        self.reference: str | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def judge(self, returncode: int | None, output: Path) -> bool:
        self.attempted += 1
        try:
            if returncode != 0:
                raise CheckFailed(f"exit code {returncode}")
            if not output.is_file():
                raise CheckFailed(f"no output file {output.name}")
            digest = sha256(output)
            if self.reference is None:
                self.verify(output)
                self.reference = digest
            elif digest != self.reference:
                raise CheckFailed(f"digest {digest[:16]} differs from first run {self.reference[:16]}")
        except CheckFailed as exc:
            self.failed += 1
            self.errors.append(str(exc))
            return False
        return True
