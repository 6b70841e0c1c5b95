"""Statistical certification that transformed ball samples are uniform.

All tests work in pulled-back ball coordinates, where uniformity over the
ellipsoid is equivalent to uniformity over the unit ball and equal-probability
cells exist in closed form: K radial shells with cut radii (k/K)^(1/n) each
hold probability 1/K, and the 2^n sign orthants are equal by symmetry.  The
radial Kolmogorov-Smirnov test uses the fact that ||u||^n of a uniform ball
point is Uniform(0, 1).

``certify`` is the one plan of every ``check`` test (CHECKS: "chi2", "ks"
and "identity"), and of the public ``chi_square_uniformity`` and
``radial_ks``: it checks each test's input rule before any point is read,
runs the tests in the order given and reads the points through one pass,
``_pull_back_pass``, which the identity check does not use.  Chunk by
chunk on the threads of ``sampling._chunk_results``, each chunk in
PIECE_FLOATS pieces, each point is pulled back once, checked against the
unit ball, and its t = ||u||^n computed once for every test.  The pass
keeps only what the tests need: chi-square's integer bin counts, made by
each chunk's task for its own points and added as the tasks return, and
KS's t, 8 bytes a point, because its statistic needs one sort of all of
them.  The public tests run it over a held batch; ``check`` runs it once
for all its tests over chunks drawn as it goes, so it holds no batch.
Pieces are bit-identical to one pull-back of the whole batch:
``Ellipsoid.pullback`` multiplies by the cached inverse in the
fixed-height row blocks that the ``Ellipsoid`` docstring describes, so a
row's bits do not depend on how many rows come with it.

Chi-square critical values come from the Wilson-Hilferty cube-root
approximation (no quantile tables); its error is negligible at the degrees
of freedom used here.  The KS critical value is the asymptotic Kolmogorov
quantile over sqrt(N): 1.63/sqrt(N) at alpha 0.01, 1.95/sqrt(N) at 0.001.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InsufficientSamples, PointOutsideEllipsoid
from .geometry import Ellipsoid, _row_norms, _sq_norms, unit_ball_volume
from .sampling import (
    CHUNK_SIZE, MAX_DRAWS, RngStream, SampleBatch, _box_proposals, _chunk_results, _pieces,
)

# Upper-tail standard normal quantiles for the supported significance levels.
_Z_UPPER = {0.01: 2.3263478740408408, 0.001: 3.090232306167813}

# Asymptotic Kolmogorov upper quantiles for the supported significance levels.
_KS_SCALE = {0.01: 1.63, 0.001: 1.95}
KS_MIN_SAMPLES = 100

MIN_EXPECTED_PER_BIN = 5.0

# The least tolerance of a pull-back norm above 1 (see _pullback_slack): past it,
# a norm signals a corrupted batch, not rounding.
PULLBACK_SLACK = 1e-9

_MC_MIN_COUNT = 10_000
_MC_CHUNK = 262_144

# The most chi-square bins ``_pull_back_pass`` counts in each chunk task; past
# it, tasks return bin indices.  Counts matched indices in CPU time and page
# faults at 16384 bins (12-d at 4 shells) and lost from 32768 bins (13-d) on:
# about 10% more CPU and faults there, twice the faults at 14-d, 1.9x the CPU at 16-d.
COUNTED_BINS = 16384

# The tests ``certify`` runs, in ``check``'s default order.
CHECKS = ("chi2", "ks", "identity")


@dataclass(frozen=True)
class TestReport:
    """Outcome of one distributional test; passes iff statistic < critical."""

    __test__ = False  # not a pytest class, despite the name

    test_name: str
    statistic: float
    dof: int | None
    critical_value: float
    alpha: float
    sample_count: int

    @property
    def passed(self) -> bool:
        return self.statistic < self.critical_value

    def as_dict(self) -> dict:
        return {
            "test": self.test_name,
            "statistic": self.statistic,
            "dof": self.dof,
            "critical": self.critical_value,
            "alpha": self.alpha,
            "pass": self.passed,
            "n_samples": self.sample_count,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict())


def _quantile(table: dict, alpha: float) -> float:
    """The entry of a per-alpha quantile table; unsupported levels are a ValueError."""
    try:
        return table[alpha]
    except KeyError:
        raise ValueError(f"alpha must be one of {sorted(table)}, got {alpha}") from None


def wilson_hilferty_critical(dof: int, alpha: float) -> float:
    """Chi-square upper-alpha critical value via the cube-root normal approximation."""
    if dof < 1:
        raise ValueError("dof must be positive")
    z = _quantile(_Z_UPPER, alpha)
    h = 2.0 / (9.0 * dof)
    return dof * (1.0 - h + z * math.sqrt(h)) ** 3


def _bin_total(dim: int, shells: int) -> int:
    """Bin count of the partition: ``shells`` radial shells x 2^dim sign orthants.

    Shell k (0-based) holds ||u||^n in [k/shells, (k+1)/shells); each bin
    has probability exactly 1 / (shells * 2^dim) under the uniform ball law.
    """
    # bit-shifted orthant indices must fit in int64; far past usable
    # bin counts anyway (expected counts need N >= 5 * shells * 2^dim)
    if not 1 <= dim <= 62:
        raise ValueError("dim must be in 1..62")
    if shells < 1:
        raise ValueError("shells must be positive")
    return shells * 2**dim


def _bin_index(u: np.ndarray, t: np.ndarray, shells: int) -> np.ndarray:
    """Bin of each ball-coordinate row of ``u``: shell * 2^dim + orthant code.

    ``t`` holds each row's ||u||^n; bit j of the orthant code is set iff
    u_j < 0.
    """
    dim = u.shape[1]
    shell = np.minimum((t * shells).astype(int), shells - 1)
    return shell * 2**dim + (u < 0.0) @ (1 << np.arange(dim))


def _batch_points(batch: SampleBatch, e: Ellipsoid) -> Callable:
    """``certify``'s points(i, rows) for a held batch: its rows, once its dim is checked."""
    if batch.dim != e.dim:
        raise DimensionMismatch(f"batch dim {batch.dim} != ellipsoid dim {e.dim}")
    return lambda i, rows: batch.points[rows]


def _pullback_slack(e: Ellipsoid) -> float:
    """How far past 1 rounding can carry the pull-back norm of a point of ``e``'s forward map.

    With unit roundoff u = 2^-53, S the shape, X its cached inverse, c the
    centre and h_i = ||S_i,:||_2 the halfwidths, a point is
    x = fl(fl(S b) + c) for a ball point b, and its pull-back is
    v = fl(X fl(x - c)).  To first order in u:
    - fl(S b) = S b + e with |e_i| <= n u sum_j |S_ij b_j| <= n u h_i, by
      Cauchy-Schwarz, in any summation order;
    - adding c rounds x_i by at most u |x_i| <= u (|c_i| + h_i), and
      subtracting c again by at most u h_i;
    - these errors d reach v through X, and ||X d|| <= sum_j |d_j| ||X_:,j||_2;
    - the product by X rounds entry i by at most n u sum_j |X_ij| h_j,
      a vector whose norm is again at most n u sum_j h_j ||X_:,j||_2;
    - X S = I + R, where an inverse computed by LU has ||R|| of order
      n u kappa, kappa = ||S||_1 ||X||_1 (Higham, "Accuracy and Stability
      of Numerical Algorithms", 2nd ed., ch. 14);
    - b's own norm exceeds 1 by at most (n/2 + 3) u.
    So ||v|| - 1 is at most n u kappa + u sum_j ((2n + 2) h_j + |c_j|) ||X_:,j||_2
    + (n/2 + 3) u.  The tolerance is 2^-52 (n kappa + sum_j ((n + 1) h_j
    + |c_j|) ||X_:,j||_2), which is that with twice the room for R and the
    centre, and never less than PULLBACK_SLACK, which covers the last term
    and keeps a well-scaled ellipsoid at 1e-9.  The unit disc centred at
    (1e12, 1e12), for one, gets 4.4e-4, while its points reach 2e-5.  Where
    the sum overflows, the centre swamps every point and the tolerance is inf.
    """
    n, cols = e.dim, _row_norms(e._inverse_t)
    with np.errstate(over="ignore"):
        spread = ((n + 1) * e._halfwidths + np.abs(e.centre)) @ cols
    return max(PULLBACK_SLACK, 2.0**-52 * (n * e._condition + float(spread)))


def _pull_back_pass(
    e: Ellipsoid, count: int, points: Callable, shells: int | None = None, radii: bool = False
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Pull each of ``count`` points back once and keep what chi-square and KS need of it.

    points(i, rows) gives chunk i's points; the chunks run on the threads
    of ``_chunk_results`` and each is pulled back a PIECE_FLOATS piece at a
    time.  A piece whose largest norm exceeds 1 + ``_pullback_slack(e)``,
    or is NaN, raises PointOutsideEllipsoid before it is kept.  Each point's
    t = ||u||^n is computed once, there.  Returns (observed, t): with
    ``shells`` the integer count of each bin, else None; with ``radii``
    every point's t in one ``count``-long array, else None.  With neither,
    no point is read.

    Up to COUNTED_BINS bins, each chunk task counts its own points' bins,
    piece by piece, and the consumer adds the tasks' counts; integer sums
    do not depend on order.  Past it, a bins-long count per piece costs
    more than the piece's points, so a task returns its points' bin
    indices and the consumer adds them one by one.
    """
    kept, slack = np.empty(count) if radii else None, _pullback_slack(e)
    bins = 0 if shells is None else _bin_total(e.dim, shells)
    dense = bins <= COUNTED_BINS

    def pull(i: int, rows: slice) -> np.ndarray | None:
        chunk = points(i, rows)
        if shells is None:
            binned = None
        else:
            binned = np.zeros(bins, np.int64) if dense else np.empty(len(chunk), np.int64)
        for piece in _pieces(slice(0, len(chunk)), e.dim):
            u = e.pullback(chunk[piece])
            sq = _sq_norms(u)
            worst = math.sqrt(sq.max())
            if not worst <= 1.0 + slack:
                raise PointOutsideEllipsoid(f"pull-back norm {worst!r} exceeds 1 + {slack!r}")
            t = sq ** (e.dim / 2.0)
            if radii:
                kept[rows.start + piece.start : rows.start + piece.stop] = t
            if shells is not None:
                index = _bin_index(u, t, shells)
                if dense:
                    binned += np.bincount(index, minlength=bins)
                else:
                    binned[piece] = index
        return binned

    observed = None if shells is None else np.zeros(bins, np.int64)
    with _chunk_results(count if shells is not None or radii else 0, pull) as pulled:
        for binned in pulled:
            if binned is not None and dense:
                observed += binned
            elif binned is not None:
                np.add.at(observed, binned, 1)
    return observed, kept


def certify(e: Ellipsoid, count: int, points: Callable, tests: list[str], shells: int = 4,
            alpha: float = 0.001, source: Mapping | None = None) -> list[TestReport]:
    """The reports of ``tests`` (names from CHECKS) on ``count`` points of ``e``, in order.

    points(i, rows) gives chunk i's points, as in ``_pull_back_pass``.
    ``shells`` must be at least 1 whatever ``tests`` holds.  Then each
    test's input rule is checked, in the order of ``tests``, before any
    point is read: chi-square needs 1..62 dimensions and
    MIN_EXPECTED_PER_BIN points per bin, KS KS_MIN_SAMPLES points, and both
    a supported ``alpha``, and "identity" the ``source`` spec ``e`` was
    built from; too few points is InsufficientSamples, any other break (an
    unknown test name too) a ValueError.  Then one pass pulls each point
    back once for chi-square and KS.  "identity" reads no point and no
    stream: it is ``proof_identity_check(e, source)``.
    """
    if shells < 1:
        raise ValueError("shells must be positive")
    for name in tests:
        if name == "chi2":
            expected = count / _bin_total(e.dim, shells)
            if expected < MIN_EXPECTED_PER_BIN:
                raise InsufficientSamples(
                    f"{count} samples give {expected:.2f} expected per bin; "
                    f"need at least {MIN_EXPECTED_PER_BIN}"
                )
            _quantile(_Z_UPPER, alpha)
        elif name == "ks":
            if count < KS_MIN_SAMPLES:
                raise InsufficientSamples(f"KS needs at least {KS_MIN_SAMPLES} samples, got {count}")
            _quantile(_KS_SCALE, alpha)
        elif name != "identity":
            raise ValueError(f"tests must be 'chi2', 'ks' or 'identity', got {name!r}")
        elif source is None:
            raise ValueError("identity needs the source spec the ellipsoid was built from")
    observed, t = _pull_back_pass(e, count, points, shells if "chi2" in tests else None, "ks" in tests)

    def report(name: str) -> TestReport:
        if name == "identity":
            return proof_identity_check(e, source)
        return _chi_square_report(observed, count, alpha) if name == "chi2" else _ks_report(t, alpha)

    return [report(name) for name in tests]


def chi_square_uniformity(
    batch: SampleBatch,
    e: Ellipsoid,
    shells: int = 4,
    alpha: float = 0.001,
) -> TestReport:
    """Goodness-of-fit of a batch against the uniform law over ``e``.

    Under uniformity the pulled-back bin counts are multinomial with equal
    cell probabilities, so sum (obs - exp)^2 / exp is chi-square with
    shells * 2^dim - 1 degrees of freedom.
    """
    return certify(e, batch.count, _batch_points(batch, e), ["chi2"], shells, alpha)[0]


def _chi_square_report(observed: np.ndarray, count: int, alpha: float) -> TestReport:
    """``chi_square_uniformity``'s report from the bin counts of ``count`` points."""
    expected = count / len(observed)
    dof = len(observed) - 1
    critical = wilson_hilferty_critical(dof, alpha)
    statistic = float(((observed - expected) ** 2 / expected).sum())
    return TestReport("chi_square_uniformity", statistic, dof, critical, alpha, count)


def chi_square_two_sample(
    batch_a: SampleBatch,
    batch_b: SampleBatch,
    e: Ellipsoid,
    shells: int = 4,
    alpha: float = 0.001,
) -> TestReport:
    """Two-sample chi-square: do two batches share one distribution over ``e``?

    Bin counts a_i, b_i over the pulled-back partition are compared with the
    statistic sum (sqrt(Nb/Na) a_i - sqrt(Na/Nb) b_i)^2 / (a_i + b_i); empty
    bins are skipped and each reduces the degrees of freedom by one.
    """
    counts_a = _pull_back_pass(e, batch_a.count, _batch_points(batch_a, e), shells)[0]
    counts_b = _pull_back_pass(e, batch_b.count, _batch_points(batch_b, e), shells)[0]
    na, nb = batch_a.count, batch_b.count
    occupied = (counts_a + counts_b) > 0
    dof = int(occupied.sum()) - 1
    if dof < 1 or 0 in (na, nb):
        raise InsufficientSamples("each batch needs a point, and the two need two occupied bins")
    scale_a = math.sqrt(nb / na)
    scale_b = math.sqrt(na / nb)
    num = (scale_a * counts_a[occupied] - scale_b * counts_b[occupied]) ** 2
    statistic = float((num / (counts_a[occupied] + counts_b[occupied])).sum())
    critical = wilson_hilferty_critical(dof, alpha)
    return TestReport("chi_square_two_sample", statistic, dof, critical, alpha, na + nb)


def radial_ks(batch: SampleBatch, e: Ellipsoid, alpha: float = 0.001) -> TestReport:
    """One-sample Kolmogorov-Smirnov test of the pulled-back radii.

    Uniformity over the ellipsoid makes t = ||pullback(x)||^n exactly
    Uniform(0, 1); the statistic is the empirical-CDF sup gap D, passed
    against the asymptotic critical value 1.63/sqrt(N) at alpha 0.01 or
    1.95/sqrt(N) at alpha 0.001.
    """
    return certify(e, batch.count, _batch_points(batch, e), ["ks"], alpha=alpha)[0]


def _ks_report(t: np.ndarray, alpha: float) -> TestReport:
    """``radial_ks``'s report from each point's ||u||^n in ``t``, which it sorts in place."""
    scale = _quantile(_KS_SCALE, alpha)
    n = len(t)
    t.sort()

    # The gaps to the empirical CDF i/n, a block at a time, so no O(N) grid is
    # held; on the calling thread, since a pool makes these cheap passes slower.
    def gaps(start: int) -> float:
        block = t[start : start + CHUNK_SIZE]
        grid = np.arange(start + 1, start + len(block) + 1) / n
        return max(float((grid - block).max()), float((block - (grid - 1.0 / n)).max()))

    statistic = max(gaps(start) for start in range(0, n, CHUNK_SIZE))
    critical = scale / math.sqrt(n)
    return TestReport("radial_ks", statistic, None, critical, alpha, n)


def mc_volume(e: Ellipsoid, count: int, rng: RngStream) -> tuple[float, float]:
    """Monte Carlo volume estimate by bounding-box rejection.

    Returns (estimate, stderr): box volume times the acceptance fraction,
    with the standard error from the binomial variance of that fraction.
    Independent of the closed-form determinant route, so the two can be
    cross-checked.
    """
    if count < _MC_MIN_COUNT:
        raise InsufficientSamples(f"need at least {_MC_MIN_COUNT} draws, got {count}")
    if count > MAX_DRAWS:
        raise ValueError(f"at most {MAX_DRAWS} draws are supported, got {count}")
    box_volume = e.box_volume()

    # Chunk i's draws come from the child stream derive(i), read a piece at a
    # time; a stream's uniforms do not depend on how a read is split, so these
    # are the draws of one read of the whole chunk.
    def inside(i: int, rows: slice) -> int:
        stream = rng.derive(i)
        return sum(
            int(e.contains_many(_box_proposals(e, piece.stop - piece.start, stream)).sum())
            for piece in _pieces(rows, e.dim)
        )

    # _MC_CHUNK fixes which draws each child stream makes, so the estimate's bytes.
    with _chunk_results(count, inside, _MC_CHUNK) as hits:
        frac = sum(hits) / count
    estimate = box_volume * frac
    stderr = box_volume * math.sqrt(frac * (1.0 - frac) / count)
    return estimate, stderr


def proof_identity_check(e: Ellipsoid, source: Mapping) -> TestReport:
    """The change-of-variables identities of ``e``, checked against the spec it was built from.

    ``source`` is ``Ellipsoid.from_spec``'s input: the user's own matrix,
    so a slip between it and the built shape (a convention, a transpose)
    fails.  No point and no stream is read.  The n unit vectors go through
    the forward map ``_ball_image``, and c is subtracted, giving rows Y:
    - "shape" S, or "radii" r with "rotation" R (the identity by default,
      so ``--dim`` is all radii 1), for which the constructor builds
      S = R diag(r) exactly: Y = S^T, entry (i, j) relative to the
      halfwidth h_j, so the comparison holds at every scale;
    - "quadratic" M: Y M Y^T = I, relative to the largest entry of
      |Y| |M| |Y^T|, the magnitude its sums carry.
    Then Y + c must pull back to I through ``pullback``, the centre must be
    the given one (the midpoint of "foci"), and the density 1 / volume()
    must be 1 / (V_n |det S|), with S the user's matrix.  For a quadratic,
    S is the built shape: Y M Y^T = I already gives |det S|^2 det M = 1.

    Each residual is divided by ``_pullback_slack(e)``, whose derivation
    (order n kappa u, plus the centre's rounding) bounds the pull-back's,
    each entry of Y's relative to h_j, and the determinant's.  The Gram
    form also sums Y's errors over n rows and counts them twice, so its
    residual is divided by 2n more.  The report passes iff the worst of
    them is < 1; it carries alpha 0.0 and n as its sample count.  A source
    without exactly one of "shape", "quadratic" and "radii" is a ValueError,
    one whose arrays do not fit ``e.dim`` a DimensionMismatch, and a volume
    past float64's normal range raises, as ``volume`` does.
    """
    kinds = [key for key in ("shape", "quadratic", "radii") if key in source]
    if len(kinds) != 1:
        raise ValueError(f"the source needs exactly one of 'shape', 'quadratic', 'radii', got {kinds}")
    n, eye = e.dim, np.eye(e.dim)
    given = {key: np.asarray(value, dtype=float) for key, value in source.items()}
    for key, shape in {"shape": (n, n), "quadratic": (n, n), "radii": (n,), "rotation": (n, n),
                       "centre": (n,), "foci": (2, n)}.items():
        if key in given and given[key].shape != shape:
            raise DimensionMismatch(f"the source's '{key}' has shape {given[key].shape}, expected {shape}")
    volume = e.volume()
    ends = e._ball_image(eye)
    y = ends - e.centre
    if "quadratic" in given:
        m, s = given["quadratic"], e.shape
        mismatch = (y @ m @ y.T - eye) / (np.abs(y) @ np.abs(m) @ np.abs(y.T)).max() / (2 * n)
    else:
        s = given["shape"] if "shape" in given else given.get("rotation", eye) * given["radii"]
        mismatch = (y - s.T) / e._halfwidths
    centre = given["foci"].sum(axis=0) / 2.0 if "foci" in given else given.get("centre", np.zeros(n))
    residuals = [np.abs(mismatch).max(), np.abs(e.pullback(ends) - eye).max(),
                 (np.abs(e.centre - centre) / (np.abs(centre) + e._halfwidths)).max(),
                 abs(unit_ball_volume(n) * abs(np.linalg.det(s)) / volume - 1.0)]
    statistic = float(max(residuals)) / _pullback_slack(e)
    return TestReport("proof_identity", statistic, None, 1.0, 0.0, n)
