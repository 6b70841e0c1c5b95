"""In-process span tracing of the ellipsample layers, from outside the package.

Timing wrappers replace the public functions where each layer is entered;
each call records a span (name, start, end, parent) in memory.  Wrappers are
installed only for the duration of one traced ``cli.main`` call and every
original is restored afterwards, so untraced runs execute unmodified code.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# Functions the CLI calls by module-global name, keyed to their span names.
CLI_ENTRY_POINTS = {
    "resolve_ellipsoid": "cli.resolve",
    "parse_matrix_text": "linalg.parse_matrix_text",
    "sample_batch": "sampling.sample_batch",
    "chi_square_uniformity": "validation.chi2",
    "radial_ks": "validation.ks",
    "proof_identity_check": "validation.identity",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval covered by its children."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span per call; ``count(counts, args, result)`` runs after it."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, time.perf_counter(), math.nan, parent))
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index].end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced


def _count_pullback(counts, args, result):
    points = args[1].shape[0]
    counts["geometry.pullback_calls"] += 1
    counts["geometry.pullback_points"] += points
    # float64 points read plus ball coordinates written
    counts["geometry.pullback_mb_computed"] += 2 * result.size * 8 / 1e6


def _count_report(counts, args, result):
    counts["validation.reports"] += 1
    counts["validation.passed"] += bool(result.passed)


@contextmanager
def installed(tracer: Tracer, cli, geometry, linalg, sampling):
    """Patch the layer entry points with ``tracer``'s wrappers; restore on exit."""

    def count_batch(counts, args, result):
        n, dim = result.points.shape
        counts["sampling.points"] += n
        counts["sampling.chunks"] += math.ceil(n / sampling.CHUNK_SIZE)
        counts["sampling.out_mb_computed"] += n * dim * 8 / 1e6

    counters = {
        "sampling.sample_batch": count_batch,
        "validation.chi2": _count_report,
        "validation.ks": _count_report,
        "validation.identity": _count_report,
    }
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    try:
        for attr, name in CLI_ENTRY_POINTS.items():
            patch(cli, attr, tracer.wrap(name, getattr(cli, attr), counters.get(name)))
        patch(linalg, "cholesky", tracer.wrap("linalg.cholesky", linalg.cholesky))
        cls = geometry.Ellipsoid
        for attr, member in list(vars(cls).items()):
            if attr.startswith("from_") and isinstance(member, classmethod):
                patch(cls, attr, classmethod(tracer.wrap(f"geometry.{attr}", member.__func__)))
        patch(cls, "pullback", tracer.wrap("geometry.pullback", cls.pullback, _count_pullback))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, bytes_out: int) -> dict[str, float]:
    """Per-layer metrics of one traced run; layer times are summed self times."""
    own = self_times(tracer.spans)
    by_name: dict[str, float] = defaultdict(float)
    for s, t in zip(tracer.spans, own):
        by_name[s.name] += t

    def total(prefix: str) -> float:
        return sum(t for name, t in by_name.items() if name.startswith(prefix))

    c = tracer.counts
    cli_self = by_name["cli.main"]
    reports = c["validation.reports"]
    return {
        "cli.self_s": cli_self,
        "cli.resolve.self_s": by_name["cli.resolve"],
        "cli.bytes_out": float(bytes_out),
        "cli.render_mb_per_s": bytes_out / 1e6 / cli_self if cli_self > 0 else 0.0,
        "linalg.busy_s": total("linalg."),
        "geometry.construct_s": total("geometry.from_"),
        "geometry.pullback_s": by_name["geometry.pullback"],
        "geometry.pullback_calls": c["geometry.pullback_calls"],
        "geometry.pullback_points": c["geometry.pullback_points"],
        "geometry.pullback_mb_computed": c["geometry.pullback_mb_computed"],
        "sampling.busy_s": total("sampling."),
        "sampling.points": c["sampling.points"],
        "sampling.chunks": c["sampling.chunks"],
        "sampling.out_mb_computed": c["sampling.out_mb_computed"],
        "validation.chi2.self_s": by_name["validation.chi2"],
        "validation.ks.self_s": by_name["validation.ks"],
        "validation.identity.self_s": by_name["validation.identity"],
        "validation.reports": reports,
        # No report means none failed.
        "validation.pass_ratio": c["validation.passed"] / reports if reports else 1.0,
    }
