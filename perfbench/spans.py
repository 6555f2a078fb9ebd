"""In-memory span tracing around the package's layer boundaries.

The tracer swaps module attributes for timing wrappers, so every call that
goes through the attribute, as its callers look it up, opens a span. Spans
live in memory and are written out once, when the benchmark ends. Nothing
inside the package is edited: a span covers the whole call of one public
function, and a layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import time
import tracemalloc
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op_id: int | None = None
    error: bool = False
    extra: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; one operation's spans share its ``op_id``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self._op_id: int | None = None

    @contextlib.contextmanager
    def span(self, name: str, **extra):
        parent = self._stack[-1].span_id if self._stack else None
        if parent is None:
            self._op_id = len(self.spans)
        s = Span(len(self.spans), name, 0.0, parent=parent, op_id=self._op_id,
                 extra=dict(extra))
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        except BaseException:
            s.error = True
            raise
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, after=None, before=None):
        """``fn`` inside a span; ``after(span, args, result)`` adds readings."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before()
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if after is not None:
                after(s, args, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Replace ``module.attr`` by a traced wrapper for each target."""
        for module, attr, name, before, after in targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, after, before))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def package_targets(tandemqbd, throughput, cli):
    """The layer boundaries of the package, as their callers look them up.

    ``lambda_max`` finds the analytic stages in ``tandemqbd.throughput``; the
    CLI finds ``lambda_max`` and ``simulate_saturated`` in ``tandemqbd.cli``;
    the benchmark itself calls ``cli.main`` and the package-level
    ``simulate_with_arrivals``. ``tracemalloc`` runs from the start of the
    densify span to the end of the solve span and records their joint peak.
    """

    def count_phases(span, args, space):
        span.extra["phases"] = space.num_phases

    def count_nnz(span, args, blocks):
        span.extra["nnz"] = int(blocks.level_same.nnz + blocks.level_down.nnz)

    def start_alloc():
        tracemalloc.stop()  # drop a reading left open by a failed solve
        tracemalloc.start()

    def solve_readings(span, args, stat):
        span.extra["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        generator = args[0]
        scale = float(max(generator.max(), -generator.min()))
        span.extra["residual_rel"] = stat.residual / scale if scale > 0 else 0.0

    return [
        (throughput, "enumerate_phases", "phases.enumerate", None, count_phases),
        (throughput, "build_blocks", "generator.build", None, count_nnz),
        (throughput, "phase_generator", "stationary.densify", start_alloc, None),
        (throughput, "solve_stationary", "stationary.solve", None, solve_readings),
        (cli, "lambda_max", "throughput.lambda_max", None, None),
        (cli, "simulate_saturated", "simulate.saturated", None, None),
        (cli, "main", "cli.main", None, None),
        (tandemqbd, "simulate_with_arrivals", "simulate.arrivals", None, None),
    ]
