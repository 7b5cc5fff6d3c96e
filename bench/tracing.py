"""Spans around the package's layers, recorded from outside the package.

While a traced op runs, the public functions of ``verify``, ``fockalg`` and
``spectral`` and the entries of ``cli.FIELD_SAMPLERS`` are replaced by
wrappers at the names through which ``cli`` calls them; the originals are
restored afterwards, so untraced ops and the reference checks run the
unwrapped code.  Calls between the package's own functions that go through
those module attributes (``two_mode_squeeze_direct`` calling
``build_ladder``, say) become child spans.

A span is ``(op, name, start, end, parent, count)``: ``op`` numbers the op,
``parent`` indexes the enclosing span of the same op (None for the op's
root) and ``count`` is a size taken from the returned value where the
per-layer metrics need one.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from dataclasses import dataclass


@dataclass
class Span:
    op: int
    name: str
    start: float
    end: float
    parent: int | None
    count: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _field_points(field) -> int:
    return int(field.values.size)


def _report_points(report) -> int:
    return report.grid.nx * report.grid.ny


def _operator_bytes(op) -> int:
    return int(op.entries.nbytes)


# Sizes recorded from returned values, by span name.
COUNTERS = {
    "closedform.sample_density": _field_points,
    "closedform.sample_bohm": _field_points,
    "closedform.sample_external": _field_points,
    "verify.schrodinger_residual": _report_points,
    "verify.continuity_residual": _report_points,
    "verify.hamilton_jacobi_residual": _report_points,
    "verify.bohm_definition_residual": _report_points,
    "fockalg.two_mode_squeeze_direct": _operator_bytes,
    "fockalg.two_mode_squeeze_factored": _operator_bytes,
}


class Tracer:
    """Records the spans of one op at a time; ``spans`` holds the last op's."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1  # numbers the traced ops of a run from 0

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        record = Span(self._op, name, 0.0, 0.0, self._stack[-1] if self._stack else None)
        self.spans.append(record)
        self._stack.append(index)
        record.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            record.count = counter(result)
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def op(self):
        """Wrap the layers for one op; restore the originals afterwards."""
        from bohm_squeeze import cli, fockalg, spectral, verify

        self.spans = []
        saved = []
        for module in (verify, fockalg, spectral):
            layer = module.__name__.rsplit(".", 1)[1]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(f"{layer}.{attr}", fn))
        samplers = dict(cli.FIELD_SAMPLERS)
        for key, fn in samplers.items():
            cli.FIELD_SAMPLERS[key] = self._wrap(f"closedform.{fn.__name__}", fn)
        self._op += 1
        try:
            yield
        finally:
            cli.FIELD_SAMPLERS.update(samplers)
            for module, attr, fn in saved:
                setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# per-op layer metrics


RESIDUALS = (
    "verify.schrodinger_residual",
    "verify.continuity_residual",
    "verify.hamilton_jacobi_residual",
    "verify.bohm_definition_residual",
)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def op_layers(spans: list[Span]) -> dict:
    """Layer times and counts for the spans of one op.

    ``parent`` fields index into ``spans``.  A layer's time sums its
    outermost spans, so a function that calls another wrapped function of
    the same layer is not counted twice.  ``cli.self_s`` is the time inside
    ``cli.main`` not covered by any layer span.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    def inside(span: Span, predicate) -> bool:
        while span.parent is not None:
            span = spans[span.parent]
            if predicate(span.name):
                return True
        return False

    def outermost(predicate) -> list[Span]:
        return [s for s in spans if predicate(s.name) and not inside(s, predicate)]

    def seconds(predicate) -> float:
        return sum(s.seconds for s in outermost(predicate))

    def count(names) -> int:
        return sum(s.count or 0 for s in spans if s.name in names)

    cli_self = 0.0
    for index, span in enumerate(spans):
        if span.name == "cli.main":
            inner = [(c.start, c.end) for c in children.get(index, [])]
            cli_self += span.seconds - _covered(inner)
    return {
        "cli.self_s": cli_self,
        "closedform.sample_s": seconds(lambda n: n.startswith("closedform.")),
        "closedform.points": count({n for n in COUNTERS if n.startswith("closedform.")}),
        "verify.diagonal_moments_s": seconds(lambda n: n == "verify.diagonal_moments"),
        "verify.residual_grid_s": seconds(lambda n: n == "verify.residual_grid"),
        "verify.residuals_s": seconds(lambda n: n in RESIDUALS),
        "verify.residual_points": count(RESIDUALS),
        "fockalg.direct_s": seconds(lambda n: n == "fockalg.two_mode_squeeze_direct"),
        "fockalg.factored_s": seconds(lambda n: n == "fockalg.two_mode_squeeze_factored"),
        "fockalg.ode_s": seconds(lambda n: n == "fockalg.disentangle_ode_oracle"),
        "fockalg.operator_bytes": count({"fockalg.two_mode_squeeze_direct", "fockalg.two_mode_squeeze_factored"}),
        "spectral.entropy_s": seconds(lambda n: n.startswith("spectral.")),
    }
