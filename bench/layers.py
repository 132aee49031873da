"""Per-layer tracing and the kernel micro-table for the traced benchmark run.

The tracer wraps public functions and methods of the ``mahlerq`` modules
from the outside while it is installed, so no file under ``src/`` knows
about it.  Spans are aggregated in memory per name: call count, inclusive
seconds, self seconds (inclusive minus the time of directly nested spans)
and the longest single call.  Leaving :meth:`Tracer.installed` restores
every patched attribute, so an untraced pass in the same process runs the
original code.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

SERIES_OPS = ("compose", "revert", "invert", "exp", "log", "pow", "lagrange")
MICRO_OPS = ("mul", "invert", "exp", "log", "compose", "revert")
MICRO_ORDERS = (20, 40, 80)
MICRO_MODEL = (3, 3, 3)


class Tracer:
    """In-memory span and counter aggregation for one traced pass."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s, longest_s]
        self.counts: Counter = Counter()
        self.max_coeff_bits = 0
        self._open: list[float] = []  # seconds of child spans, one slot per open span

    # -- wrappers -------------------------------------------------------

    def span(self, name, fn, note_bits=False):
        """Wrap ``fn`` so that each call is recorded as a span called ``name``."""
        open_spans = self._open
        clock = time.perf_counter
        rec = self.spans.setdefault(name, [0, 0.0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += seconds
                rec[0] += 1
                rec[1] += seconds
                rec[2] += seconds - children
                if seconds > rec[3]:
                    rec[3] = seconds
            if note_bits:
                self._note_bits(result)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap ``fn`` so that its calls are counted without a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def series_mul(self, series_cls, mul):
        """Span only series-by-series products; scalar products stay in the caller."""
        timed = self.span("series.mul", mul)

        @functools.wraps(mul)
        def wrapper(a, b):
            if not isinstance(b, series_cls):
                return mul(a, b)
            n = min(a.order, b.order)
            self.counts["series.mul.coeff_products"] += (n + 1) * (n + 2) // 2
            return timed(a, b)

        return wrapper

    def _note_bits(self, result):
        coeffs = getattr(result, "coeffs", result)
        bits = max(
            (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs),
            default=0,
        )
        if bits > self.max_coeff_bits:
            self.max_coeff_bits = bits

    # -- installation ---------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch the layer boundaries of the loaded mahlerq modules."""
        import mahlerq.cli as cli
        import mahlerq.inversion as inversion
        import mahlerq.mirror as mirror
        import mahlerq.series as series
        import mahlerq.weights as weights

        undo = []

        def rebind(fn, wrapper):
            # A function imported by name lives in several module namespaces.
            for name, module in list(sys.modules.items()):
                if name != "mahlerq" and not name.startswith("mahlerq."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        undo.append(functools.partial(setattr, module, attr, value))
                        setattr(module, attr, wrapper)

        def method(cls, attr, make):
            old = cls.__dict__[attr]
            undo.append(functools.partial(setattr, cls, attr, old))
            setattr(cls, attr, make(old))

        Series = series.Series
        try:
            method(Series, "__mul__", lambda old: self.series_mul(Series, old))
            for op, attr in (
                ("compose", "compose"),
                ("revert", "revert"),
                ("invert", "invert"),
                ("exp", "exp"),
                ("log", "log"),
                ("pow", "__pow__"),
            ):
                method(Series, attr, functools.partial(self.span, f"series.{op}", note_bits=True))
            rebind(
                series.lagrange_coeffs,
                self.span("series.lagrange", series.lagrange_coeffs, note_bits=True),
            )

            for fn in (
                inversion.product_check,
                inversion.u_series,
                inversion.v_series,
                inversion.g0_expansions,
                inversion.lambert_invert,
            ):
                rebind(fn, self.span(f"inversion.{fn.__name__}", fn))
            rebind(
                inversion.integrality_report,
                self.span("inversion.report", inversion.integrality_report),
            )

            rebind(mirror.alpha, self.counter("mirror.alpha", mirror.alpha))
            for fn in (mirror.g0_series, mirror.h_series, mirror.f_series):
                rebind(fn, self.span("mirror.periods", fn))
            for fn in (mirror.local_mirror_map, mirror.mirror_map):
                rebind(fn, self.span("mirror.maps", fn))
            method(
                mirror.MirrorData,
                "build",
                lambda old: classmethod(self.span("mirror.build", old.__func__)),
            )
            rebind(mirror.mahler_measure, self.span("mirror.measure", mirror.mahler_measure))

            rebind(
                weights.enumerate_solutions,
                self.span("weights.enumerate", weights.enumerate_solutions),
            )
            rebind(cli._batch_compute, self.span("cli.batch_compute", cli._batch_compute))
            rebind(cli.report_json_text, self.span("cli.render", cli.report_json_text))
            rebind(cli.write_atomic, self.span("cli.write_atomic", cli.write_atomic))
            # main() dispatches through this table, not the module attribute.
            batch = cli._HANDLERS["batch"]
            undo.append(functools.partial(cli._HANDLERS.__setitem__, "batch", batch))
            cli._HANDLERS["batch"] = self.span("cli.batch", batch)
            yield self
        finally:
            for restore in reversed(undo):
                restore()

    # -- results --------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        empty = [0, 0.0, 0.0, 0.0]

        def calls(name):
            return self.spans.get(name, empty)[0]

        def total(name):
            return self.spans.get(name, empty)[1]

        def own(name):
            return self.spans.get(name, empty)[2]

        out = {
            "series.mul.calls": (calls("series.mul"), "count"),
            "series.mul.coeff_products": (self.counts["series.mul.coeff_products"], "count"),
            "series.mul.self_s": (own("series.mul"), "s"),
        }
        for op in SERIES_OPS:
            out[f"series.{op}.calls"] = (calls(f"series.{op}"), "count")
            out[f"series.{op}.self_s"] = (own(f"series.{op}"), "s")
        out["series.max_coeff_bits"] = (self.max_coeff_bits, "bits")

        out["inversion.product_check.calls"] = (calls("inversion.product_check"), "count")
        out["inversion.product_check.s"] = (total("inversion.product_check"), "s")
        for name in ("u_series", "v_series", "g0_expansions", "lambert_invert"):
            out[f"inversion.{name}.s"] = (total(f"inversion.{name}"), "s")
        # The report's Lagrange cross-check is its two lagrange_coeffs calls.
        out["inversion.lagrange_check.s"] = (total("series.lagrange"), "s")
        out["inversion.report.self_s"] = (own("inversion.report"), "s")

        out["mirror.alpha.calls"] = (self.counts["mirror.alpha"], "count")
        out["mirror.periods.self_s"] = (own("mirror.periods"), "s")
        out["mirror.maps.self_s"] = (own("mirror.maps"), "s")
        out["mirror.build.s"] = (total("mirror.build"), "s")
        out["mirror.measure.s"] = (total("mirror.measure"), "s")

        out["weights.enumerate.s"] = (total("weights.enumerate"), "s")
        out["cli.batch_compute.s"] = (total("cli.batch_compute"), "s")
        out["cli.batch_compute.max_s"] = (self.spans.get("cli.batch_compute", empty)[3], "s")
        out["cli.render.s"] = (total("cli.render"), "s")
        out["cli.write_atomic.calls"] = (calls("cli.write_atomic"), "count")
        out["cli.write_atomic.s"] = (total("cli.write_atomic"), "s")
        out["cli.batch.self_s"] = (own("cli.batch"), "s")
        return out


def _median_seconds(fn):
    """Median wall time of ``fn`` and its last result; fewer repeats for slow calls."""
    start = time.perf_counter()
    result = fn()
    times = [time.perf_counter() - start]
    repeats = 1 if times[0] >= 1.0 else 3 if times[0] >= 0.1 else 5
    for _ in range(repeats - 1):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def micro_table() -> dict[str, tuple[float, str]]:
    """Untraced kernel timings on fixed (3,3,3) inputs, as series.<op>.o<N>.s.

    At order N: ``Q`` and ``q`` are the local and mirror maps, ``zq`` the
    reversion of ``q``, and ``unit`` = Q/z (constant term 1, built one
    order deeper so that it also has order N).  ``mul`` is Q*q, ``invert``
    and ``log`` act on ``unit``, ``exp`` on log(unit), ``compose`` is
    Q(zq) and ``revert`` reverts ``q``.
    """
    from mahlerq.mirror import local_mirror_map, mirror_map
    from mahlerq.weights import Model

    model = Model.from_kvector(MICRO_MODEL)
    out = {}
    for n in MICRO_ORDERS:
        deeper = local_mirror_map(model, n + 1)
        unit = deeper.shift_down(1)
        Q = deeper.truncate(n)
        q = mirror_map(model, n)
        log_unit = unit.log()
        seconds = {}
        seconds["revert"], zq = _median_seconds(q.revert)
        seconds["mul"], _ = _median_seconds(lambda: Q * q)
        seconds["invert"], _ = _median_seconds(unit.invert)
        seconds["exp"], _ = _median_seconds(log_unit.exp)
        seconds["log"], _ = _median_seconds(unit.log)
        seconds["compose"], _ = _median_seconds(lambda: Q.compose(zq))
        for op in MICRO_OPS:
            out[f"series.{op}.o{n}.s"] = (seconds[op], "s")
    return out
