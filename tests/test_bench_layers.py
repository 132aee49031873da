"""The traced benchmark wraps mahlerq functions by name; keep those names alive.

``bench/layers.py`` patches public functions, methods and the ``batch``
handler of the mahlerq modules while its tracer is installed, and its kernel
micro-table calls the map builders and ``Series.revert``.  A function it
names that no longer exists fails here, in tier-1, instead of in a
benchmark run.  The module is imported from its file, unchanged.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_pass_reaches_every_wrapped_layer():
    import mahlerq.cli as cli
    import mahlerq.inversion as inversion
    import mahlerq.mirror as mirror
    from mahlerq import Model

    original = inversion.integrality_report
    tracer = load_layers().Tracer()
    with tracer.installed():
        inversion.integrality_report(Model.from_kvector((3, 3, 3)), 4)
        mirror.mahler_measure(Model.from_kvector((2, 2)), 2, 16)
        cli._batch_compute(Model.from_kvector((2, 3, 6)), 3)
    assert inversion.integrality_report is original

    calls = {name: rec[0] for name, rec in tracer.spans.items()}
    assert calls["inversion.report"] == 2
    assert calls["mirror.measure"] == 1
    assert calls["cli.batch_compute"] == 1
    # u_series, v_series and g0_expansions stay wrapped but are not reached:
    # the report runs its two sides without calling them.  Nor is
    # series.revert: each side reverts its map by Lagrange inversion.  Nor
    # is series.compose: each side composes from one table of powers, the
    # private routine that Series.compose calls with one outer.
    for name in ("series.lagrange",
                 "inversion.product_check", "inversion.lambert_invert",
                 "mirror.build", "mirror.periods", "cli.render"):
        assert calls[name] > 0, name
    assert tracer.max_coeff_bits > 0
    metrics = tracer.metrics()
    assert metrics["cli.batch_compute.s"][0] > 0


def test_micro_table_times_every_kernel_op():
    # The benchmark's kernel micro-table: (3,3,3) maps from local_mirror_map
    # and mirror_map, each op at orders 20, 40 and 80, Series.revert among them.
    layers = load_layers()
    table = layers.micro_table()
    assert set(table) == {f"series.{op}.o{n}.s"
                          for op in layers.MICRO_OPS for n in layers.MICRO_ORDERS}
    assert len(table) == 18
    assert all(unit == "s" and seconds > 0 for seconds, unit in table.values())
