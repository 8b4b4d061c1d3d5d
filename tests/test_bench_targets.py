"""Names the benchmark tracer binds must exist in the package.

`bench/tracing.py` wraps each `SPAN_TARGETS` function and the
`AdaptedValue` constructor by name, and reads `.values` off the first
argument of `condexp`.  Renaming or retyping any of them would crash
`bench/run.py --trace 1` without failing a test; these checks make it
fail here instead.  The tracer module is loaded by path and not changed.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "module_name, attr",
    sorted({(m, a) for _, m, a in tracing.SPAN_TARGETS}),
    ids=lambda v: v,
)
def test_span_target_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def test_condexp_returns_table_with_values():
    from fgncontrol.lattice import AdaptedValue, condexp, lattice_for_hurst, noise_value

    lat = lattice_for_hurst(0.7, depth=2, order=3)
    xi = noise_value(lat, 1)
    assert isinstance(xi, AdaptedValue) and xi.values.size == 9
    assert condexp(xi, 1).values.size == 3


def test_tracer_installs_and_counts():
    # the tracer patches the loaded modules, so look names up after install
    import fgncontrol.lattice as lattice

    tracer = tracing.Tracer()
    tracer.install()
    try:
        lat = lattice.lattice_for_hurst(0.7, depth=2, order=3)
        lattice.condexp(lat.constant(1.0, 2), 0)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["calls"]["lattice.condexp"] == 1
    assert tracer.quantities["lattice.condexp.bytes"] == 8 * 9
    assert tracer.adapted_values_created >= 2
