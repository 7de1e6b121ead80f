"""The benchmark tracer patches functions by name; each name it lists must
still exist in the library, or every traced benchmark run fails."""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(layer, fn) for layer, fns in tracer.LAYERS.items() for fn in fns]


@pytest.mark.parametrize("layer, fn", _layers())
def test_traced_name_resolves_to_a_library_callable(layer, fn):
    module = importlib.import_module(f"dirinfo.{layer}")
    assert callable(getattr(module, fn, None)), f"dirinfo.{layer}.{fn}"
