"""The benchmark's tracer still finds every library name it wraps.

`perfbench/tracing.py` looks each function up by name in the module that
calls it (``getattr(cli, "structured_prune")``), so a refactor that drops an
import a module no longer calls kills every traced benchmark run.  This
checks that in-process, without running a workload.
"""

import importlib.util
import os

from sstc import bitpack, cli, datasets, kernel, store, training

_TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracing.py")


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_sstc_name():
    modules = (bitpack, cli, datasets, kernel, store, training, kernel.CompressedFCLayer,
               training.Layer)
    before = [dict(vars(m)) for m in modules]
    tracer = _tracing_module().Tracer()
    try:
        tracer.patch_sstc({})
        assert tracer._patches
        for owner, attr, original in tracer._patches:
            assert getattr(owner, attr) is not original, f"{attr} was not wrapped"
    finally:
        tracer.unpatch()
    assert [dict(vars(m)) for m in modules] == before
