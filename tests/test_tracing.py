"""The benchmark's tracer wraps gazedet functions by name from outside.

A gazedet function that a refactor deletes or renames would crash every
`perfbench/run.py --trace 1` run; this test fails first. It also checks
that `uninstall` puts every wrapped function back.
"""

import importlib.util
import os
import sys

import gazedet.autodiff as ad
import gazedet.boxes  # noqa: F401  (loaded so the tracer finds its bindings)
import gazedet.detector as dt
import gazedet.trainer  # noqa: F401

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")
PATCHED_METHODS = ((ad.Tensor, "backward"), (dt.DetectorModel, "fuse"),
                   (dt.DetectorModel, "forward"))


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings() -> dict:
    """Every module-level binding of the loaded gazedet modules, and the
    methods the tracer patches."""
    out = {(name, attr): value for name, mod in sys.modules.items()
           if name.startswith("gazedet") and mod is not None
           for attr, value in vars(mod).items()}
    out.update({(cls.__name__, attr): vars(cls)[attr] for cls, attr in PATCHED_METHODS})
    return out


def test_every_traced_name_exists_and_is_restored():
    tracing = load_tracing()
    traced = [(f"gazedet.{mod}", fn) for mod, fn in tracing.PLAIN]
    traced += [("gazedet.autodiff", op) for op in tracing.AUTODIFF_OPS]
    traced.append(("gazedet.detector", "roi_align"))
    assert [f"{mod}.{fn}" for mod, fn in traced if not hasattr(sys.modules[mod], fn)] == []

    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod, fn in traced:
            wrapped = getattr(sys.modules[mod], fn)
            assert wrapped.__wrapped__ is before[(mod, fn)], f"{mod}.{fn} is not wrapped"
        for cls, attr in PATCHED_METHODS:
            assert vars(cls)[attr].__wrapped__ is before[(cls.__name__, attr)]
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
