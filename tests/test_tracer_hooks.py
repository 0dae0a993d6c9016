"""The benchmark's tracer still finds what it patches in the library.

bench/tracing.py looks functions and methods up by name: a function in
SPANNED, a class in MOMENT_CLASSES with a `moment` of its own, and
LocalDistributionCollection.joint.  Entering `Tracer().installed()` raises as
soon as a refactor removes one of them; this test enters and leaves it.
"""

import importlib.util
import sys
from pathlib import Path

from ugjohnson import johnson, potentials, rounding, sdp, sos, ug_core

MODULES = {"johnson": johnson, "ug_core": ug_core, "sos": sos, "sdp": sdp,
           "potentials": potentials, "rounding": rounding}


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_the_library_and_undoes_it():
    tracing = _load_tracing()
    spanned = {(mod, fn): getattr(MODULES[mod], fn) for mod, fn in tracing.SPANNED}
    counted = [getattr(sos, name) for name in tracing.MOMENT_CLASSES]
    moments = [cls.__dict__["moment"] for cls in counted]
    joint = potentials.LocalDistributionCollection.__dict__["joint"]
    with tracing.Tracer().installed():
        for (mod, fn), orig in spanned.items():
            assert getattr(MODULES[mod], fn) is not orig, f"{mod}.{fn}"
        assert all(cls.__dict__["moment"] is not m for cls, m in zip(counted, moments))
        assert potentials.LocalDistributionCollection.__dict__["joint"] is not joint
    assert {key: getattr(MODULES[key[0]], key[1]) for key in spanned} == spanned
    assert [cls.__dict__["moment"] for cls in counted] == moments
    assert potentials.LocalDistributionCollection.__dict__["joint"] is joint
