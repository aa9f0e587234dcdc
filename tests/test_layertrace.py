"""The traced benchmark run patches package functions by module and name.

``perfbench/layertrace.py`` looks up every entry of its ``WRAPPED`` table
when ``--trace 1`` installs it, so a renamed or deleted function would
only show there.  This loads the tracer by path and installs it against
the package, so such a change fails here too.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_every_wrapped_function():
    layertrace = load_layertrace()
    originals = {
        (mod, func): getattr(importlib.import_module(f"slsolve.{mod}"), func)
        for mod, func, _name, _hook in layertrace.WRAPPED
    }
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        for (mod, func), original in originals.items():
            wrapped = getattr(importlib.import_module(f"slsolve.{mod}"), func)
            assert wrapped is not original, f"{mod}.{func} was not wrapped"
    finally:
        tracer.uninstall()
    for (mod, func), original in originals.items():
        assert getattr(importlib.import_module(f"slsolve.{mod}"), func) is original
