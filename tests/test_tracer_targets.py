"""Every function the benchmark's tracer wraps must exist in trmod.

`perfbench/tracer.py` patches each `(module, attribute path)` of its
TARGETS list, reading the function from `owner.__dict__`; a renamed or
deleted function makes `perfbench/run.py --trace 1` fail.  This test
loads TARGETS from that file without changing anything there.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_tracer_target_resolves():
    targets = _targets()
    assert targets
    for name, modname, path in targets:
        owner = importlib.import_module(modname)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        assert attr in owner.__dict__, f"{name}: {modname}.{path} is gone"
        assert callable(owner.__dict__[attr]), f"{name}: {modname}.{path}"
