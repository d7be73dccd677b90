"""The benchmark's tracer wraps garlands functions and methods by name.

Loading perfbench/tracer.py and installing it here means a rename of any
traced name fails the suite instead of the traced benchmark run, and checks
that uninstalling restores every original binding.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import garlands.cache  # noqa: F401  (the tracer looks modules up in sys.modules)
import garlands.cli  # noqa: F401
import garlands.runner  # noqa: F401

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings() -> dict:
    """Every attribute of every garlands module and class, by identity."""
    out = {}
    for mname, mod in list(sys.modules.items()):
        if mname != "garlands" and not mname.startswith("garlands."):
            continue
        for key, val in vars(mod).items():
            out[(mname, key)] = val
            if inspect.isclass(val) and val.__module__ == mname:
                for attr, member in vars(val).items():
                    out[(mname, key, attr)] = member
    return out


def test_tracer_installs_and_restores():
    tracer_mod = _load_tracer()
    before = _bindings()
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()  # KeyError / AttributeError when a traced name is gone
        for name, (modname, attr, _info) in tracer_mod._FUNCTIONS.items():
            assert hasattr(getattr(sys.modules[modname], attr), "__wrapped__"), name
        for name, (modname, clsname, attr, _info) in tracer_mod._METHODS.items():
            cls = getattr(sys.modules[modname], clsname)
            assert hasattr(cls.__dict__[attr], "__wrapped__"), name
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_the_traced_mats_call_builds_the_ambient():
    # matrix_group.enumerate.ms is the own time of the traced
    # AmbientGroup.mats(): the constructor builds nothing, and the first
    # mats() call builds the whole ambient, inverse table included, so an
    # eager constructor would fail here instead of zeroing that metric
    from garlands.finite_field import construct_field
    from garlands.matrix_group import GL, AmbientGroup

    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        amb = AmbientGroup(GL, 3, construct_field(2, 1))  # a fresh object, not the shared ambient
        assert amb._keys is None and amb._inv is None
        amb.mats()
    finally:
        tracer.uninstall()
    assert tracer.layer_metrics(cases=1, pell_ds=0)["matrix_group.enumerate.ms"] > 0
    assert amb._inv is not None and amb._inv.size == amb.order
