"""The import boundary: ``import setfix`` loads only the set layer.

The analysis modules (certify, iteration, stability, scenario) load on the
first access to one of their names.  Checks that depend on what is loaded run
in a fresh interpreter, since earlier tests have loaded every module here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import setfix

SET_LAYER = ["setfix", "setfix.errors", "setfix.intervals", "setfix.operators"]
ANALYSIS = ("iteration", "certify", "stability", "scenario")  # each imports only earlier ones


def _fresh(code: str):
    """Run code in a fresh interpreter that imports this setfix; returns the
    JSON value it prints."""
    src = str(Path(setfix.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    prelude = "import json, sys\nimport setfix\n"
    out = subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(code)], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_import_loads_only_the_set_layer():
    loaded = _fresh("""
        dir(setfix), setfix.__all__, setfix.normalize, setfix.perturb
        print(json.dumps(sorted(n for n in sys.modules if n.split(".")[0] == "setfix")))
    """)
    assert loaded == SET_LAYER


def test_every_public_name_is_its_modules_current_binding():
    report = _fresh("""
        listed = set(dir(setfix))
        bad = []
        for name in setfix.__all__:
            value = getattr(setfix, name)
            owners = [m for n, m in sys.modules.items()
                      if n.startswith("setfix.") and name in vars(m)]
            if name not in listed or not owners or any(vars(m)[name] is not value for m in owners):
                bad.append(name)
        print(json.dumps([bad, len(setfix.__all__) - len(set(setfix.__all__))]))
    """)
    assert report == [[], 0]


def test_star_import_binds_every_public_name():
    bound, listed = _fresh("""
        ns = {}
        exec("from setfix import *", ns)
        print(json.dumps([sorted(set(ns) - {"__builtins__"}), sorted(setfix.__all__)]))
    """)
    assert bound == listed
    assert {"normalize", "certify_contraction", "picard_orbit", "run_scenario",
            "ulam_hyers_verify"} <= set(bound)


def test_analysis_modules_load_on_first_access():
    steps = _fresh(f"""
        steps = []
        for name in {ANALYSIS!r}:
            before = f"setfix.{{name}}" in sys.modules
            steps.append([name, before, getattr(setfix, name) is sys.modules[f"setfix.{{name}}"]])
        print(json.dumps(steps))
    """)
    assert steps == [[name, False, True] for name in ANALYSIS]


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        setfix.no_such_name


def test_lazy_name_follows_a_patched_module_binding(monkeypatch):
    def stand_in(*args, **kwargs):
        raise AssertionError("not called")

    original = setfix.scenario.run_scenario
    monkeypatch.setattr(setfix.scenario, "run_scenario", stand_in)
    assert setfix.run_scenario is stand_in
    monkeypatch.undo()
    assert setfix.run_scenario is original
    assert "run_scenario" not in vars(setfix)


def test_certify_subcommand_loads_no_scenario_or_stability_code():
    status, loaded = _fresh("""
        import os
        from setfix import cli
        status = cli.main(["certify", "sqrt_example", "--grid", "51", "--out", os.devnull])
        print(json.dumps([status, sorted(n for n in sys.modules
                                         if n in ("setfix.scenario", "setfix.stability"))]))
    """)
    assert (status, loaded) == (0, [])


def test_no_setfix_class_is_a_dataclass():
    # dataclass compiles each class's methods from generated source, which cost
    # about a quarter of the scenario path's import; setfix's values are records
    loaded, scanned, dataclasses = _fresh("""
        import importlib, pkgutil
        for info in pkgutil.iter_modules(setfix.__path__):
            importlib.import_module(f"setfix.{info.name}")
        modules = sorted(n for n in sys.modules if n.split(".")[0] == "setfix")
        classes = [c for n in modules for c in vars(sys.modules[n]).values()
                   if isinstance(c, type) and c.__module__ == n]
        print(json.dumps([modules, len(classes), [
            c.__qualname__ for c in classes if hasattr(c, "__dataclass_fields__")]]))
    """)
    assert loaded == sorted(SET_LAYER + [f"setfix.{m}" for m in (*ANALYSIS, "cli")])
    assert scanned >= 18  # the value classes at least
    assert dataclasses == []
