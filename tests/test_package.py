"""The package's lazy namespace, checked in fresh interpreters, as the
suite's own process has imported every module already: each load check in
its own, the other checks in one, after a bare import."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
MODULES = ["cascade", "cli", "entanglement", "oracle", "qmath"]
# the 19 public names, by the module that defines them
MODULE_OF = {name: module for module, names in {
    "cascade": ["BranchState", "DecayParams", "ModeLabel", "amplitudes", "dephased_density", "final_state",
                "ghz_state"],
    "entanglement": ["Channel", "EveSplit", "channel_by_id", "conditional_mutual_information",
                     "enumerate_channels", "mutual_information", "negativity", "subset_entropies"],
    "oracle": ["PatternCounts", "Populations", "monte_carlo_patterns", "rate_equation_populations"],
}.items() for name in names}


def fresh(code: str):
    """The JSON value that ``code`` prints in a fresh interpreter that imports from ``src``."""
    run = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n{code}"],
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def loaded_after(statement: str) -> list[str]:
    """The modules that ``statement`` loads in a fresh interpreter, sorted."""
    return fresh(f"before = set(sys.modules)\n{statement}\nloaded = sorted(set(sys.modules) - before)\n"
                 "import json\nprint(json.dumps(loaded))")


def test_bare_import_loads_no_submodule_and_not_numpy():
    assert loaded_after("import qdcascade") == ["qdcascade"]


def test_cli_import_loads_neither_the_oracles_nor_json():
    loaded = loaded_after("import qdcascade.cli")
    assert "qdcascade.cli" in loaded and "numpy" in loaded
    assert "qdcascade.oracle" not in loaded
    assert "json" not in loaded


@pytest.fixture(scope="module")
def after_bare_import():
    """What one fresh interpreter sees after a bare import: ``dir`` first,
    while no module is loaded, then an unknown name, each module through the
    lazy lookup (whether it was loaded before, and its name), in an order in
    which none loads a later one, and the names a star import binds (whether
    each is the object of the module that defines it)."""
    return fresh(f"""
import importlib, json, qdcascade
seen = {{"dir": dir(qdcascade)}}
try:
    qdcascade.no_such_name
except AttributeError as exc:
    seen["unknown"] = str(exc)
seen["modules"] = {{m: ["qdcascade." + m in sys.modules, getattr(qdcascade, m).__name__]
                   for m in ("qmath", "cascade", "oracle", "entanglement", "cli")}}
ns = {{}}
exec("from qdcascade import *", ns)
del ns["__builtins__"]
module_of = {MODULE_OF!r}
seen["star"] = {{name: name in module_of
                       and value is getattr(importlib.import_module("qdcascade." + module_of[name]), name)
                for name, value in ns.items()}}
print(json.dumps(seen))""")


def test_star_import_binds_the_public_names_of_their_modules(after_bare_import):
    assert after_bare_import["star"] == dict.fromkeys(MODULE_OF, True)


@pytest.mark.parametrize("module", MODULES)
def test_modules_resolve_after_a_bare_import(after_bare_import, module):
    assert after_bare_import["modules"][module] == [False, f"qdcascade.{module}"]


def test_dir_lists_the_names_not_yet_loaded(after_bare_import):
    assert {*MODULE_OF, *MODULES} <= set(after_bare_import["dir"])


def test_an_unknown_name_raises_attribute_error(after_bare_import):
    assert after_bare_import["unknown"] == "module 'qdcascade' has no attribute 'no_such_name'"
