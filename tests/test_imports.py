"""The package's import structure: each module imports on its own and loads
no scipy, which the package uses only as a test oracle."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dwimoco

MODULES = (
    "_kernels",
    "volume",
    "signal_model",
    "maturity",
    "objective",
    "registration",
    "phantom",
    "pipeline",
    "io",
    "cli",
)

# imports each module in turn after dropping every dwimoco module from
# sys.modules, as a fresh interpreter would meet it; prints, per module, the
# import error or null and whether scipy is loaded
_PROBE = """
import importlib, json, sys
report = {}
for name in sys.argv[1:]:
    for key in [k for k in sys.modules if k.split(".")[0] == "dwimoco"]:
        del sys.modules[key]
    try:
        importlib.import_module("dwimoco." + name)
        error = None
    except Exception as err:
        error = repr(err)
    report[name] = {"error": error, "scipy": "scipy" in sys.modules}
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def import_report():
    env = dict(os.environ, PYTHONPATH=str(Path(dwimoco.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", _PROBE, *MODULES],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_on_its_own(import_report, name):
    assert import_report[name]["error"] is None


@pytest.mark.parametrize("name", MODULES)
def test_module_loads_no_scipy(import_report, name):
    assert not import_report[name]["scipy"]
