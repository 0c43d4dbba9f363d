"""The package exports nothing itself, and the README names real API."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("amr", "classic", "cli", "core", "costs", "workloads")

PROBE = """
import json, sys, types
import listlab
print(json.dumps({
    "modules": sorted(m for m in sys.modules if m.startswith("listlab")),
    "public": sorted(k for k, v in vars(listlab).items()
                     if not k.startswith("_") and not isinstance(v, types.ModuleType)),
}))
"""


def test_import_listlab_loads_no_submodule_and_exports_nothing():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"modules": ["listlab"], "public": []}


# A backticked dotted name that starts with a module of the package, with
# or without a leading `listlab.`, or any name under `listlab.`; an
# optional call suffix, and an optional ` (N)` value after the span.
README_NAME = re.compile(
    r"`((?:listlab\.)?\w+(?:\.\w+)+)(?:\([^`]*\))?`(?:\s+\((\d+)\))?"
)


def test_readme_names_resolve():
    checked = {}
    for match in README_NAME.finditer((ROOT / "README.md").read_text(encoding="utf-8")):
        dotted, value = match.groups()
        if dotted.endswith(".py"):
            continue
        head, *rest = dotted.removeprefix("listlab.").split(".")
        if head not in MODULES and not dotted.startswith("listlab."):
            continue  # another library's name, such as dataclasses.replace
        assert head in MODULES, f"`{dotted}`: listlab has no module {head!r}"
        obj = importlib.import_module(f"listlab.{head}")
        for attr in rest:
            assert hasattr(obj, attr), f"`{dotted}`: no attribute {attr!r}"
            obj = getattr(obj, attr)
        if value is not None:
            assert obj == int(value), f"`{dotted}` is {obj!r}, README says ({value})"
        checked[dotted] = value
    assert checked, "README names no listlab API"
