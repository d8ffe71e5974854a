"""The package depends only on the standard library."""

import json
import os
import subprocess
import sys
from pathlib import Path

import grothpoly

_PROBE = """
import json, sys
before = set(sys.modules)
import grothpoly
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_loads_only_standard_library_modules():
    # a fresh interpreter, so nothing the test run imported is counted
    env = dict(os.environ, PYTHONPATH=str(Path(grothpoly.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = json.loads(out)
    assert "grothpoly" in loaded
    foreign = [
        name
        for name in loaded
        if name.partition(".")[0] not in sys.stdlib_module_names | {"grothpoly"}
    ]
    assert foreign == []
