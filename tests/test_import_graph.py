"""The library and its CLI run on numpy alone.

scipy and networkx serve only test oracles.  A fresh interpreter that
imports the package, the CLI and the server, then discovers and queries
the paper's table, must load neither.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys

def optional():
    return sorted(
        name for name in sys.modules
        if name.split(".")[0] in ("scipy", "networkx")
    )

import repro, repro.cli, repro.serve
after_import = optional()

from repro.cli import main
assert main(["discover"]) == 0
assert main(["query", "CANCER=yes | SMOKING=smoker"]) == 0
print(json.dumps({"after_import": after_import, "after_run": optional()}))
"""


def test_import_and_paper_run_load_neither_scipy_nor_networkx():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    loaded = json.loads(result.stdout.strip().splitlines()[-1])
    assert loaded == {"after_import": [], "after_run": []}
