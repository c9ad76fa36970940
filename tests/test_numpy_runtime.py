"""polyhess runs on numpy alone: scipy is a test dependency only."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import polyhess

PACKAGE = Path(polyhess.__file__).resolve().parent

_BLOCKED_SOLVE = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from polyhess import cli
code = cli.main(["solve", "--config", sys.argv[1], "--out", sys.argv[2]])
loaded = sorted(name for name, mod in sys.modules.items()
                if name.split(".")[0] == "scipy" and mod is not None)
print(json.dumps({"code": code, "loaded": loaded}))
"""

_SMALL_SOLVE = """\
[problem]
n = 2
k = 2
form = strong

[domain]
nodes = 16

[datum]
kind = constant
value = 1.0

[lambda]
value = 0.05
"""


def test_solve_runs_with_scipy_blocked(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(_SMALL_SOLVE)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCKED_SOLVE, str(cfg), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"code": 0, "loaded": []}
    assert (tmp_path / "out" / "run.json").is_file()


def test_no_module_of_the_package_imports_scipy():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), path.name
