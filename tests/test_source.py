"""Checks on the package source itself."""

import ast
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vsc"


def test_no_assert_statements_in_package():
    # invariants are real checks: `python -O` strips assert statements
    found = []
    assert SRC.is_dir()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/vsc: {found}"


TRACE_SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import tracer
t = tracer.install()
import vsc.calabi_yau, vsc.pipeline
vsc.pipeline.gw_table(5, 1, 1)
vsc.calabi_yau.cy_report(4, 2)
report = t.report()
print(json.dumps({"layers": sorted({name.split(".")[0] for _, name, calls, *_ in report["edges"]
                                    if calls}),
                  "leaves": report["counters"].get("chain.leaves", 0)}))
"""


def test_benchmark_tracer_installs():
    # the benchmark tracer wraps names it looks up in src/vsc; a renamed
    # function or a changed residue_chain signature must fail here, not
    # silently drop a layer from the bench
    root = SRC.parents[1]
    proc = subprocess.run([sys.executable, "-c", TRACE_SCRIPT,
                           str(root / "perfbench"), str(root / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    wanted = "calabi_yau chain elliptic genus0 parallel pipeline poly ratfun series".split()
    assert set(wanted) <= set(out["layers"]), out["layers"]
    assert out["leaves"] > 0
