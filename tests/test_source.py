"""Checks on the package source itself."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


# Imported only for perfbench/tracer.py, which wraps them under these module names.
TRACED_IMPORTS = {("pipeline.py", "elliptic_constant"), ("calabi_yau.py", "graph_residue"),
                  ("calabi_yau.py", "parallel_map")}


def test_no_unused_imports_in_package():
    # a name a module imports must be read in it or listed in its __all__
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                 for elt in node.value.elts}
        found |= {(path.name, name) for name in imported - used}
    unused = sorted(found - TRACED_IMPORTS)
    assert not unused, f"unused imports in src/vsc: {unused}"


def test_series_uses_only_the_public_kernel():
    # series.py works on SparsePoly through its public names only: the packed
    # keys, their field limit and their private helpers stay in poly.py, so
    # any sum over term dicts is a kernel function there (shifted_sum)
    tree = ast.parse((SRC / "series.py").read_text())
    public = next(ast.literal_eval(node.value) for node in ast.parse(
        (SRC / "poly.py").read_text()).body if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets))
    imports = [(getattr(node, "module", None) or "", alias.name) for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    from_poly = {name for module, name in imports if module.split(".")[-1] == "poly"}
    assert from_poly and from_poly <= set(public) - {"MAX_DEGREE"}, from_poly
    # nor the module itself, whose private names an attribute would reach
    assert not [name for _, name in imports if name.split(".")[-1] == "poly"]
    own = {node.name for node in ast.walk(tree)
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    layout = sorted({node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                     and (node.attr == "terms"
                          or node.attr.startswith("_") and not node.attr.endswith("__")
                          and node.attr not in own)})
    assert not layout, f"series.py reaches into the kernel's layout: {layout}"
    bits = (ast.LShift, ast.RShift, ast.BitAnd, ast.BitXor)  # | also writes union types
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, bits)]


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


LAYERS_SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import tracer
t = tracer.install()
import vsc.calabi_yau, vsc.cli, vsc.pipeline
workload = sys.argv[3]
if workload == "fano_threefold":
    vsc.pipeline.gw_table(5, 1, 3, cache=None, workers=1)
elif workload == "cy_k3_d5":
    vsc.calabi_yau.cy_report(4, 5, cache=None, workers=1).identities()
elif vsc.cli.main(["gw", "--N", "4", "--k", "1", "--dmax", "4", "--threads", "2",
                   "--cache-dir", sys.argv[4]]):
    sys.exit("vsc gw failed")
print(json.dumps(sorted({name.split(".")[0] for _, name, calls, *_ in t.report()["edges"]
                         if calls})))
"""


def benchmark_expected_layers() -> dict:
    """EXPECTED_LAYERS of perfbench/run.py, read from its source without importing it."""
    tree = ast.parse((SRC.parents[1] / "perfbench" / "run.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "EXPECTED_LAYERS"
                        for t in node.targets))


@pytest.mark.parametrize("workload", ["fano_threefold", "cy_k3_d5", "cli_cache"])
def test_benchmark_workload_layers_fire(tmp_path, workload):
    # the traced benchmark run fails its self-check when an expected layer
    # no longer fires, say after a change of who calls genus0_constant; the
    # same workload under the same tracer must show it here first
    root = SRC.parents[1]
    proc = subprocess.run([sys.executable, "-c", LAYERS_SCRIPT, str(root / "perfbench"),
                           str(root / "src"), workload, str(tmp_path / "cache")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    fired = json.loads(proc.stdout.splitlines()[-1])
    missing = set(benchmark_expected_layers()[workload]) - set(fired)
    assert not missing, f"layers that did not fire: {sorted(missing)}"
