import ast
import importlib
from pathlib import Path

import cfmw_kit

ROOT = Path(__file__).resolve().parent.parent

# Exported names that no code in src/ or perfbench/ reaches, each with the
# reason it stays public.
KEEP = {
    "ssm.discretize": "criterion oracle: criteria 1 and 2",
    "ssm.scan": "criterion oracle: criteria 1 and 2",
    "ssm.kernel": "criterion oracle: criterion 1",
    "ssm.apply_kernel": "criterion oracle: criterion 1",
    "ssm.selective_scan_input_grad": "criterion oracle: criterion 3",
    "fusion.inject": "documented API: the multi-level residual injection",
    "fusion.save_fusion_params": "documented API: the writer of fuse --params bundles",
    "metrics.average_precision": "criterion oracle: criterion 9",
    "detloss.total_loss": "criterion oracle: criterion 10",
}


def test_every_exported_name_exists():
    # A name deleted from a module but left in its __all__ breaks
    # ``from cfmw_kit.<module> import *`` only when someone tries it.
    missing = []
    for module in cfmw_kit._SUBMODULES:
        mod = importlib.import_module(f"cfmw_kit.{module}")
        missing += [f"{module}.{name}" for name in getattr(mod, "__all__", ())
                    if not hasattr(mod, name)]
    assert missing == []


def _references(stmt: ast.stmt) -> set[str]:
    """Names, attributes, imported names and exact string constants in ``stmt``."""
    found = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)  # e.g. the tracer's ("metrics", ("iou",))
    return found


def _defines(stmt: ast.stmt, names) -> bool:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return stmt.name in names
    if isinstance(stmt, ast.Assign):
        return any(isinstance(t, ast.Name) and t.id in names for t in stmt.targets)
    return False


def test_every_exported_name_has_a_caller():
    # No public name that only tests call: each one is used by the kit or the
    # benchmark outside its own definition, or KEEP says why it stays.
    files = sorted((ROOT / "src" / "cfmw_kit").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    statements = [(f, stmt, _references(stmt)) for f in files
                  for stmt in ast.parse(f.read_text()).body]
    unused = set()
    for module in cfmw_kit._SUBMODULES:
        home = ROOT / "src" / "cfmw_kit" / f"{module}.py"
        for name in getattr(importlib.import_module(f"cfmw_kit.{module}"), "__all__", ()):
            if not any(name in refs and not (f == home and _defines(stmt, (name, "__all__")))
                       for f, stmt, refs in statements):
                unused.add(f"{module}.{name}")
    assert sorted(unused - KEEP.keys()) == []
    # A kept name that gained a caller or left __all__ leaves KEEP too.
    assert sorted(KEEP.keys() - unused) == []
