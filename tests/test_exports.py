import ast
import importlib
import inspect
from pathlib import Path

import pytest

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

# Defaulted parameters that no call in src/ or perfbench/ sets, each with the
# reason it stays.
KEEP_KNOBS = {
    "detloss.total_loss(weights)": "criterion oracle: criterion 10",
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


def _sources() -> list[Path]:
    return sorted((ROOT / "src" / "cfmw_kit").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def test_every_exported_name_has_a_caller():
    # No public name that only tests call: each one is used by the kit or the
    # benchmark outside its own definition, or KEEP says why it stays.
    files = _sources()
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


def _public_callables():
    """(key, module, name, function, positional offset) of every exported
    function and every public method or classmethod of an exported class; a
    bound call's first argument is the function's second parameter."""
    for module in cfmw_kit._SUBMODULES:
        mod = importlib.import_module(f"cfmw_kit.{module}")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if inspect.isfunction(obj):
                yield f"{module}.{name}", module, name, obj, 0
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)
                    if inspect.isfunction(fn) and not attr.startswith("_"):
                        offset = 0 if isinstance(member, staticmethod) else 1
                        yield f"{module}.{name}.{attr}", module, attr, fn, offset


def _calls(path: Path):
    """(called name, enclosing function names, call) of every call in ``path``."""
    found = []

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            found.append((name, enclosing, node))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(path.read_text()), frozenset())
    return found


def _sets(call: ast.Call, param: inspect.Parameter, index: int) -> bool:
    """Whether ``call`` sets ``param``, which the call's positional argument
    ``index`` fills unless ``param`` is keyword-only."""
    if any(isinstance(a, ast.Starred) for a in call.args) or \
            any(k.arg in (param.name, None) for k in call.keywords):
        return True
    return param.kind != param.KEYWORD_ONLY and len(call.args) > index


_POK, _KW = inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY


@pytest.mark.parametrize("source, kind, want", [
    ("f(a, counter=c)", _POK, True),   # by keyword
    ("f(a, c)", _POK, True),           # positionally past its index
    ("f(a)", _POK, False),             # left at its default
    ("f(a, other=c)", _POK, False),    # another parameter set by keyword
    ("f(*args)", _POK, True),          # a starred argument may reach it
    ("f(a, **kwargs)", _POK, True),    # so may a mapping
    ("f(a, c)", _KW, False),           # no positional argument fills a keyword-only one
])
def test_a_call_sets_a_parameter(source, kind, want):
    call = ast.parse(source, mode="eval").body
    assert _sets(call, inspect.Parameter("counter", kind, default=None), 1) is want


def test_every_defaulted_parameter_has_a_caller():
    # No knob that only tests turn: every defaulted parameter of the public
    # API is set by some call in the kit or the benchmark, outside the
    # function's own definition, or KEEP_KNOBS says why it stays. Dataclass
    # fields are out of scope: constructors and bundles set them.
    calls = [(f, *c) for f in _sources() for c in _calls(f)]
    unset = set()
    for key, module, name, fn, offset in _public_callables():
        home = ROOT / "src" / "cfmw_kit" / f"{module}.py"
        for index, param in enumerate(inspect.signature(fn).parameters.values()):
            if param.default is inspect.Parameter.empty:
                continue
            if not any(called == name and not (f == home and name in enclosing)
                       and _sets(call, param, index - offset)
                       for f, called, enclosing, call in calls):
                unset.add(f"{key}({param.name})")
    assert sorted(unset - KEEP_KNOBS.keys()) == []
    # A kept knob that gained a caller or left the API leaves KEEP_KNOBS too.
    assert sorted(KEEP_KNOBS.keys() - unset) == []
