import ast
import functools
import importlib
import inspect
from pathlib import Path

import pytest

import cfmw_kit

ROOT = Path(__file__).resolve().parent.parent

# Exported names and classmethods that no code in src/ or perfbench/ reaches,
# each with the reason it stays public.
KEEP = {
    "ssm.discretize": "criterion oracle: criteria 1 and 2",
    "ssm.scan": "criterion oracle: criteria 1 and 2",
    "ssm.kernel": "criterion oracle: criterion 1",
    "ssm.apply_kernel": "criterion oracle: criterion 1",
    "ssm.selective_scan": "criterion oracle: criterion 3; perfbench's tracer rebinds it by name",
    "ssm.selective_scan_input_grad": "criterion oracle: criterion 3",
    "ssm.ContinuousSsm.random": "criterion oracle: criteria 1, 2 and 3",
    "ssm.SelectiveSsmParams.random": "criterion oracle: criterion 3",
    "ssm.SelectiveSsmParams.frozen": "criterion oracle: criterion 3",
    "fusion.inject": "documented API: the multi-level residual injection",
    "metrics.iou": "oracle of metrics._iou_matrix; perfbench's tracer rebinds it by name",
    "metrics.average_precision": "criterion oracle: criterion 9",
    "metrics.mean_ap": "criterion oracle: criterion 9; perfbench's tracer rebinds it by name",
    "metrics.parse_detections": "oracle that test_io_property.py holds eval to; "
                                "perfbench's tracer rebinds it by name",
    "metrics.parse_ground_truth": "oracle that test_io_property.py holds eval to; "
                                  "perfbench's tracer rebinds it by name",
    "detloss.total_loss": "criterion oracle: criterion 10",
    "tensor_io.save_params": "documented API: the writer of fuse --params bundles",
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


def _scan(source: str, module: str | None) -> list[tuple[str, frozenset, ast.Call | None]]:
    """(kit name, enclosing definitions, call or None) of every reference to
    a kit name in ``source``, the text of kit module ``module`` (None outside
    the kit); a call's entry carries the call.

    A receiver resolves as follows. An attribute named after a kit module is
    that module (``cfmw_kit.fusion``, perfbench's ``kit.fusion``), and an
    attribute of a kit module or class is its member (``fusion.fuse``,
    ``PatchEmbedding.random``). A name is what binds it: an import from the
    kit, a module-level definition in ``module``, or an assignment of a
    resolved value. Strings and same-named functions outside the kit resolve
    to nothing. Enclosing definitions are named like kit names.
    """
    tree = ast.parse(source)
    env: dict[str, str] = {}
    for stmt in tree.body if module else ():
        names = ([stmt.name] if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                 else [t.id for t in getattr(stmt, "targets", ()) if isinstance(t, ast.Name)])
        env.update((name, f"{module}.{name}") for name in names)

    def resolve(node) -> str | None:
        if isinstance(node, ast.Attribute):
            if node.attr in cfmw_kit._SUBMODULES:
                return node.attr
            base = resolve(node.value)
            return base and f"{base}.{node.attr}"
        return env.get(node.id) if isinstance(node, ast.Name) else None

    nodes = list(ast.walk(tree))
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "cfmw_kit"):
            package = (node.module or "").removeprefix("cfmw_kit").lstrip(".")
            env.update((a.asname or a.name, f"{package}.{a.name}".lstrip("."))
                       for a in node.names)
    for node in nodes:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                         else [(target, node.value)])
                env.update((t.id, resolve(v)) for t, v in pairs
                           if isinstance(t, ast.Name) and resolve(v))
    found = []

    def visit(node, enclosing, qualname):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = f"{qualname}.{node.name}"
            enclosing = enclosing | {qualname}
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load) \
                and resolve(node):
            found.append((resolve(node), enclosing, None))
        elif isinstance(node, ast.Call) and resolve(node.func):
            found.append((resolve(node.func), enclosing, node))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing, qualname)

    visit(tree, frozenset(), module or "")
    return found


@pytest.mark.parametrize("source, module, want", [
    ("import cfmw_kit\ncfmw_kit.fusion.fuse(x)", None, "fusion.fuse"),
    ("from cfmw_kit import fusion\nfusion.fuse(x)", None, "fusion.fuse"),
    ("fusion, ssm = kit.fusion, kit.ssm\nfusion.fuse(x)", None, "fusion.fuse"),
    ("from cfmw_kit.fusion import fuse as f\nf(x)", None, "fusion.fuse"),
    ("from .fusion import PatchEmbedding\nPatchEmbedding.random(x)", "cli",
     "fusion.PatchEmbedding.random"),
    ("def fuse(x):\n    pass\nfuse(x)", "fusion", "fusion.fuse"),
    ("def fuse(x):\n    pass\nfuse(x)", None, None),   # same name outside the kit
    ("import reference\nreference.fuse(x)", None, None),
    ("getattr(fusion_module, 'fuse')(x)", None, None),  # a string names nothing
])
def test_a_receiver_resolves(source, module, want):
    calls = [key for key, _, call in _scan(source, module) if call is not None]
    assert calls == ([want] if want else [])


def _sources() -> list[Path]:
    return sorted((ROOT / "src" / "cfmw_kit").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


@functools.cache
def _references() -> list[tuple[str, frozenset, ast.Call | None]]:
    """The references to kit names in src/ and perfbench/, leaving out those
    inside the module-level definition that the name belongs to."""
    found = []
    for f in _sources():
        module = f.stem if f.parent.name == "cfmw_kit" else None
        found += [(key, enclosing, call) for key, enclosing, call in _scan(f.read_text(), module)
                  if ".".join(key.split(".")[:2]) not in enclosing]
    return found


def _exports():
    """(kit name, object) of every exported name and of every public method,
    classmethod or staticmethod of an exported class."""
    for module in cfmw_kit._SUBMODULES:
        mod = importlib.import_module(f"cfmw_kit.{module}")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            yield f"{module}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(
                            getattr(member, "__func__", member)):
                        yield f"{module}.{name}.{attr}", member


def test_every_exported_name_has_a_caller():
    # No public name or classmethod that only tests call: each one is used by
    # the kit or the benchmark outside its own definition, or KEEP says why
    # it stays.
    names = {key for key, obj in _exports()
             if key.count(".") == 1 or isinstance(obj, classmethod)}
    unused = names - {key for key, _, _ in _references()}
    assert sorted(unused - KEEP.keys()) == []
    # A kept name that gained a caller or left the API leaves KEEP too.
    assert sorted(KEEP.keys() - unused) == []


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
    # function's own definition, or KEEP_KNOBS says why it stays. An instance
    # method's receiver never resolves, so its knobs need an entry. Dataclass
    # fields are out of scope: constructors and bundles set them.
    unset = set()
    for key, obj in _exports():
        fn = getattr(obj, "__func__", obj)
        if not inspect.isfunction(fn):
            continue
        # a call through a class or instance fills the second parameter first
        offset = key.count(".") == 2 and not isinstance(obj, staticmethod)
        calls = [call for called, _, call in _references() if called == key and call]
        for index, param in enumerate(inspect.signature(fn).parameters.values()):
            if param.default is not inspect.Parameter.empty and \
                    not any(_sets(call, param, index - offset) for call in calls):
                unset.add(f"{key}({param.name})")
    assert sorted(unset - KEEP_KNOBS.keys()) == []
    # A kept knob that gained a caller or left the API leaves KEEP_KNOBS too.
    assert sorted(KEEP_KNOBS.keys() - unset) == []
