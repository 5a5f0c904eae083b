"""Every exported name has a caller outside the unit tests, every
imported name is used, and every config field has a setter.

A name in a module's ``__all__`` counts as used when a name or attribute
node of that spelling appears in the package's own modules (``__init__``
aside, which only re-exports) or in the benchmark scripts, or when the
benchmark's ``tracing.BOUNDARIES`` wraps it.  Anything else needs an entry
in ``KEEP`` saying why it stays.

A name that a package module or a test module imports must appear there as
a name node, unless its import statement carries ``# noqa: F401``.

A ``QuadratureConfig`` field must be set by keyword in some
``QuadratureConfig(...)`` call of the package or in a config ``dict(...)``
of the benchmark workloads; a field that only its default sets is a
constant.
"""

import ast
from dataclasses import fields
from pathlib import Path

from radmix import QuadratureConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "radmix"
TESTS = ROOT / "tests"
BENCH = ROOT / "perfbench"

KEEP = {
    "cauchy_derivative": "the contour-integral reference derivative_at is tested against",
    "circle_maximal": "the Fefferman-Stein check, and the boundedness of P",
    "running_average_maximal": "criterion 11, and the boundedness of P",
    "dilation_convergence": "criterion 11, and the separability scan",
    "tail_sup_norm": "the vanishing-tail subspace of RM(p, inf)",
    "embedding_function": "criterion 5, and the copies of l^inf",
    "TaylorPolynomial": "a representation that function specs name; "
                        "from_spec reaches it by its class name",
}


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _exports() -> dict:
    out = {}
    for path in _modules():
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) == "__all__"):
                for elt in node.value.elts:
                    out[elt.value] = path.stem
    return out


def _references() -> set:
    refs = set()
    for path in _modules() + sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif (path.name == "tracing.py" and isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) == "BOUNDARIES"):
                refs.update(entry.elts[1].value for entry in node.value.elts)
    return refs


def test_every_export_has_a_caller_or_a_reason():
    exports = _exports()
    refs = _references()
    unused = sorted(f"{module}.{name}" for name, module in exports.items()
                    if name not in refs and name not in KEEP)
    assert unused == []
    # a reason is kept only for a name that is exported and needs one
    assert sorted(name for name in KEEP
                  if name not in exports or name in refs) == []


def _unused_imports(path: Path) -> list:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if (getattr(node, "module", None) == "__future__"
                or any("# noqa: F401" in line
                       for line in lines[node.lineno - 1:node.end_lineno])):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{path.relative_to(ROOT)}: {name}")
    return unused


def test_every_import_is_used():
    paths = _modules() + sorted(TESTS.glob("*.py"))
    assert [entry for path in paths for entry in _unused_imports(path)] == []


def _keywords(path: Path, callee: str) -> set:
    """Keyword names of every call to ``callee`` (a name or an attribute)."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        if callee in (getattr(node.func, "id", None),
                      getattr(node.func, "attr", None)):
            out.update(kw.arg for kw in node.keywords if kw.arg is not None)
    return out


def test_every_config_field_has_a_setter():
    set_by = set().union(
        *(_keywords(path, "QuadratureConfig") for path in _modules()),
        _keywords(BENCH / "workloads.py", "dict"))
    assert sorted(f.name for f in fields(QuadratureConfig)
                  if f.name not in set_by) == []
