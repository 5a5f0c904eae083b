"""Every exported name has a caller outside the unit tests.

A name in a module's ``__all__`` counts as used when a name or attribute
node of that spelling appears in the package's own modules (``__init__``
aside, which only re-exports) or in the benchmark scripts, or when the
benchmark's ``tracing.BOUNDARIES`` wraps it.  Anything else needs an entry
in ``KEEP`` saying why it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "radmix"
BENCH = ROOT / "perfbench"

KEEP = {
    "cauchy_derivative": "the contour-integral reference derivative_at is tested against",
    "circle_maximal": "the Fefferman-Stein check, and the boundedness of P",
    "running_average_maximal": "criterion 11, and the boundedness of P",
    "dilation_convergence": "criterion 11, and the separability scan",
    "tail_sup_norm": "the vanishing-tail subspace of RM(p, inf)",
    "embedding_function": "criterion 5, and the copies of l^inf",
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
