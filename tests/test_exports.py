"""Every exported name has a caller outside the unit tests, every
imported name is used, and every config field has a setter.

A name in a module's ``__all__`` counts as used when a name or attribute
node of that spelling appears in the package's own modules (``__init__``
aside, which only re-exports) or in the benchmark scripts, or when the
benchmark's ``tracing.BOUNDARIES`` wraps it.  Anything else needs an entry
in ``KEEP`` saying why it stays.  Every name that ``__init__`` imports
from a package module must be in that module's ``__all__``, so no re-export
escapes the check.

A name that a package module or a test module imports must appear there as
a name node, unless its import statement carries ``# noqa: F401``.

A ``QuadratureConfig`` field must be set by keyword in some
``QuadratureConfig(...)`` call of the package or in a config ``dict(...)``
of the benchmark workloads; a field that only its default sets is a
constant.

Likewise a defaulted parameter of a package function must be passed, by
keyword or by position, by some call of that name in the package or the
benchmark scripts, or have an entry in ``KEEP_PARAMS`` saying why it stays:
a knob that only the tests turn is not part of the program.

The package fits lines in one place: only ``sequences`` names ``polyfit``.
A representation declares its quadrature features in one record: no class
defines ``singular_angles``, ``top_exponent`` or ``is_conjugate_symmetric``
as a method.
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
    "circle_maximal": "the Fefferman-Stein check, and the boundedness of P",
    "running_average_maximal": "criterion 11, and the boundedness of P",
    "dilation_convergence": "criterion 11, and the separability scan",
    "tail_sup_norm": "the vanishing-tail subspace of RM(p, inf)",
    "embedding_function": "criterion 5, and the copies of l^inf",
}

# Defaulted parameters, as "module.function(parameter)", that no call in the
# package or the benchmark passes.
KEEP_PARAMS = {
    "cli.main(argv)": "tests drive the CLI in-process",
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


def test_every_reexport_is_in_its_modules_all():
    exports = _exports()
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    reexports = [(node.module, alias.name) for node in init.body
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names]
    assert len(reexports) > 50
    assert sorted(f"{module}.{name}" for module, name in reexports
                  if exports.get(name) != module) == []


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


def test_one_line_fit():
    # sequences.ExponentFit is the package's only least-squares line
    sites = [path.name for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if "polyfit" in (getattr(node, "id", None),
                              getattr(node, "attr", None))]
    assert sites == ["sequences.py"]


def test_features_are_declared_in_one_record():
    # what a representation tells the quadratures is one functions.Features
    # record from features(); no class defines a parallel method for it
    parallel = {"singular_angles", "top_exponent", "is_conjugate_symmetric"}
    defined = sorted(f"{path.stem}.{cls.name}.{node.name}"
                     for path in _modules()
                     for cls in ast.walk(ast.parse(path.read_text()))
                     if isinstance(cls, ast.ClassDef)
                     for node in cls.body
                     if isinstance(node, ast.FunctionDef)
                     and node.name in parallel)
    assert defined == []


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


def _defaulted_params() -> list:
    """(label, callee, keyword, position) of every defaulted parameter of a
    package function.  The position counts the call's own arguments, so it
    skips a method's ``self`` or ``cls``, and is None for a keyword-only
    parameter."""
    out = []

    def visit(node, owner, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, module)
                continue
            if not isinstance(child, ast.FunctionDef):
                visit(child, owner, module)
                continue
            args = child.args
            positional = args.posonlyargs + args.args
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in child.decorator_list)
            skip = 0 if owner is None or static else 1
            first = len(positional) - len(args.defaults)
            named = [(arg, i - skip) for i, arg in enumerate(positional)
                     if i >= first]
            named += [(arg, None) for arg, d in zip(args.kwonlyargs,
                                                     args.kw_defaults)
                      if d is not None]
            for arg, pos in named:
                out.append((f"{module}.{child.name}({arg.arg})", child.name,
                            arg.arg, pos))
            visit(child, None, module)

    for path in _modules():
        visit(ast.parse(path.read_text()), None, path.stem)
    return out


def _calls() -> dict:
    """callee name -> [(positional argument count, keyword names)] of every
    call in the package and the benchmark scripts; a starred argument
    passes every position, a ``**`` mapping every keyword."""
    out: dict = {}
    for path in _modules() + sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func,
                                                             "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {kw.arg for kw in node.keywords}
            out.setdefault(name, []).append(
                (float("inf") if starred else len(node.args),
                 None if None in keywords else keywords))
    return out


def test_every_defaulted_parameter_is_passed_or_kept():
    calls = _calls()

    def passed(callee, keyword, pos):
        return any((pos is not None and count > pos)
                   or keywords is None or keyword in keywords
                   for count, keywords in calls.get(callee, ()))

    params = _defaulted_params()
    assert params
    assert sorted(label for label, *call in params
                  if not passed(*call) and label not in KEEP_PARAMS) == []
    # a reason is kept only for a parameter that exists and needs one
    assert sorted(label for label in KEEP_PARAMS
                  if not any(label == entry[0] and not passed(*entry[1:])
                             for entry in params)) == []
