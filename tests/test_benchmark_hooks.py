"""The benchmark's traced run wraps radmix names; each must still exist.

``perfbench/tracing.py`` lists its layer boundaries as (owner, attribute)
pairs and looks each up with ``vars(owner)[attr]`` when a traced pass
starts.  A cleanup that drops one of those names (an import kept only for
the benchmark, say) would break ``--trace 1`` without failing any other
test.  Likewise ``perfbench/workloads.py`` overrides ``NormCache.norm``
with the same parameter list, and calls radmix functions with fixed
arguments; a change to any of those signatures must fail here before it
breaks a benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from radmix.theorems import NormCache

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    """Import a perfbench module from its file, without touching it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves():
    tracing = _load("tracing")
    assert tracing.BOUNDARIES
    for owner, attr, name, _ in tracing.BOUNDARIES:
        assert attr in vars(owner), f"{name}: {owner.__name__}.{attr} is gone"
        assert callable(vars(owner)[attr])


def test_timed_norm_cache_keeps_the_norm_signature():
    timed = _load("workloads")._TimedNormCache
    assert issubclass(timed, NormCache)

    def params(fn):
        return [(p.name, p.kind, p.default)
                for p in inspect.signature(fn).parameters.values()]

    assert params(timed.norm) == params(NormCache.norm)


# ``_timed(fn, sink, tick)`` returns a wrapper that passes its arguments on
# to ``fn`` unchanged, so a call of the wrapper is a call of ``fn``.
_FORWARDING_WRAPPERS = {"_timed"}
# Starred arguments of the workloads' radmix calls and their lengths: a scan
# cell is the exponent quadruple (p0, q0, p, q).
_STARRED_LENGTHS = {"cell": 4}


class _RadmixCalls(ast.NodeVisitor):
    """Every call in a module's source whose callee resolves to a radmix
    object: ``module.attr`` on an imported radmix module, a name bound to a
    forwarding wrapper of one, and ``super().attr`` in a subclass of a
    radmix class.  Collects (line, callee, arguments, keywords), each
    argument as its source text."""

    def __init__(self, module):
        self.module = module
        self.names: dict = {}
        self.bases: list = [None]
        self.calls: list = []

    def resolve(self, node):
        if isinstance(node, ast.Name):
            return self.names.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = self.resolve(node.value)
            return getattr(owner, node.attr, None) if owner is not None else None
        if isinstance(node, ast.Call):
            fn = node.func
            if (isinstance(fn, ast.Name) and fn.id in _FORWARDING_WRAPPERS
                    and node.args):
                return self.resolve(node.args[0])
        return None

    def visit_ImportFrom(self, node):
        if (node.module or "").split(".")[0] == "radmix":
            source = importlib.import_module(node.module)
            for alias in node.names:
                self.names[alias.asname or alias.name] = getattr(source, alias.name)

    def visit_ClassDef(self, node):
        bases = [self.resolve(b) for b in node.bases]
        self.bases.append(next((b for b in bases if b is not None), None))
        self.generic_visit(node)
        self.bases.pop()

    def visit_Assign(self, node):
        self.generic_visit(node)
        target = self.resolve(node.value)
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            if target is None:
                # a rebinding to something unknown hides the old callee
                self.names.pop(node.targets[0].id, None)
            else:
                self.names[node.targets[0].id] = target

    def visit_Call(self, node):
        self.generic_visit(node)
        fn, self_arg = self.resolve(node.func), []
        func = node.func
        if (fn is None and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super" and self.bases[-1] is not None):
            fn, self_arg = getattr(self.bases[-1], func.attr, None), ["self"]
        if fn is None or not callable(fn):
            return
        args = list(self_arg)
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                args += ["*"] * _STARRED_LENGTHS[ast.unparse(arg.value)]
            else:
                args.append(ast.unparse(arg))
        kwargs = {}
        for kw in node.keywords:
            if kw.arg is None:
                kwargs.update(getattr(self.module, ast.unparse(kw.value)))
            else:
                kwargs[kw.arg] = ast.unparse(kw.value)
        self.calls.append((node.lineno, fn, args, kwargs))


def test_workload_radmix_calls_bind_to_current_signatures():
    # every radmix call in workloads.py, read from its source, must bind to
    # the signature the library has now: a dropped or renamed parameter
    # fails here, not in a benchmark run
    workloads = _load("workloads")
    visitor = _RadmixCalls(workloads)
    visitor.visit(ast.parse((PERFBENCH / "workloads.py").read_text()))
    names = {getattr(fn, "__qualname__", repr(fn)) for _, fn, _, _ in visitor.calls}
    # a sanity floor: the resolution found the calls the workloads are made of
    assert {"operator_norm_estimate", "PolarGrid.build",
            "inclusion_witness_scan", "mixed_norm", "project",
            "NormCache.norm", "QuadratureConfig"} <= names
    for line, fn, args, kwargs in visitor.calls:
        try:
            inspect.signature(fn).bind(*args, **kwargs)
        except TypeError as exc:
            raise AssertionError(
                f"workloads.py:{line}: {fn.__qualname__}({', '.join(args)}"
                f"{''.join(f', {k}={v}' for k, v in kwargs.items())}) no "
                f"longer binds: {exc}") from None
