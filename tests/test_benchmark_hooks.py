"""The benchmark's traced run wraps radmix names; each must still exist.

``perfbench/tracing.py`` lists its layer boundaries as (owner, attribute)
pairs and looks each up with ``vars(owner)[attr]`` when a traced pass
starts.  A cleanup that drops one of those names (an import kept only for
the benchmark, say) would break ``--trace 1`` without failing any other
test.  Likewise ``perfbench/workloads.py`` overrides ``NormCache.norm``
with the same parameter list, so a change to that signature must fail here
before it breaks a benchmark run.
"""

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
