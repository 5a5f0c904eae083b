"""The benchmark's traced run wraps radmix names; each must still exist.

``perfbench/tracing.py`` lists its layer boundaries as (owner, attribute)
pairs and looks each up with ``vars(owner)[attr]`` when a traced pass
starts.  A cleanup that drops one of those names (an import kept only for
the benchmark, say) would break ``--trace 1`` without failing any other
test.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_boundary_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.BOUNDARIES
    for owner, attr, name, _ in tracing.BOUNDARIES:
        assert attr in vars(owner), f"{name}: {owner.__name__}.{attr} is gone"
        assert callable(vars(owner)[attr])
