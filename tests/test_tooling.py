import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _load_layers()


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_benchmark_tracer_names_exist(layer):
    # The benchmark tracer wraps these public functions by name; one that
    # is renamed or moved away silently drops out of its per-layer metrics.
    module = importlib.import_module(f"trophom.{layer}")
    missing = [name for name in LAYERS[layer]
               if not callable(getattr(module, name, None))]
    assert not missing, f"trophom.{layer} lacks {missing}"
