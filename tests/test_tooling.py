import importlib
import importlib.util
import random
from pathlib import Path

import pytest

from trophom import plain, solve_trop_hom
from trophom.testing import random_of_degree

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load("spans").LAYERS


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_benchmark_tracer_names_exist(layer):
    # The benchmark tracer wraps these public functions by name; one that
    # is renamed or moved away silently drops out of its per-layer metrics.
    module = importlib.import_module(f"trophom.{layer}")
    missing = [name for name in LAYERS[layer]
               if not callable(getattr(module, name, None))]
    assert not missing, f"trophom.{layer} lacks {missing}"


def test_benchmark_oracle_agrees_with_the_engine():
    # The benchmark judges search-3col answers with its own oracle; the
    # engine and that oracle must agree on instances of the same kind.
    oracle = _load("oracle")
    k3 = plain(3, [(0, 1), (1, 2), (0, 2)], "k")
    k3_plain = (3, sorted(k3.edges), list(k3.colours))
    verdicts = set()
    for seed in range(20):
        src = random_of_degree(random.Random(seed), 30, 4.6)
        src_plain = (src.n, sorted(src.edges), list(src.colours))
        want = oracle.find_hom(src_plain, k3_plain)
        out = solve_trop_hom(src, k3)
        assert out.solvable == (want is not None), seed
        for witness in (want, out.witness):
            if witness is not None:
                assert oracle.is_hom(src_plain, k3_plain, witness), seed
        verdicts.add(out.solvable)
    assert verdicts == {True, False}
