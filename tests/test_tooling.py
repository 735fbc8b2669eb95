import importlib
import importlib.util
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import trophom
from trophom import cli, gadgets, path_graph, plain, poly, solve_trop_hom
from trophom.testing import random_of_degree

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(trophom.__file__).resolve().parent.parent


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


def _loaded_after(code: str, cwd) -> set:
    """The modules a fresh interpreter holds after running code."""
    probe = code + ("\nimport json, sys\nprint(json.dumps(sorted("
                    "sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


UNUSED_BY_SOLVE = {"trophom.gadgets", "trophom.verify", "trophom.testing"}


def test_solve_command_loads_no_gadget_or_verify_code(tmp_path):
    # Every CLI command is its own process; solve must not pay for
    # compiling modules it never calls.
    (tmp_path / "s.tg").write_text("tg 2 1\nc 0 a\nc 1 b\ne 0 1\n")
    (tmp_path / "t.tg").write_text("tg 3 2\nc 0 a\nc 1 b\nc 2 a\n"
                                   "e 0 1\ne 1 2\n")
    loaded = _loaded_after(
        "from trophom.cli import main\n"
        "code = main(['solve', '--source', 's.tg', '--target', 't.tg', "
        "'--witness'])\n"
        "assert code == 0, code", tmp_path)
    assert "trophom.solver" in loaded
    assert not loaded & UNUSED_BY_SOLVE


def test_package_import_loads_no_submodule(tmp_path):
    loaded = _loaded_after("import trophom", tmp_path)
    assert "trophom" in loaded
    assert not {m for m in loaded if m.startswith("trophom.")}


def test_cli_import_loads_no_command_code(tmp_path):
    # The records are plain classes, so no command pays for dataclasses
    # (and the inspect, ast and dis modules it imports).
    loaded = _loaded_after("import trophom.cli", tmp_path)
    assert "trophom.cli" in loaded
    assert not loaded & {"dataclasses", "trophom.solver", "trophom.cores",
                         "trophom.poly", "trophom.gadgets",
                         "trophom.verify", "trophom.testing"}


@pytest.mark.parametrize("args", [
    ["gadget", "nae3sat", "--cnf", "f.cnf", "--out", "g.tg"],
    ["core", "--in", "e.tg", "--out", "core.tg"],
], ids=["gadget-nae3sat", "core"])
def test_gadget_and_core_commands_load_no_poly(tmp_path, args):
    (tmp_path / "f.cnf").write_text("p cnf 3 1\n1 2 3 0\n")
    (tmp_path / "e.tg").write_text("tg 2 1\nc 0 a\nc 1 b\ne 0 1\n")
    loaded = _loaded_after(
        "from trophom.cli import main\n"
        f"code = main({args!r})\n"
        "assert code == 0, code", tmp_path)
    assert "trophom.poly" not in loaded
    assert not loaded & {"dataclasses", "trophom.verify", "trophom.testing"}


def test_cross_check_command_loads_no_gadget_code(tmp_path):
    # verify imports gadgets only in the verifiers that build gadgets.
    (tmp_path / "t.tg").write_text("tg 3 2\nc 0 a\nc 1 b\nc 2 a\n"
                                   "e 0 1\ne 1 2\n")
    loaded = _loaded_after(
        "from trophom.cli import main\n"
        "code = main(['verify', 'cross-check', '--target', 't.tg', "
        "'--trials', '1'])\n"
        "assert code == 0, code", tmp_path)
    assert {"trophom.verify", "trophom.poly"} <= loaded
    assert "trophom.gadgets" not in loaded


def test_public_names_are_their_home_module_objects(tmp_path):
    # Each name is resolved in a fresh interpreter, first access first, so
    # the lazy lookup itself is what hands it out.
    probe = (
        "import importlib, types, trophom\n"
        "for name in trophom.__all__:\n"
        "    value = getattr(trophom, name)\n"
        "    if isinstance(value, types.ModuleType):\n"
        "        home = importlib.import_module('trophom.' + name)\n"
        "        assert value is home, name\n"
        "        continue\n"
        "    home = 'trophom.' + trophom._HOME_OF[name]\n"
        "    assert value is getattr(importlib.import_module(home), name)\n"
        "    assert getattr(value, '__module__', home) in (home, 'typing',\n"
        "                                                 'builtins'), name\n"
        "    assert vars(trophom)[name] is value, name\n")
    loaded = _loaded_after(probe, tmp_path)
    assert {"trophom.graphs", "trophom.solver", "trophom.cores",
            "trophom.poly"} <= loaded


def test_formats_loads_no_gadget_code(tmp_path):
    loaded = _loaded_after("import trophom.formats", tmp_path)
    assert "trophom.formats" in loaded
    assert "trophom.gadgets" not in loaded


def test_palette_choices_are_the_gadget_palettes():
    subparsers = next(a for a in cli.build_parser()._actions
                      if a.dest == "command")
    for command in ("gadget", "verify"):
        palette = next(a for a in subparsers.choices[command]._actions
                       if a.dest == "palette")
        assert tuple(palette.choices) == gadgets.PALETTES


def test_every_route_runs_a_traced_strategy(monkeypatch):
    # poly.strategy_s sums the STRATEGY spans directly under a dispatch, so
    # every route the plan takes must still call a strategy by its public
    # name.  Each dispatch-reuse target is dispatched against itself, an
    # instance every route has to solve.  Plans kept from earlier tests
    # could answer a component from their memo, with no strategy span.
    poly._plan_dispatch.cache_clear()
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = _load("spans")
    workload = _load("workloads").DispatchReuse(trophom, 1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for _, target in workload.targets:
            assert trophom.dispatch_solve(target, target)[0].solvable
    finally:
        tracer.uninstall()
    names = [tracer.names[s[0]] for s in tracer.spans]
    dispatches = [i for i, name in enumerate(names)
                  if name == "poly.dispatch_solve"]
    routes = {tracer.spans[i][4]["route"][-1] for i in dispatches}
    assert routes == {"AllForcing", "TwoSat", "UniqueFeature",
                      "ExactFallback"}
    for d in dispatches:
        assert any(s[3] == d and names[j] in spans.STRATEGY
                   for j, s in enumerate(tracer.spans)), \
            tracer.spans[d][4]["route"]


def test_fresh_target_plans_its_core_and_split_in_trace():
    # poly.plan_s sums the PLAN spans directly under a dispatch.  A fresh
    # target that is not a core is folded inside the public core, and its
    # colour split runs through split_colours, so both are seen.
    spans = _load("spans")
    target = path_graph(["a", "b", "a", "b", "a"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        out, report = trophom.dispatch_solve(target, target)
    finally:
        tracer.uninstall()
    assert out.solvable
    assert report.route[:2] == ("CoreReduced", "SplitColours")
    names = [tracer.names[s[0]] for s in tracer.spans]
    [d] = [i for i, name in enumerate(names)
           if name == "poly.dispatch_solve"]
    planned = {names[j] for j, s in enumerate(tracer.spans)
               if s[3] == d and names[j] in spans.PLAN}
    assert {"cores.core", "graphs.split_colours"} <= planned


def test_traced_solve_reports_the_outcome_revisions():
    # solver.ac_passes and the per-pass metrics built on it read the
    # passes of each outer solver span, which must be the engine's count.
    spans = _load("spans")
    k3 = plain(3, [(0, 1), (1, 2), (0, 2)], "k")
    src = random_of_degree(random.Random(5), 30, 4.6)
    tracer = spans.Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        out = trophom.solve_trop_hom(src, k3)
    finally:
        tracer.uninstall()
    stats = spans.LayerStats()
    stats.feed(tracer.dump(time.perf_counter() - start))
    metrics = stats.metrics()
    assert not stats.problems
    assert metrics["solver.nodes"] == out.nodes
    assert metrics["solver.ac_passes"] == out.passes > 0
