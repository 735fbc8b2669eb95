"""Exact decision and verification toolkit for vertex-coloured graph
homomorphisms: a ground-truth list-homomorphism solver, polynomial-time
strategies, core computation, hardness-gadget builders, and brute-force
verifiers, all runnable at desk scale.

The package namespace is lazy (PEP 562): ``import trophom`` loads no
submodule, and a public name imports its home module on first access,
after which it is an ordinary module global.  So a ``trophom`` command,
one process each, compiles only the modules it runs.
"""

import importlib

# home module -> the public names it gives the package
_HOMES = {
    "graphs": ("Bipartition", "Colour", "Digraph", "InputError",
               "PreconditionError", "TropicalGraph", "VertexMap",
               "bipartition", "connected_components", "cycle_graph",
               "dgraph", "path_graph", "plain", "split_colours",
               "split_instance", "tgraph", "validate_hom"),
    "solver": ("Enumeration", "SolveOutcome", "ac_reduce", "colour_lists",
               "enumerate_homs", "solve_digraph_hom", "solve_list_hom",
               "solve_retraction", "solve_trop_hom"),
    "cores": ("CoreResult", "core", "find_proper_retract", "is_core",
              "iso_check"),
    "poly": ("FeatureSet", "ReducedInstance", "StrategyReport",
             "TwoSatFormula", "colour_class_pairs", "detect_features",
             "dispatch_solve", "forcing_vertices", "reduce_by_features",
             "solve_2sat", "solve_all_forcing", "solve_by_colour_pairs",
             "solve_via_pairs", "two_sat"),
}
_HOME_OF = {name: home for home, names in _HOMES.items() for name in names}

__all__ = sorted([*_HOMES, *_HOME_OF])
__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME_OF.get(name)
    if home is not None:
        value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    elif name in _HOMES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads are plain global lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
