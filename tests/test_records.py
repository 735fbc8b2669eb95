"""Record semantics of the package's immutable value types, and the lazy
package namespace that exports them."""

import pytest

import trophom
from trophom import graphs, poly
from trophom.cores import CoreResult
from trophom.gadgets import CnfFormula, GadgetGraph, NaeFormula
from trophom.graphs import (Bipartition, Digraph, InputError, TropicalGraph,
                            _kept)
from trophom.poly import (FeatureSet, ReducedInstance, StrategyReport,
                          TwoSatFormula)
from trophom.solver import Enumeration, SolveOutcome
from trophom.verify import CheckResult, Report

EDGE = TropicalGraph(2, frozenset({(0, 1)}), ("a", "b"))
K1 = TropicalGraph(1, frozenset(), ("a",))

# (class, field values in signature order, the same with one field changed)
RECORDS = [
    (TropicalGraph, (2, frozenset({(0, 1)}), ("a", "b")),
     (2, frozenset({(0, 1)}), ("a", "c"))),
    (Digraph, (2, frozenset({(0, 1)})), (2, frozenset({(1, 0)}))),
    (Bipartition, (frozenset({0}), frozenset({1})),
     (frozenset({0}), frozenset({2}))),
    (SolveOutcome, (True, {0: 1}, 3, 5), (True, {0: 1}, 3, 6)),
    (Enumeration, (({0: 0},), False, 2), (({0: 0},), True, 2)),
    (CoreResult, (EDGE, (0, 1), {0: 0, 1: 1}), (EDGE, (0, 1), {0: 1, 1: 0})),
    (TwoSatFormula, (2, (((0, True), (1, False)),)),
     (2, (((0, True), (1, True)),))),
    (FeatureSet, (frozenset({0}), frozenset(), frozenset({1}), frozenset()),
     (frozenset({0}), frozenset(), frozenset({1}), frozenset({2}))),
    (ReducedInstance, (K1, {0: frozenset({0})}, EDGE, (0,), (0, 1), {}),
     (K1, {0: frozenset({0})}, EDGE, (0,), (0, 1), {1: 0})),
    (StrategyReport, (("TwoSat",), ("target: TwoSat",)),
     (("TwoSat",), ("target: AllForcing",))),
    (CnfFormula, (2, (((0, True), (1, False)),)), (3, (((0, True),),))),
    (NaeFormula, (3, ((0, 1, 2),)), (4, ((0, 1, 3),))),
    (GadgetGraph, (EDGE, {"x": 0}), (EDGE, {"x": 1})),
    (CheckResult, ("claim", True, "detail", True),
     ("claim", False, "detail", True)),
    (Report, ("title", (CheckResult("claim", True),), 7),
     ("title", (CheckResult("claim", True),), 8)),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]

# class -> (positional arguments, fields it leaves at their defaults)
DEFAULTS = [
    (SolveOutcome, (False, None), {"nodes": 0, "passes": 0}),
    (Enumeration, ((), False), {"nodes": 0}),
    (FeatureSet, (), {"type1": frozenset(), "type2": frozenset(),
                      "type3": frozenset(), "type4": frozenset()}),
    (StrategyReport, (("TwoSat",),), {"notes": ()}),
    (CheckResult, ("claim", True), {"detail": "", "informational": False}),
    (Report, ("title", ()), {"seed": None}),
]


def _hashable(values) -> bool:
    try:
        hash(values)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, values, other", RECORDS, ids=IDS)
class TestRecord:
    def test_positional_and_keyword_construction_agree(self, cls, values,
                                                       other):
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(cls._fields, values)))
        assert tuple(getattr(by_position, f) for f in cls._fields) == values
        assert by_position == by_keyword
        assert not by_position != by_keyword

    def test_equality_and_hash_follow_the_field_values(self, cls, values,
                                                       other):
        a, b, c = cls(*values), cls(*values), cls(*other)
        assert a is not b and a == b
        assert a != c and c != a
        assert a != values and a != object()
        if _hashable(values):
            # the hash of the field tuple, as a frozen dataclass had it
            assert hash(a) == hash(b) == hash(values)
            assert len({a, b, c}) == 2
        else:
            with pytest.raises(TypeError):
                hash(a)

    def test_repr_names_every_field(self, cls, values, other):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(cls._fields, values))
        assert repr(cls(*values)) == f"{cls.__qualname__}({fields})"

    def test_fields_cannot_be_assigned_or_deleted(self, cls, values, other):
        record = cls(*values)
        for name in (*cls._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == cls(*values)


@pytest.mark.parametrize("cls, args, defaults", DEFAULTS,
                         ids=[cls.__name__ for cls, _, _ in DEFAULTS])
def test_default_construction(cls, args, defaults):
    record = cls(*args)
    assert {f: getattr(record, f) for f in defaults} == defaults


def test_records_of_different_types_with_equal_fields_differ():
    clauses = (((0, True), (1, False)),)
    same = [TwoSatFormula(2, clauses), CnfFormula(2, clauses)]
    assert same[0] != same[1] and same[1] != same[0]
    assert Bipartition(frozenset(), frozenset()) != \
        Digraph(0, frozenset())
    assert StrategyReport((), ()) != Bipartition((), ())


VALIDATION = [
    (lambda: TropicalGraph(-1, frozenset(), ()), "must be nonnegative"),
    (lambda: TropicalGraph(2, frozenset(), ("a",)), "expected 2 colours"),
    (lambda: TropicalGraph(2, frozenset({(1, 1)}), "ab"), "self-loop"),
    (lambda: TropicalGraph(2, frozenset({(1, 0)}), "ab"), "not normalized"),
    (lambda: TropicalGraph(2, frozenset({(0, 2)}), "ab"), "out of range"),
    (lambda: Digraph(-1, frozenset()), "must be nonnegative"),
    (lambda: Digraph(2, frozenset({(1, 1)})), "loop at vertex 1"),
    (lambda: Digraph(2, frozenset({(0, 2)})), "out of range"),
    (lambda: TwoSatFormula(-1, ()), "must be nonnegative"),
    (lambda: TwoSatFormula(2, (((0, True),),)), "exactly two literals"),
    (lambda: TwoSatFormula(1, (((0, True), (1, True)),)), "out of range"),
    (lambda: CnfFormula(-1, ()), "must be nonnegative"),
    (lambda: CnfFormula(1, ((),)), "empty clause"),
    (lambda: CnfFormula(1, (((1, True),),)), "out of range"),
    (lambda: NaeFormula(-1, ()), "must be nonnegative"),
    (lambda: NaeFormula(3, ((0, 1, 1),)), "pairwise distinct"),
    (lambda: NaeFormula(3, ((0, 1, 3),)), "out of range"),
]


@pytest.mark.parametrize("build, message", VALIDATION)
def test_validation_errors(build, message):
    with pytest.raises(InputError, match=message):
        build()


def test_cached_values_live_in_the_instance_dict():
    g = TropicalGraph(3, frozenset({(0, 1), (1, 2)}), ("a", "b", "a"))
    twin = TropicalGraph(3, frozenset({(0, 1), (1, 2)}), ("a", "b", "a"))
    assert g.adjacency is g.__dict__["adjacency"]
    assert g.colour_classes() is g.__dict__["_classes"]
    assert _kept(g, "_memo", 1, lambda: ["built"]) == ["built"]
    assert g.__dict__["_memo"] == (1, ["built"])
    assert g == twin and hash(g) == hash(twin)
    d = Digraph(2, frozenset({(0, 1)}))
    assert d.out_adjacency is d.__dict__["out_adjacency"]
    assert d.in_adjacency is d.__dict__["in_adjacency"]


class TestCachedAttribute:
    """adjacency, _classes, out_adjacency and in_adjacency are computed on
    first read and kept in the instance __dict__, outside the fields."""

    @staticmethod
    def path():
        return TropicalGraph(3, frozenset({(0, 1), (1, 2)}), ("a", "b", "a"))

    def test_first_read_is_kept(self):
        g = self.path()
        assert "adjacency" not in g.__dict__
        assert g.adjacency is g.adjacency
        assert g.__dict__["adjacency"] is g.adjacency
        assert g.adjacency == (frozenset({1}), frozenset({0, 2}),
                               frozenset({1}))
        assert g._classes is g._classes is g.__dict__["_classes"]

    def test_equality_and_hash_ignore_the_cache(self):
        cold, warm = self.path(), self.path()
        warm.adjacency, warm.colour_classes()  # noqa: B018
        assert "adjacency" in warm.__dict__
        assert "adjacency" not in cold.__dict__
        assert cold == warm and hash(cold) == hash(warm)
        assert hash(warm) == hash((warm.n, warm.edges, warm.colours))

    def test_recoloured_shares_the_adjacency(self):
        g = self.path()
        fresh = g.recoloured(("x", "y", "z"))
        assert "adjacency" not in fresh.__dict__
        g.adjacency  # noqa: B018
        again = g.recoloured(("x", "y", "z"))
        assert again.adjacency is g.adjacency
        assert again == fresh

    def test_digraph_adjacencies(self):
        d = Digraph(3, frozenset({(0, 1), (2, 1)}))
        twin = Digraph(3, frozenset({(0, 1), (2, 1)}))
        assert d.out_adjacency is d.out_adjacency
        assert d.in_adjacency is d.__dict__["in_adjacency"]
        assert d.out_adjacency == (frozenset({1}), frozenset(),
                                   frozenset({1}))
        assert d.in_adjacency == (frozenset(), frozenset({0, 2}),
                                  frozenset())
        assert d == twin and hash(d) == hash(twin)

    @pytest.mark.parametrize("cls, name", [
        (TropicalGraph, "adjacency"), (TropicalGraph, "_classes"),
        (Digraph, "out_adjacency"), (Digraph, "in_adjacency")])
    def test_class_access_returns_the_descriptor(self, cls, name):
        attr = getattr(cls, name)
        assert isinstance(attr, graphs._cached)
        assert attr is vars(cls)[name]

    def test_assignment_is_still_refused(self):
        g = self.path()
        with pytest.raises(AttributeError):
            g.adjacency = ()


def test_target_plan_holds_its_own_answers():
    first = poly._TargetPlan(("TwoSat",), len, (0, 1), False)
    second = poly._TargetPlan(("TwoSat",), len, (0, 1), False)
    first.answers["ab"] = SolveOutcome(True, {})
    assert second.answers == {}
    assert not hasattr(first, "__dict__")


# trophom.__all__ as the package exported it when it imported every
# submodule eagerly; the lazy namespace keeps exactly these names.
PUBLIC = [
    "Bipartition", "Colour", "CoreResult", "Digraph", "Enumeration",
    "FeatureSet", "InputError", "PreconditionError", "ReducedInstance",
    "SolveOutcome", "StrategyReport", "TropicalGraph", "TwoSatFormula",
    "VertexMap", "ac_reduce", "bipartition", "colour_class_pairs",
    "colour_lists", "connected_components", "core", "cores", "cycle_graph",
    "detect_features", "dgraph", "dispatch_solve", "enumerate_homs",
    "find_proper_retract", "forcing_vertices", "graphs", "is_core",
    "iso_check", "path_graph", "plain", "poly", "reduce_by_features",
    "solve_2sat", "solve_all_forcing", "solve_by_colour_pairs",
    "solve_digraph_hom", "solve_list_hom", "solve_retraction",
    "solve_trop_hom", "solve_via_pairs", "solver", "split_colours",
    "split_instance", "tgraph", "two_sat", "validate_hom",
]


class TestNamespace:
    def test_all_keeps_the_public_names(self):
        assert len(PUBLIC) == 49
        assert sorted(trophom.__all__) == PUBLIC

    def test_star_import_binds_every_name(self):
        scope: dict = {}
        exec("from trophom import *", scope)
        assert set(PUBLIC) <= set(scope)
        assert scope["tgraph"] is graphs.tgraph
        assert scope["poly"] is poly

    def test_dir_lists_every_name(self):
        assert set(PUBLIC) <= set(dir(trophom))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            trophom.no_such_name  # noqa: B018
