import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trophom import (FeatureSet, InputError, PreconditionError, cycle_graph,
                     detect_features, dispatch_solve, forcing_vertices,
                     path_graph, plain, reduce_by_features, solve_2sat,
                     solve_all_forcing, solve_by_colour_pairs, solve_list_hom,
                     solve_trop_hom, solve_via_pairs, tgraph, two_sat,
                     validate_hom)
from trophom.gadgets import build_c48, build_h9, nae3sat_to_c48, nae_formula
from trophom import poly
from trophom.poly import ROUTE_FALLBACK, StrategyReport
from trophom.solver import SolveOutcome
from trophom.graphs import _traverse, connected_components
from trophom.testing import (random_bipartite, random_forcing_tree,
                             random_source, random_tropical)
from trophom.verify import trop_hom_brute


def brute_2sat(f):
    """Truth-table oracle."""
    for mask in range(1 << f.n_vars):
        ok = True
        for (a, pa), (b, pb) in f.clauses:
            va = bool(mask >> a & 1) == pa
            vb = bool(mask >> b & 1) == pb
            if not (va or vb):
                ok = False
                break
        if ok:
            return True
    return False


def all_clauses(n_vars):
    lits = [(v, p) for v in range(n_vars) for p in (True, False)]
    seen = set()
    out = []
    for i, la in enumerate(lits):
        for lb in lits[i:]:
            key = frozenset((la, lb))
            if key not in seen:
                seen.add(key)
                out.append((la, lb))
    return out


class TestForcingVertices:
    def test_three_colour_path(self):
        p = path_graph(["R", "B", "G"])
        assert forcing_vertices(p) == frozenset({0, 1, 2})

    def test_star_with_repeated_leaf_colour(self):
        star = tgraph(3, [(0, 1), (0, 2)], ["White", "Black", "Black"])
        assert 0 not in forcing_vertices(star)
        assert forcing_vertices(star) == frozenset({1, 2})

    def test_c48_forcing_set(self):
        g = build_c48("four", 24).graph
        got = forcing_vertices(g)
        # fixture frozen from a direct scan: exactly the Yellow vertices
        # beside a Red or corner vertex qualify, 4 per arc
        assert len(got) == 24
        for v in range(g.n):
            nbr_colours = [g.colours[w] for w in g.adjacency[v]]
            distinct = len(nbr_colours) == len(set(nbr_colours))
            assert (v in got) == distinct


class TestSolveAllForcing:
    def test_equal_paths(self):
        p = path_graph(["R", "B", "G"])
        assert solve_all_forcing(p, p).solvable

    def test_repeated_colour_folds_to_one_neighbour(self):
        target = path_graph(["R", "B", "G"])
        src = path_graph(["G", "B", "G"])
        assert trop_hom_brute(src, target)  # oracle
        out = solve_all_forcing(src, target)
        assert out.solvable and validate_hom(src, target, out.witness)

    def test_r_b_r_source_is_solvable(self):
        # both R ends land on the target's R vertex
        target = path_graph(["R", "B", "G"])
        src = path_graph(["R", "B", "R"])
        assert trop_hom_brute(src, target)  # oracle
        assert solve_all_forcing(src, target).solvable

    def test_unsolvable_fixtures(self):
        target = path_graph(["R", "B", "G"])
        bb = path_graph(["R", "B", "B"])
        assert not trop_hom_brute(bb, target)  # oracle: no B-B edge
        assert not solve_all_forcing(bb, target).solvable
        triangle = tgraph(3, [(0, 1), (1, 2), (0, 2)], ["R", "B", "G"])
        assert not trop_hom_brute(triangle, target)  # oracle: odd cycle
        assert not solve_all_forcing(triangle, target).solvable

    def test_precondition(self):
        star = tgraph(3, [(0, 1), (0, 2)], ["W", "B", "B"])
        with pytest.raises(PreconditionError):
            solve_all_forcing(plain(1, [], colour="W"), star)

    def test_forcing_tables_refuse_exactly_the_non_forcing_targets(self):
        # The tables come from one pass over the neighbourhoods; a target
        # they accept gets what a table per vertex from its whole
        # neighbourhood gives.
        rng = random.Random(77)
        targets = [random_forcing_tree(rng, 8) for _ in range(100)]
        targets += [random_tropical(rng, 8, "abc") for _ in range(200)]
        kinds = set()
        for t in targets:
            forcing = len(forcing_vertices(t)) == t.n
            kinds.add(forcing)
            if not forcing:
                with pytest.raises(PreconditionError):
                    poly._forcing_tables(t)
                continue
            assert poly._forcing_tables(t) == tuple(
                {t.colours[w]: w for w in t.adjacency[v]}
                for v in range(t.n))
        assert kinds == {True, False}

    def test_oracle_equivalence_on_seeded_suite(self):
        rng = random.Random(500)
        for _ in range(500):
            target = random_forcing_tree(rng, 6)
            assert forcing_vertices(target) == frozenset(range(target.n))
            src = random_tropical(rng, 12, list(set(target.colours)) + ["zz"],
                                  edge_prob=0.3)
            out = solve_all_forcing(src, target)
            assert out.solvable == trop_hom_brute(src, target)
            if out.solvable:
                assert validate_hom(src, target, out.witness)


class TestTwoSat:
    def test_simple_satisfiable(self):
        f = two_sat(2, [((0, True), (1, True)), ((0, False), (1, True))])
        result = solve_2sat(f)
        assert result is not None and result[1] is True

    def test_simple_unsatisfiable(self):
        f = two_sat(1, [((0, True), (0, True)), ((0, False), (0, False))])
        assert solve_2sat(f) is None

    def test_list_literals_are_normalised(self):
        lists = two_sat(2, [[[0, True], [1, False]]])
        tuples = two_sat(2, [((0, True), (1, False))])
        assert lists == tuples and hash(lists) == hash(tuples)

    def test_exhaustive_two_variables(self):
        clauses = all_clauses(2)
        for r in range(len(clauses) + 1):
            for chosen in combinations(clauses, r):
                f = two_sat(2, chosen)
                got = solve_2sat(f)
                want = brute_2sat(f)
                assert (got is not None) == want
                if got is not None:
                    for (a, pa), (b, pb) in chosen:
                        assert (got[a] == pa) or (got[b] == pb)

    def test_seeded_random_three_four_variables(self):
        rng = random.Random(2024)
        for _ in range(2000):
            n = rng.randint(3, 4)
            pool = all_clauses(n)
            f = two_sat(n, [rng.choice(pool)
                            for _ in range(rng.randint(0, 8))])
            got = solve_2sat(f)
            assert (got is not None) == brute_2sat(f)
            if got is not None:
                for (a, pa), (b, pb) in f.clauses:
                    assert (got[a] == pa) or (got[b] == pb)


class TestSolveViaPairs:
    def test_single_vertex_two_candidates(self):
        target = tgraph(2, [], ["c", "c"])
        src = plain(1, [], colour="c")
        out = solve_via_pairs(src, target, [(0, 1)], {0: 0})
        assert out.solvable

    def test_edge_with_no_target_edge(self):
        target = tgraph(4, [(0, 1)], ["a", "b", "c", "d"])
        src = tgraph(2, [(0, 1)], ["c", "d"])
        out = solve_via_pairs(src, target, [(2,), (3,)], {0: 0, 1: 1})
        assert not out.solvable

    def test_dependent_pair_set_rejected(self):
        target = tgraph(2, [(0, 1)], ["a", "a"])
        with pytest.raises(PreconditionError):
            solve_via_pairs(plain(1, [], "a"), target, [(0, 1)], {0: 0})

    def test_direct_calls_check_their_sets_on_a_planned_target(self):
        # A target that keeps its colour-class pairs still has every
        # caller-supplied pair set checked.
        target = cycle_graph(["A0", "B0", "A0", "B0", "A1", "B1"])
        assert solve_by_colour_pairs(target, target).solvable
        src = plain(1, [], "A0")
        with pytest.raises(PreconditionError, match="not independent"):
            solve_via_pairs(src, target, [(0, 1)], {0: 0})
        with pytest.raises(PreconditionError, match="1 or 2 vertices"):
            solve_via_pairs(src, target, [(0, 2, 4)], {0: 0})
        with pytest.raises(InputError, match="mentions vertex 6"):
            solve_via_pairs(src, target, [(0, 6)], {0: 0})

    def test_set_with_no_member_of_the_colour_refutes(self):
        # Mixed-colour set (a, b): a source vertex of colour c has no
        # member it may map to.
        target = tgraph(2, [], ["a", "b"])
        src = plain(1, [], colour="c")
        assert not solve_via_pairs(src, target, [(0, 1)], {0: 0}).solvable
        assert not trop_hom_brute(src, target)

    def test_second_member_alone_gives_a_negative_unit_clause(self):
        # Only the second member of (a, b) wears the vertex's colour b, so
        # the vertex is held FALSE, and maps onto it.
        target = tgraph(2, [], ["a", "b"])
        src = plain(1, [], colour="b")
        out = solve_via_pairs(src, target, [(0, 1)], {0: 0})
        assert out.solvable and out.witness == {0: 1}
        assert validate_hom(src, target, out.witness)

    def test_colour_class_of_three_is_refused_every_time(self):
        target = cycle_graph(["a", "b", "a", "b", "a", "c"])
        for _ in range(2):
            with pytest.raises(PreconditionError, match="used 3 times"):
                solve_by_colour_pairs(plain(1, [], "a"), target)

    def test_colour_pair_rule_matches_oracle(self):
        rng = random.Random(321)
        done = 0
        while done < 500:
            # bipartite target, side palettes disjoint, each colour <= twice
            target = random_bipartite(rng, 8, ["a1", "a2", "a3", "a4"],
                                      ["b1", "b2", "b3", "b4"])
            if any(len(vs) > 2 for vs in target.colour_classes().values()):
                continue
            done += 1
            src = random_bipartite(
                rng, 8, ["a1", "a2", "a3", "a4"], ["b1", "b2", "b3", "b4"])
            out = solve_by_colour_pairs(src, target)
            assert out.solvable == trop_hom_brute(src, target)
            if out.solvable:
                assert validate_hom(src, target, out.witness)


class TestDetectFeatures:
    def test_h9_pendants_are_type1(self):
        h9 = build_h9()
        fs = detect_features(h9.graph)
        pendants = {h9["red"], h9["green"], h9["yellow"]}
        assert set(fs.type1) == pendants

    def test_unique_edge_is_type2(self):
        g = tgraph(4, [(0, 1), (1, 2), (2, 3)], ["R", "B", "W", "B"])
        fs = detect_features(g)
        assert (0, 1) in fs.type2       # the only R-B edge
        assert (1, 2) not in fs.type2 or (2, 3) not in fs.type2

    def test_equal_coloured_unique_edge_excluded_from_type2(self):
        g = tgraph(4, [(0, 1), (1, 2), (2, 3)], ["R", "B", "B", "G"])
        fs = detect_features(g)
        assert (1, 2) not in fs.type2

    def test_monochromatic_star_centre_is_type3(self):
        g = tgraph(4, [(0, 1), (0, 2), (2, 3)],
                   ["Hub", "Leaf", "Leaf", "Other"])
        fs = detect_features(g)
        assert 0 in fs.type3

    def test_type4_on_forcing_path_middle(self):
        g = path_graph(["R", "B", "G"])
        fs = detect_features(g)
        assert 1 in fs.type4

    def test_type4_excluded_when_pattern_repeats(self):
        # two vertices of colour B each seeing colours R and G
        g = tgraph(6, [(0, 1), (1, 2), (3, 4), (4, 5)],
                   ["R", "B", "G", "R", "B", "G"])
        fs = detect_features(g)
        assert 1 not in fs.type4 and 4 not in fs.type4

    def test_memberships_recheckable(self):
        rng = random.Random(12)
        from trophom.poly import (_colour_pair_counts, _is_type1, _is_type2,
                                  _is_type3, _is_type4, _nbr_colours)
        for _ in range(50):
            g = random_tropical(rng, 7, ["a", "b", "c"])
            fs = detect_features(g)
            forcing = forcing_vertices(g)
            pairs, ncol = _colour_pair_counts(g), _nbr_colours(g)
            for u in range(g.n):
                assert (u in fs.type1) == _is_type1(g, u)
                assert (u in fs.type3) == _is_type3(g, u, ncol)
                assert (u in fs.type4) == _is_type4(g, u, forcing, ncol)
            for e in g.edges:
                assert (e in fs.type2) == _is_type2(g, e, pairs)


class TestReduceByFeatures:
    @pytest.mark.parametrize("target, features", [
        # vertex 0 is both a type-1 and a type-3 feature, claimed twice
        (path_graph(["R", "B", "G"]),
         FeatureSet(type1=frozenset({0}), type3=frozenset({0}))),
        # type-4 vertex 1 borders the deleted type-1 vertex 0
        (path_graph(["R", "B", "G"]),
         FeatureSet(type1=frozenset({0}), type4=frozenset({1}))),
        # vertex 1 sees two colours, so it is no type-3 feature
        (path_graph(["R", "B", "G"]), FeatureSet(type3=frozenset({1}))),
        # the colour pair of edge (0, 1) repeats on edge (2, 3)
        (tgraph(4, [(0, 1), (2, 3)], ["R", "B", "R", "B"]),
         FeatureSet(type2=frozenset({(0, 1)}))),
        # feature vertices outside 0..n-1; -1 must not pass as vertex n-1
        (path_graph(["R", "B", "G"]), FeatureSet(type1=frozenset({99}))),
        (path_graph(["R", "B", "G"]), FeatureSet(type1=frozenset({-1}))),
        (path_graph(["R", "B", "G"]), FeatureSet(type3=frozenset({3}))),
        (path_graph(["R", "B", "G"]), FeatureSet(type4=frozenset({7}))),
    ])
    def test_invalid_feature_sets_are_rejected(self, target, features):
        src = plain(1, [], colour="R")
        with pytest.raises(InputError):
            reduce_by_features(src, target, features)

    def test_invalid_set_raises_after_a_valid_one(self):
        g = path_graph(["R", "B", "G"])
        src = plain(1, [], colour="R")
        assert reduce_by_features(src, g, FeatureSet(type1=frozenset({0})))
        with pytest.raises(InputError):
            reduce_by_features(src, g, FeatureSet(type3=frozenset({1})))
        assert reduce_by_features(src, g, FeatureSet(type1=frozenset({0})))

    def test_planned_set_is_validated_once(self, monkeypatch):
        calls = []
        validate = poly._validate_features

        def counted(target, s):
            calls.append(target)
            return validate(target, s)

        monkeypatch.setattr(poly, "_validate_features", counted)
        h9 = build_h9().graph
        s = FeatureSet(type1=detect_features(h9).type1)
        rng = random.Random(32)
        for _ in range(20):
            src = random_tropical(rng, 6, ["Black", "Red", "Green"])
            reduce_by_features(src, h9, s)
        assert len(calls) == 1

    def test_empty_set_is_identity(self):
        g = cycle_graph(["R", "B"] * 3)
        src = path_graph(["R", "B", "R"])
        red = reduce_by_features(src, g, FeatureSet())
        assert red.target == g
        assert red.source == src
        assert red.lists == {v: frozenset(
            i for i in range(6) if g.colours[i] == src.colours[v])
            for v in range(3)}

    def test_h9_pendant_elimination_gives_black_c6(self):
        h9 = build_h9()
        fs = detect_features(h9.graph)
        s = FeatureSet(type1=fs.type1)
        src = tgraph(3, [(0, 1), (1, 2)], ["Red", "Black", "Black"])
        red = reduce_by_features(src, h9.graph, s)
        assert red.target.n == 6
        assert set(red.target.colours) == {"Black"}
        assert len(red.target.edges) == 6
        # the Red source vertex is pinned onto the pendant and removed;
        # its neighbour's list shrinks to the pendant's attachment point
        assert red.pinned == {0: h9["red"]}
        assert red.lists[red.source_to_original.index(1)] == \
            frozenset({h9["1"]})

    def test_type4_pendant_surgery_counts(self):
        # degree-2 type-4 vertex: one vertex becomes two pendant copies
        g = path_graph(["R", "B", "G"])
        s = FeatureSet(type4=frozenset({1}))
        src = plain(1, [], colour="B")
        red = reduce_by_features(src, g, s)
        assert red.target.n == g.n + 1
        assert len(red.target.edges) == len(g.edges)

    def test_status_preserved_on_h9_suite(self):
        h9 = build_h9().graph
        s = FeatureSet(type1=detect_features(h9).type1)
        rng = random.Random(31337)
        palette = ["Black", "Red", "Green", "Yellow"]
        for _ in range(200):
            src = random_tropical(rng, 8, palette, edge_prob=0.35)
            want = trop_hom_brute(src, h9)
            red = reduce_by_features(src, h9, s)
            if red is None:
                assert not want
                continue
            got = solve_list_hom(red.source, red.target, red.lists).solvable
            assert got == want

    def test_status_preserved_with_all_kinds(self):
        rng = random.Random(424242)
        from trophom.poly import _disjoint_features
        checked = 0
        for _ in range(400):
            tgt = random_tropical(rng, 7, ["a", "b", "c"], edge_prob=0.35)
            fs = _disjoint_features(detect_features(tgt), tgt)
            if not fs:
                continue
            checked += 1
            src = random_tropical(rng, 8, ["a", "b", "c"], edge_prob=0.35)
            want = trop_hom_brute(src, tgt)
            red = reduce_by_features(src, tgt, fs)
            if red is None:
                assert not want
                continue
            got = solve_list_hom(red.source, red.target, red.lists).solvable
            assert got == want
        assert checked > 200


class TestTypeFourElimination:
    """reduce_by_features on type-4 vertices: a source vertex of u's colour
    that sees two of the colours around u must land on u, its neighbours
    on the one neighbour of u of their colour.  Target R-B-G, with B as
    the type-4 vertex; PLUS adds a second B vertex that sees only a
    type-1 Y vertex, so that a B source vertex's list is {1, 3}."""

    PATH = path_graph(["R", "B", "G"])
    PLUS = tgraph(5, [(0, 1), (1, 2), (3, 4)], ["R", "B", "G", "B", "Y"])
    TYPE4 = FeatureSet(type4=frozenset({1}))

    def test_pattern_vertex_is_pinned_and_its_neighbours_land(self):
        src = path_graph(["R", "B", "G"])
        red = reduce_by_features(src, self.PATH, self.TYPE4)
        assert red.pinned == {1: 1}
        assert red.source_to_original == (0, 2)
        assert red.source.edges == frozenset()
        assert [red.target_to_original[t] for v in range(2)
                for t in red.lists[v]] == [0, 2]
        out = poly._solve_by_features(src, self.PATH, self.TYPE4)
        assert out.witness == {0: 0, 1: 1, 2: 2}

    @pytest.mark.parametrize("src, features", [
        # type-1 vertex 4 pins the Y neighbour, so the B vertex's list
        # shrinks to {3}, which lacks the type-4 vertex 1
        (tgraph(4, [(0, 1), (0, 2), (0, 3)], ["B", "R", "G", "Y"]),
         FeatureSet(type1=frozenset({4}), type4=frozenset({1}))),
        # two adjacent B vertices, each seeing R and G
        (tgraph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)],
                ["B", "B", "R", "G", "R", "G"]),
         FeatureSet(type4=frozenset({1}))),
        # a Y neighbour of the pattern vertex: no neighbour of 1 is Y
        (tgraph(4, [(0, 1), (0, 2), (0, 3)], ["B", "R", "G", "Y"]),
         FeatureSet(type4=frozenset({1}))),
    ], ids=["list-lacks-u", "adjacent-pattern", "boundary-colour"])
    def test_refutations(self, src, features):
        assert reduce_by_features(src, self.PLUS, features) is None
        assert not trop_hom_brute(src, self.PLUS)

    def test_status_and_witness_match_brute_force(self):
        rng = random.Random(404)
        pinned = refuted = 0
        for features in (self.TYPE4,
                         FeatureSet(type1=frozenset({4}),
                                    type4=frozenset({1}))):
            for _ in range(300):
                src = random_source(rng, self.PLUS, 8)
                want = trop_hom_brute(src, self.PLUS)
                red = reduce_by_features(src, self.PLUS, features)
                pinned += bool(red and 1 in red.pinned.values())
                refuted += red is None
                out = poly._solve_by_features(src, self.PLUS, features)
                assert out.solvable == want
                if want:
                    assert validate_hom(src, self.PLUS, out.witness)
        assert pinned > 30 and refuted > 30


class TestDispatch:
    def test_matches_ground_truth_on_seeded_suite(self):
        rng = random.Random(888)
        for _ in range(250):
            src = random_tropical(rng, 8, ["a", "b", "c"], edge_prob=0.3)
            tgt = random_tropical(rng, 7, ["a", "b", "c"], edge_prob=0.35)
            out, report = dispatch_solve(src, tgt)
            assert out.solvable == trop_hom_brute(src, tgt), report
            if out.solvable:
                assert validate_hom(src, tgt, out.witness)
            assert report.route
            if ROUTE_FALLBACK in report.route:
                assert report.route[-1] == ROUTE_FALLBACK

    def test_route_for_identity_instances(self):
        g = cycle_graph(["R", "B", "G", "R", "B", "G"])
        out, report = dispatch_solve(g, g)
        assert out.solvable
        assert ROUTE_FALLBACK not in report.route

    def test_disconnected_source_is_a_conjunction(self):
        target = path_graph(["R", "B", "G"])
        both_ok = tgraph(4, [(0, 1), (2, 3)], ["R", "B", "B", "G"])
        out, _ = dispatch_solve(both_ok, target)
        assert out.solvable and validate_hom(both_ok, target, out.witness)
        one_bad = tgraph(4, [(0, 1), (2, 3)], ["R", "B", "B", "B"])
        out, _ = dispatch_solve(one_bad, target)
        assert not out.solvable

    def test_disconnected_target_components_are_alternatives(self):
        target = tgraph(5, [(0, 1), (2, 3), (3, 4)],
                        ["R", "B", "X", "Y", "Z"])
        src = path_graph(["X", "Y", "Z"])
        out, _ = dispatch_solve(src, target)
        assert out.solvable
        assert trop_hom_brute(src, target)
        assert validate_hom(src, target, out.witness)

    def test_empty_target(self):
        # only the empty source maps to the empty target
        empty = tgraph(0, [], [])
        out, report = dispatch_solve(tgraph(0, [], []), empty)
        assert out.solvable and out.witness == {}
        assert report.route == (poly.ROUTE_FORCING,) and report.notes == ()
        out, report = dispatch_solve(plain(2, [(0, 1)]), empty)
        assert not out.solvable
        assert report.route == (poly.ROUTE_FORCING,) and report.notes == ()


@st.composite
def tropical_graphs(draw, max_n, twice=False):
    """Graphs of order 0..max_n over one to three colours.  With twice, a
    graph of at most half that order may come back beside a copy of
    itself, which is disconnected and never a core."""
    n = draw(st.integers(0, max_n))
    palette = "abc"[:draw(st.integers(1, 3))]
    colours = draw(st.lists(st.sampled_from(palette), min_size=n,
                            max_size=n))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs \
        else []
    g = tgraph(n, edges, colours)
    if twice and 2 * n <= max_n and draw(st.booleans()):
        g = _disjoint(g, g)
    return g


class TestDispatchAgainstBruteForce:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_status_matches_brute_force(self, data):
        target = data.draw(tropical_graphs(6, twice=True).filter(
            lambda g: g.n > 0))
        source = data.draw(tropical_graphs(5))
        out, report = dispatch_solve(source, target)
        assert out.solvable == trop_hom_brute(source, target), report
        if out.solvable:
            assert validate_hom(source, target, out.witness)


class TestPlanWork:
    """Planning and splitting build only what they read."""

    def test_disconnected_source_leaves_adjacency_unbuilt(self):
        target = path_graph(["a", "b", "a", "b", "a"])
        for _ in range(2):  # a fresh plan, then the cached one
            source = tgraph(5, [(0, 1), (2, 3)], list("ababa"))
            out, _ = dispatch_solve(source, target)
            assert out.solvable and validate_hom(source, target, out.witness)
            assert "adjacency" not in source.__dict__

    @pytest.mark.parametrize("component", [
        cycle_graph(["a", "b"] * 3),          # bipartite: split
        cycle_graph(["a", "b", "c"] * 2 + ["a"]),  # odd cycle: not split
        path_graph(["a", "b", "a", "b", "a"]),  # folds, then split
    ])
    def test_planning_a_component_runs_one_bfs(self, monkeypatch,
                                               component):
        runs = []

        def counted(g):
            runs.append(g)
            return _traverse(g)

        monkeypatch.setattr("trophom.graphs._traverse", counted)
        plan = poly._plan_target(component, tuple(range(component.n)))
        assert len(runs) == 1
        assert plan.split == (poly.ROUTE_SPLIT in plan.steps)


    def test_all_forcing_components_skip_core(self, monkeypatch):
        # A connected all-forcing component is its own core, so its plan
        # calls no core; every other component is planned with one.
        calls = []
        real_core = poly.core

        def counting_core(g):
            calls.append(g)
            return real_core(g)

        monkeypatch.setattr(poly, "core", counting_core)
        rng = random.Random(2121)
        graphs = [random_forcing_tree(rng, 8) for _ in range(40)]
        graphs += [random_tropical(rng, 8, "ab", min_n=2) for _ in range(80)]
        planned = {True: 0, False: 0}
        for g in graphs:
            for tc, _ in connected_components(g):
                forcing = len(forcing_vertices(tc)) == tc.n
                planned[forcing] += 1
                calls.clear()
                plan = poly._plan_target(tc, tuple(range(tc.n)))
                assert len(calls) == (0 if forcing else 1)
                if forcing:
                    # what the skipped call would have found
                    assert real_core(tc).graph == tc
                    assert poly.ROUTE_CORE not in plan.steps
                    assert plan.to_original == tuple(range(tc.n))
        assert planned[True] >= 40 and planned[False] >= 40


class TestPlanCache:
    def test_equal_target_is_planned_once(self, monkeypatch):
        calls = []
        real_core = poly.core

        def counting_core(g):
            calls.append(g)
            return real_core(g)

        monkeypatch.setattr(poly, "core", counting_core)
        target = build_h9().graph
        src = cycle_graph(["Black"] * 6)
        first, _ = dispatch_solve(src, target)
        assert calls
        calls.clear()
        again, _ = dispatch_solve(src, target)
        rebuilt = tgraph(target.n, sorted(target.edges), list(target.colours))
        assert rebuilt is not target
        equal, _ = dispatch_solve(src, rebuilt)
        assert calls == []
        assert first == again == equal

    def test_cold_and_warm_calls_agree(self):
        rng = random.Random(888)
        cases = [(cycle_graph(["x"] * 5), cycle_graph(["x"] * 6))]
        for _ in range(150):
            cases.append((random_tropical(rng, 8, ["a", "b", "c"],
                                          edge_prob=0.3),
                          random_tropical(rng, 7, ["a", "b", "c"],
                                          edge_prob=0.35)))
        for src, tgt in cases:
            poly._plan_dispatch.cache_clear()
            cold = dispatch_solve(src, tgt)
            assert poly._plan_dispatch.cache_info().currsize == 1
            assert dispatch_solve(src, tgt) == cold
            assert dispatch_solve(src, tgt) == cold
        # the odd cycle's source note is not kept in the cached plan
        _, report = dispatch_solve(*cases[0])
        assert report.notes == ("target: CoreReduced -> SplitColours -> "
                                "AllForcing",
                                "source[0]: odd cycle against a bipartite "
                                "target")

    def test_cache_is_bounded(self):
        src = path_graph(["c0", "c1"])
        for k in range(poly._PLAN_CACHE + 5):
            dispatch_solve(src, path_graph([f"c{i}" for i in range(k + 1)]))
        assert poly._plan_dispatch.cache_info().currsize <= poly._PLAN_CACHE

    def test_forcing_tables_built_once_per_plan(self, monkeypatch):
        # The route check and every solve against the planned target share
        # one build of the forcing tables.
        builds, plans, solves = [], [], []

        def counting(log, real):
            def wrapper(*args):
                log.append(args)
                return real(*args)
            return wrapper

        for name, log in (("_forcing_tables", builds),
                          ("_plan_target", plans),
                          ("solve_all_forcing", solves)):
            monkeypatch.setattr(poly, name, counting(log, getattr(poly, name)))
        rng = random.Random(515)
        targets = [random_forcing_tree(rng, 8) for _ in range(6)]
        for _ in range(300):
            target = rng.choice(targets)
            dispatch_solve(random_source(rng, target), target)
        assert builds and len(builds) <= len(plans) < len(solves)


class TestPreparedTarget:
    """A planned target keeps what its solves share: the checked pair sets
    and the pruned feature target."""

    @staticmethod
    def counting(monkeypatch, names):
        logs = {}
        for name in names:
            real = getattr(poly, name)
            log = logs[name] = []

            def wrapper(*args, real=real, log=log):
                log.append(args)
                return real(*args)
            monkeypatch.setattr(poly, name, wrapper)
        return logs

    def test_pair_sets_checked_once_per_plan(self, monkeypatch):
        logs = self.counting(monkeypatch, ("colour_class_pairs",
                                           "_check_pair_sets", "_plan_target",
                                           "solve_by_colour_pairs"))
        target = cycle_graph(["A0", "B0", "A0", "B0", "A1", "B1"])
        poly._plan_dispatch.cache_clear()
        rng = random.Random(77)
        for _ in range(300):
            dispatch_solve(random_source(rng, target), target)
        plans = len(logs["_plan_target"])
        assert len(logs["solve_by_colour_pairs"]) > 100 * plans
        assert 1 <= len(logs["colour_class_pairs"]) <= plans
        assert 1 <= len(logs["_check_pair_sets"]) <= plans

    def test_sources_share_one_pruned_target(self):
        h9 = build_h9().graph
        full = poly._disjoint_features(detect_features(h9), h9)
        rng = random.Random(5)
        sources = [random_source(rng, h9) for _ in range(30)]
        reduced = [r for r in (reduce_by_features(src, h9, full)
                               for src in sources) if r is not None]
        assert len(reduced) > 5
        assert all(r.target is reduced[0].target for r in reduced)
        # the same reductions as against an equal target never reduced
        for src in sources:
            fresh = tgraph(h9.n, h9.edges, h9.colours)
            assert reduce_by_features(src, fresh, full) == \
                reduce_by_features(src, h9, full)
        other = FeatureSet(type1=frozenset(sorted(full.type1)[:1]))
        again = reduce_by_features(h9, h9, other)
        assert again.target is not reduced[0].target
        assert again.target.n == reduced[0].target.n + 2


class TestDispatchStats:
    # A connected 8-vertex core that is not bipartite, has colour classes
    # of four and no unique feature: only the exact solver applies to it.
    CORE8 = tgraph(8, [(0, 2), (0, 5), (0, 7), (1, 5), (1, 6), (1, 7),
                       (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (4, 5),
                       (5, 7)], list("bbbaabab"))

    def test_fallback_nodes_are_the_solvers(self):
        rng = random.Random(31)
        searched = 0
        for _ in range(120):
            src = random_source(rng, self.CORE8, 12)
            if len(connected_components(src)) != 1:
                continue
            out, report = dispatch_solve(src, self.CORE8)
            assert report.route == (ROUTE_FALLBACK,)
            direct = solve_trop_hom(src, self.CORE8)
            assert out == direct
            searched += direct.nodes > 0
        assert searched > 20


def _disjoint(*graphs):
    """The disjoint union, components in the order given."""
    edges, colours = [], []
    for g in graphs:
        edges += [(u + len(colours), v + len(colours)) for u, v in g.edges]
        colours += g.colours
    return tgraph(len(colours), edges, colours)


def _composed(source, target):
    """dispatch_solve(source, target) put together from cold dispatches of
    each source component alone."""
    witness, nodes, passes, notes = {}, 0, 0, []
    for si, (sc, smap) in enumerate(connected_components(source)):
        poly._plan_dispatch.cache_clear()
        out, report = dispatch_solve(sc, target)
        target_notes = [n for n in report.notes
                        if not n.startswith("source[0]")]
        notes += [f"source[{si}]" + n[len("source[0]"):]
                  for n in report.notes if n.startswith("source[0]")]
        nodes += out.nodes
        passes += out.passes
        if not out.solvable:
            witness = None
            break
        witness.update((smap[v], img) for v, img in out.witness.items())
    return (SolveOutcome(witness is not None, witness, nodes, passes),
            StrategyReport(report.route, tuple(target_notes + notes)))


class TestSmallComponentAnswers:
    """Each plan keeps its answers for source components of one or two
    vertices, keyed by their colours."""

    # One target per route, without and with the colour split.
    TARGETS = [
        (tgraph(6, [(0, 1), (0, 3), (0, 4), (0, 5), (1, 4), (2, 3), (2, 4)],
                "bcbcab"), ("AllForcing",)),
        (cycle_graph(["A0", "B0", "A1", "B1", "A2", "B2", "A3", "B3"]),
         ("SplitColours", "AllForcing")),
        (tgraph(5, [(0, 2), (0, 3), (1, 2), (1, 4), (3, 4)], "ccaba"),
         ("TwoSat",)),
        (cycle_graph(["A0", "B0", "A0", "B0", "A1", "B1"]),
         ("SplitColours", "TwoSat")),
        (tgraph(6, [(0, 1), (0, 3), (0, 5), (1, 2), (1, 3), (1, 5), (2, 4),
                    (2, 5), (3, 4), (3, 5), (4, 5)], "dcdcdb"),
         ("UniqueFeature",)),
        (cycle_graph(["A0", "B0", "A0", "B1", "A0", "B2"]),
         ("SplitColours", "UniqueFeature")),
        (TestDispatchStats.CORE8, ("ExactFallback",)),
        (build_c48().graph, ("SplitColours", "ExactFallback")),
    ]

    @staticmethod
    def small_sources(target):
        """Every vertex and edge over the target's colours and one colour
        the target lacks."""
        palette = sorted(set(target.colours)) + ["missing"]
        out = [path_graph([c]) for c in palette]
        out += [path_graph([c, d]) for c in palette for d in palette]
        return out

    def test_hits_equal_cold_dispatches(self):
        for target, steps in self.TARGETS:
            poly._plan_dispatch.cache_clear()
            plans, _, _ = poly._plan_dispatch(target)
            assert plans[0].steps[-len(steps):] == steps
            small = self.small_sources(target)
            # a path and a triangle of one colour: three vertices do not
            # fix a component, so only the path may be answered by colours
            three = [target.colours[0]] * 3
            mixed = [_disjoint(*small[:5], path_graph(three), *small[:5]),
                     _disjoint(cycle_graph(three), *small[:3]),
                     _disjoint(*small[::-1])]
            cold = [_composed(src, target) for src in small + mixed]
            for _ in range(2):
                warm = [dispatch_solve(src, target) for src in small + mixed]
                assert warm == cold
            assert poly._plan_dispatch(target)[0][0].answers

    def test_full_memo_starts_over(self, monkeypatch):
        monkeypatch.setattr(poly, "_ANSWERS_BOUND", 3)
        target, _ = self.TARGETS[1]
        small = self.small_sources(target)
        cold = [_composed(src, target) for src in small]
        poly._plan_dispatch.cache_clear()
        sizes = []
        for src, want in zip(small, cold):
            assert dispatch_solve(src, target) == want
            sizes.append(len(poly._plan_dispatch(target)[0][0].answers))
        assert sizes[:5] == [1, 2, 3, 1, 2]
        assert max(sizes) == 3

    def test_isolated_vertices_solve_once_per_plan(self, monkeypatch):
        calls = []
        for name in ("solve_all_forcing", "solve_by_colour_pairs",
                     "_solve_by_features", "solve_trop_hom"):
            def counted(*args, _real=getattr(poly, name)):
                calls.append(args[0])
                return _real(*args)
            monkeypatch.setattr(poly, name, counted)
        c48 = build_c48().graph
        core8 = TestDispatchStats.CORE8
        for target, colour in ((core8, "a"), (c48, c48.colours[0]),
                               (_disjoint(cycle_graph(["x", "y", "z"]), core8),
                                "a")):
            counts = []
            for k in (1, 2, 5):
                poly._plan_dispatch.cache_clear()
                calls.clear()
                out, _ = dispatch_solve(plain(k, [], colour), target)
                assert out.solvable
                counts.append(len(calls))
            assert counts[0] == counts[1] == counts[2] >= 1
        # the two-component target solves once against each plan
        assert counts[0] == 2


class TestGadgetDispatchPin:
    """Pinned dispatches of NAE gadgets against C48.  C48 is bipartite, so
    each gadget is solved as two colour-split variants; one wears colours
    the split target lacks and is refuted by an empty list."""

    @pytest.mark.parametrize("n_vars, clauses, n, solvable, nodes, passes, "
                             "images_sha256", [
        (4, [(0, 1, 2), (1, 2, 3), (0, 1, 3)], 946, True, 2, 7872,
         "8c660a870c919484f2b0d37c77f5cb00b14d2381a1f94fb92f45bd181dfad653"),
        (5, list(combinations(range(5), 3)), 2181, False, 15, 71676, None),
    ], ids=["sat", "unsat"])
    def test_nae_gadget_against_c48(self, n_vars, clauses, n, solvable,
                                    nodes, passes, images_sha256):
        inst = nae3sat_to_c48(nae_formula(n_vars, clauses)).graph
        out, report = dispatch_solve(inst, build_c48().graph)
        assert inst.n == n
        assert (out.solvable, out.nodes, out.passes) == \
            (solvable, nodes, passes)
        assert report.route == (poly.ROUTE_SPLIT, ROUTE_FALLBACK)
        if images_sha256 is None:
            assert out.witness is None
        else:
            images = ",".join(str(out.witness[v]) for v in range(inst.n))
            assert hashlib.sha256(images.encode()).hexdigest() == \
                images_sha256
