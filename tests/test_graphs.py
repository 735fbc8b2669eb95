import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trophom import (InputError, PreconditionError, bipartition,
                     connected_components, cycle_graph, dgraph, path_graph,
                     plain, split_colours, split_instance, tgraph,
                     validate_hom)
from trophom.graphs import _components
from trophom.testing import random_bipartite, random_tropical
from trophom.verify import trop_hom_brute


def has_odd_closed_walk(g):
    """Independent oracle: parity-layered reachability per component."""
    for start in range(g.n):
        seen = {(start, 0)}
        frontier = [(start, 0)]
        while frontier:
            v, par = frontier.pop()
            for w in g.adjacency[v]:
                nxt = (w, 1 - par)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if (start, 1) in seen:  # odd walk from start back to itself
            return True
    return False


class TestValidateHom:
    def test_identity_holds_everywhere(self):
        for g in (cycle_graph(list("ABCDEF")), plain(1, []),
                  path_graph(["R", "B", "G"])):
            assert validate_hom(g, g, {v: v for v in range(g.n)})

    def test_bipartite_fold_onto_edge(self):
        c4 = cycle_graph(["Black"] * 4)
        edge = plain(2, [(0, 1)])
        assert validate_hom(c4, edge, {0: 0, 1: 1, 2: 0, 3: 1})

    def test_colour_swap_rejected(self):
        bw = tgraph(2, [(0, 1)], ["Black", "White"])
        wb = tgraph(2, [(0, 1)], ["White", "Black"])
        assert not validate_hom(bw, wb, {0: 0, 1: 1})
        assert validate_hom(bw, wb, {0: 1, 1: 0})

    def test_partial_map_is_an_error(self):
        edge = plain(2, [(0, 1)])
        with pytest.raises(InputError):
            validate_hom(edge, edge, {0: 0})

    def test_out_of_range_image_is_an_error(self):
        edge = plain(2, [(0, 1)])
        with pytest.raises(InputError):
            validate_hom(edge, edge, {0: 0, 1: 7})


class TestBipartition:
    def test_c6(self):
        bip = bipartition(cycle_graph(["x"] * 6))
        assert sorted(map(len, (bip.part_a, bip.part_b))) == [3, 3]
        assert bip.part_a | bip.part_b == set(range(6))

    def test_c5_has_none(self):
        assert bipartition(cycle_graph(["x"] * 5)) is None

    def test_single_vertex(self):
        bip = bipartition(plain(1, []))
        assert (set(bip.part_a), set(bip.part_b)) == ({0}, set())

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_odd_walk_oracle(self, data):
        n = data.draw(st.integers(1, 10))
        edges = data.draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda e: e[0] != e[1])))
        g = plain(n, edges)
        bip = bipartition(g)
        assert (bip is None) == has_odd_closed_walk(g)
        if bip is not None:
            for u, v in g.edges:
                assert (u in bip.part_a) != (v in bip.part_a)


class TestComponents:
    def test_two_disjoint_edges(self):
        g = plain(4, [(0, 1), (2, 3)])
        comps = connected_components(g)
        assert len(comps) == 2
        assert [old for _, old in comps] == [(0, 1), (2, 3)]

    def test_connected_graph_is_one_component(self):
        g = cycle_graph(["a", "b"] * 3)
        comps = connected_components(g)
        assert len(comps) == 1
        assert comps[0][0] == g

    def test_connected_graph_comes_back_as_itself(self):
        g = path_graph(["a", "b", "a", "c"])
        [(comp, old)] = connected_components(g)
        assert comp is g
        assert old == (0, 1, 2, 3)

    def test_disconnected_components_are_induced_in_order(self):
        g = tgraph(6, [(0, 4), (2, 4), (1, 3)], list("abcabc"))
        comps = connected_components(g)
        assert [old for _, old in comps] == [(0, 2, 4), (1, 3), (5,)]
        for comp, old in comps:
            assert comp == g.induced(old)[0]

    def test_empty_graph(self):
        assert connected_components(plain(0, [])) == []


class TestOnePassComponents:
    """_components against connected_components plus the side bits
    split_instance gives each component."""

    @staticmethod
    def expected(g):
        out = []
        for comp, old in connected_components(g):
            try:
                first, _ = split_instance(comp)
            except PreconditionError:
                bits = None
            else:
                bits = tuple(b for _, b in first.colours)
            out.append((comp, old, bits))
        return out

    def seeded(self, seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            if rng.random() < 0.5:
                yield random_bipartite(rng, 10, ["a", "b"],
                                       edge_prob=rng.choice((0.1, 0.3)))
            else:
                yield random_tropical(rng, 10, ["a", "b", "c"],
                                      edge_prob=rng.choice((0.1, 0.2, 0.4)))

    def test_matches_components_and_split_bits(self):
        graphs = [plain(0, []), plain(3, []),
                  # a triangle, an isolated vertex and an even path
                  tgraph(7, [(0, 2), (2, 5), (0, 5), (1, 3), (3, 6)],
                         list("abcabca")),
                  cycle_graph(["a", "b"] * 4)]
        graphs += self.seeded(71, 300)
        seen = set()
        for g in graphs:
            got = list(_components(g))
            assert got == self.expected(g)
            seen.update((len(got) > 1, bits is None) for _, _, bits in got)
        assert seen == {(False, False), (False, True), (True, False),
                        (True, True)}

    def test_connected_graph_comes_back_as_itself(self):
        g = cycle_graph(["a", "b", "c"] * 2)
        [(comp, old, bits)] = _components(g)
        assert comp is g and old == tuple(range(6))
        assert bits == (0, 1, 0, 1, 0, 1)
        [(comp, _, bits)] = _components(cycle_graph(["a"] * 5))
        assert bits is None

    def test_odd_component_keeps_later_bits(self):
        g = tgraph(5, [(0, 1), (1, 2), (0, 2), (3, 4)], list("abcab"))
        got = list(_components(g))
        assert [(old, bits) for _, old, bits in got] == \
            [((0, 1, 2), None), ((3, 4), (0, 1))]


class TestCachedStructure:
    def test_cached_reads_leave_equality_and_hash_alone(self):
        g = tgraph(4, [(0, 1), (1, 2)], list("abab"))
        assert g.adjacency[1] == frozenset({0, 2})
        assert g.colour_classes() == {"a": (0, 2), "b": (1, 3)}
        fresh = tgraph(4, [(2, 1), (0, 1)], list("abab"))
        assert g == fresh and hash(g) == hash(fresh)
        d = dgraph(3, [(0, 1), (1, 2)])
        assert d.out_adjacency[1] == frozenset({2})
        assert d.in_adjacency[1] == frozenset({0})
        fresh_d = dgraph(3, [(1, 2), (0, 1)])
        assert d == fresh_d and hash(d) == hash(fresh_d)


class TestSplitColours:
    def test_p2(self):
        p2 = plain(2, [(0, 1)])
        assert split_colours(p2).colours == (("Black", 0), ("Black", 1))

    def test_c6_two_colour_sides(self):
        # sides {Red,Red,Blue} / {Red,Blue,Blue} in cyclic interleaving
        g = cycle_graph(["Red", "Red", "Red", "Blue", "Blue", "Blue"])
        split = split_colours(g)
        palette = set(split.colours)
        assert palette == {("Red", 0), ("Blue", 0), ("Red", 1), ("Blue", 1)}
        assert split.edges == g.edges

    def test_double_split_keeps_the_partition(self):
        g = cycle_graph(["R", "R", "B", "R", "B", "B"])
        once = split_colours(g)
        twice = split_colours(once)

        def classes(graph):
            groups = {}
            for v, c in enumerate(graph.colours):
                groups.setdefault(c, set()).add(v)
            return sorted(map(sorted, groups.values()))

        assert classes(twice) == classes(once)

    def test_rejects_odd_cycles_and_disconnected(self):
        with pytest.raises(PreconditionError):
            split_colours(cycle_graph(["x"] * 5))
        with pytest.raises(PreconditionError):
            split_colours(plain(4, [(0, 1), (2, 3)]))

    @pytest.mark.parametrize("split", [split_colours, split_instance])
    def test_bipartite_check_comes_first(self, split):
        odd_and_edge = plain(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        with pytest.raises(PreconditionError, match="bipartite"):
            split(odd_and_edge)
        with pytest.raises(PreconditionError, match="connected"):
            split(plain(4, [(0, 1), (2, 3)]))
        split(plain(0, []))

    def test_refines_colour_partition(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_bipartite(rng, 8, ["a", "b", "c"])
            comps = connected_components(g)
            if len(comps) != 1:
                continue
            split = split_colours(g)
            assert split.n == g.n and split.edges == g.edges
            for v in range(g.n):
                base, _bit = split.colours[v]
                assert base == g.colours[v]


class TestSplitInstance:
    def test_p2_black(self):
        p2 = plain(2, [(0, 1)])
        a, b = split_instance(p2)
        assert a.colours == (("Black", 0), ("Black", 1))
        assert b.colours == (("Black", 1), ("Black", 0))

    def test_single_vertex(self):
        a, b = split_instance(plain(1, []))
        assert a.colours == (("Black", 0),)
        assert b.colours == (("Black", 1),)

    def test_equivalence_on_random_pairs(self):
        # original solvable iff one of the two split instances solvable
        rng = random.Random(11)
        done = 0
        while done < 100:
            src = random_bipartite(rng, 8, ["a", "b"])
            tgt = random_bipartite(rng, 8, ["a", "b"])
            if len(connected_components(src)) != 1 \
                    or len(connected_components(tgt)) != 1:
                continue
            done += 1
            want = trop_hom_brute(src, tgt)
            split_tgt = split_colours(tgt)
            got = any(trop_hom_brute(v, split_tgt)
                      for v in split_instance(src))
            assert got == want
