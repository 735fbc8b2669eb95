import random
from collections import Counter
from itertools import product

import pytest

from trophom import (InputError, bipartition, colour_lists,
                     connected_components, enumerate_homs, formats, gadgets,
                     is_core, plain, solve_digraph_hom, solve_list_hom,
                     solve_retraction, solve_trop_hom, dgraph, tgraph)
from trophom.gadgets import (PALETTES, build_c48, build_h9,
                             build_pair_gadget, build_pq_path, build_s_block,
                             build_triple_gadget, build_zigzag_gadget,
                             c6_listhom_to_h9, nae_formula, nae3sat_to_c48,
                             transform_retraction_instance,
                             tropicalize_digraph, zigzag_p, zigzag_q)
from trophom.verify import naive_digraph_status


def all_digraphs(max_n):
    for n in range(max_n + 1):
        slots = [(u, v) for u in range(n) for v in range(n) if u != v]
        for mask in range(1 << len(slots)):
            yield dgraph(n, [slots[i] for i in range(len(slots))
                             if mask >> i & 1])


class TestTropicalize:
    def test_single_arc_makes_a_coloured_path(self):
        t = tropicalize_digraph(dgraph(2, [(0, 1)]))
        assert t.n == 4
        assert t.colours == ("Blue", "Blue", "Red", "Green")
        assert sorted(t.edges) == [(0, 2), (1, 3), (2, 3)]

    def test_arcless_digraph(self):
        t = tropicalize_digraph(dgraph(3, []))
        assert t.n == 3 and not t.edges
        assert set(t.colours) == {"Blue"}

    def test_order_formula(self):
        d = dgraph(4, [(0, 1), (1, 2), (2, 0), (3, 1)])
        assert tropicalize_digraph(d).n == d.n + 2 * len(d.arcs)

    def test_equivalence_exhaustive_two_vertices(self):
        graphs = list(all_digraphs(2))
        for d1 in graphs:
            t1 = tropicalize_digraph(d1)
            for d2 in graphs:
                t2 = tropicalize_digraph(d2)
                assert solve_digraph_hom(d1, d2).solvable == \
                    solve_trop_hom(t1, t2).solvable

    def test_equivalence_random_five_vertices(self):
        rng = random.Random(55)
        for _ in range(200):
            n1, n2 = rng.randint(0, 5), rng.randint(0, 5)
            d1 = dgraph(n1, [(u, v) for u in range(n1) for v in range(n1)
                             if u != v and rng.random() < 0.3])
            d2 = dgraph(n2, [(u, v) for u in range(n2) for v in range(n2)
                             if u != v and rng.random() < 0.3])
            want = naive_digraph_status(d1, d2)
            assert solve_digraph_hom(d1, d2).solvable == want
            assert solve_trop_hom(tropicalize_digraph(d1),
                                  tropicalize_digraph(d2)).solvable == want


class TestPqPieces:
    def test_p_shape(self):
        p = build_pq_path("P", "G", "B")
        assert p.graph.colours == \
            ("G", "Y", "Y", "Y", "Y", "R", "Y", "Y", "B")
        assert p.graph.n == 9

    def test_q_shape(self):
        q = build_pq_path("Q", "G", "B")
        assert q.graph.colours == \
            ("G", "Y", "Y", "Y", "Y", "R", "Y", "Y", "Y", "Y", "B")

    def test_mapping_facts(self):
        ends = (("G", "B"), ("B", "G"))
        for s1, e1 in ends:
            for s2, e2 in ends:
                p_src = build_pq_path("P", s1, e1).graph
                p_tgt = build_pq_path("P", s2, e2).graph
                assert solve_trop_hom(p_src, p_tgt).solvable == \
                    ((s1, e1) == (s2, e2))
                q_src = build_pq_path("Q", s1, e1).graph
                assert solve_trop_hom(q_src, p_tgt).solvable

    def test_mapping_facts_survive_lengthening(self):
        long_p = build_pq_path("P", "G", "B", extra=2).graph
        base_p = build_pq_path("P", "G", "B").graph
        flipped = build_pq_path("P", "B", "G").graph
        assert solve_trop_hom(long_p, base_p).solvable
        assert not solve_trop_hom(long_p, flipped).solvable
        # a Q lengthened by 2 puts its mark at the wrong parity for the
        # base P; lengthening by 4 keeps the mark reachable
        bad_q = build_pq_path("Q", "G", "B", extra=2).graph
        assert not solve_trop_hom(bad_q, base_p).solvable
        long_q = build_pq_path("Q", "G", "B", extra=4).graph
        assert solve_trop_hom(long_q, base_p).solvable
        assert solve_trop_hom(long_q, flipped).solvable

    def test_three_colour_palette_drops_red(self):
        p = build_pq_path("P", "G", "B", palette="three")
        assert set(p.graph.colours) == {"G", "B", "Y"}

    def test_bad_ends_rejected(self):
        with pytest.raises(InputError):
            build_pq_path("P", "G", "G")
        with pytest.raises(InputError):
            build_pq_path("Q", "R", "B")


class TestC48:
    def test_counts_base(self):
        g = build_c48("four", 24).graph
        assert g.n == 48
        assert Counter(g.colours) == {"Y": 36, "R": 6, "G": 3, "B": 3}
        assert all(g.degree(v) == 2 for v in range(g.n))
        assert len(connected_components(g)) == 1

    def test_is_core(self):
        assert is_core(build_c48("four", 24).graph)

    def test_three_colour_palette(self):
        g = build_c48("three", 24).graph
        assert set(g.colours) == {"G", "B", "Y"}
        assert g.n == 48

    def test_lengthened_cycles(self):
        for k in (25, 26, 27, 30):
            g = build_c48("four", k).graph
            assert g.n == 2 * k
            assert all(g.degree(v) == 2 for v in range(g.n))

    def test_k_bound(self):
        with pytest.raises(InputError):
            build_c48("four", 23)
        with pytest.raises(InputError):
            build_c48("two", 26)

    def test_half_order_cap_admits_exactly_max_vertices(self, monkeypatch):
        monkeypatch.setattr(formats, "MAX_VERTICES", 50)
        assert build_c48("four", 25).graph.n == 50
        with pytest.raises(InputError, match="the cycle of half-order 26 "
                           "would have 52 vertices, past the cap "
                           "MAX_VERTICES = 50"):
            build_c48("four", 26)

    def test_default_half_order_follows_palette(self):
        assert build_c48("two").graph.n == 54

    def test_two_colour_palette_structure(self):
        g = build_c48("two", 27).graph
        assert g.n == 54
        assert set(g.colours) == {"m", "y"}


class TestPairGadget:
    def test_claim_exactly_two_pinned_homs(self):
        target = build_c48("four", 24)
        pair = build_pair_gadget(0, 1)
        assert pair.graph.n == 54  # 1 + 53 new vertices per pair
        lists = dict(colour_lists(pair.graph, target.graph))
        lists[pair["U_G"]] = frozenset([target["g0"]])
        found = enumerate_homs(pair.graph, target.graph, lists, limit=8)
        assert len(found.maps) == 2 and not found.truncated
        named = ("b0", "g1", "b1", "g2", "b2")
        images = sorted(
            tuple(m[pair[f"{nm}_x0x1"]] for nm in named)
            for m in found.maps)
        sigma = tuple(target[nm] for nm in named)
        rho = tuple(target[nm] for nm in ("b0", "g1", "b0", "g1", "b0"))
        assert images == sorted([sigma, rho])

    def test_lengthened_cycles_keep_the_named_patterns(self):
        # wiggle slack multiplies witnesses, but every pinned homomorphism
        # still projects onto the named vertices as sigma or rho
        for k in (25, 27):
            target = build_c48("four", k)
            pair = build_pair_gadget(0, 1, "four", k)
            lists = dict(colour_lists(pair.graph, target.graph))
            lists[pair["U_G"]] = frozenset([target["g0"]])
            found = enumerate_homs(pair.graph, target.graph, lists, limit=64)
            assert found.maps and not found.truncated
            named = ("b0", "g1", "b1", "g2", "b2")
            sigs = {tuple(m[pair[f"{nm}_x0x1"]] for nm in named)
                    for m in found.maps}
            sigma = tuple(target[nm] for nm in named)
            rho = tuple(target[nm]
                        for nm in ("b0", "g1", "b0", "g1", "b0"))
            assert sigs == {sigma, rho}

    def test_b_corners_never_cross(self):
        # b2 cannot land on b1's image and vice versa
        target = build_c48("four", 24)
        pair = build_pair_gadget(0, 1)
        lists = dict(colour_lists(pair.graph, target.graph))
        lists[pair["U_G"]] = frozenset([target["g0"]])
        lists[pair["b2_x0x1"]] = frozenset([target["b1"]])
        assert not solve_list_hom(pair.graph, target.graph, lists).solvable
        lists = dict(colour_lists(pair.graph, target.graph))
        lists[pair["U_G"]] = frozenset([target["g0"]])
        lists[pair["b1_x0x1"]] = frozenset([target["b2"]])
        assert not solve_list_hom(pair.graph, target.graph, lists).solvable


class TestTripleGadget:
    def test_odd_rho_combinations_extend(self):
        target = build_c48("four", 24)
        triple = build_triple_gadget(0, 1, 2)
        named = ("b0", "g1", "b1", "g2", "b2")
        sigma = tuple(target[nm] for nm in named)
        rho = tuple(target[nm] for nm in ("b0", "g1", "b0", "g1", "b0"))
        for combo in product((False, True), repeat=3):
            lists = dict(colour_lists(triple.graph, target.graph))
            lists[triple["U_G"]] = frozenset([target["g0"]])
            for use_rho, (i, j) in zip(combo, ((0, 1), (0, 2), (1, 2))):
                values = rho if use_rho else sigma
                for nm, val in zip(named, values):
                    key = triple[f"{nm}_x{i}x{j}"]
                    lists[key] = frozenset([val])
            extendable = solve_list_hom(
                triple.graph, target.graph, lists).solvable
            assert extendable == (sum(combo) % 2 == 1), combo


class TestNaeReduction:
    def test_single_clause_counts(self):
        f = nae_formula(3, [(0, 1, 2)])
        inst = nae3sat_to_c48(f)
        pairs = 3
        triples = 1
        assert inst.graph.n == 1 + 53 * pairs + 132 * triples + 33 * 1

    def test_repeated_variable_rejected(self):
        with pytest.raises(InputError):
            nae_formula(3, [(0, 0, 1)])

    def test_satisfiable_single_clause_roundtrip(self):
        from trophom.verify import nae_brute, roundtrip_nae
        f = nae_formula(3, [(0, 1, 2)])
        assert nae_brute(f)  # every single clause splits
        assert roundtrip_nae(f).passed

    def test_gadget_connected(self):
        f = nae_formula(4, [(0, 1, 2), (1, 2, 3)])
        inst = nae3sat_to_c48(f)
        assert len(connected_components(inst.graph)) == 1

    @pytest.mark.parametrize("palette", PALETTES)
    @pytest.mark.parametrize("k", [None, 31])
    def test_pair_and_triple_are_clause_free_instances(self, palette, k):
        # the pair and triple gadgets are the reduction of two and three
        # variables with no clauses, vertex for vertex and name for name
        for gadget, n_vars in ((build_pair_gadget(0, 1, palette, k), 2),
                               (build_triple_gadget(0, 1, 2, palette, k), 3)):
            inst = nae3sat_to_c48(nae_formula(n_vars, []), palette, k)
            assert gadget.graph == inst.graph
            assert gadget.names == inst.names


class TestH9:
    def test_shape(self):
        h9 = build_h9()
        assert h9.graph.n == 9
        assert Counter(h9.graph.colours) == \
            {"Black": 6, "Red": 1, "Green": 1, "Yellow": 1}
        assert bipartition(h9.graph) is not None
        assert is_core(h9.graph)

    def test_pendant_attachments(self):
        h9 = build_h9()
        g = h9.graph
        assert g.neighbours(h9["red"]) == (h9["1"],)
        assert g.neighbours(h9["green"]) == (h9["3"],)
        assert g.neighbours(h9["yellow"]) == (h9["5"],)


class TestH9Instance:
    def test_singleton_odd(self):
        src = plain(1, [])
        inst = c6_listhom_to_h9(src, {0: {1}})
        g = inst.graph
        assert g.n == 2
        assert sorted(g.colours) == ["Black", "Red"]

    def test_pair_even(self):
        src = plain(1, [])
        inst = c6_listhom_to_h9(src, {0: {2, 4}})
        assert sorted(inst.graph.colours) == ["Black", "Black", "Green"]
        copy = inst["v0"]
        assert inst.graph.degree(copy) == 1

    def test_triple_odd(self):
        src = plain(1, [])
        inst = c6_listhom_to_h9(src, {0: {1, 3, 5}})
        assert sorted(inst.graph.colours) == \
            ["Black", "Black", "Black", "Red"]

    def test_middle_anchored_pair(self):
        src = plain(1, [])
        inst = c6_listhom_to_h9(src, {0: {1, 3}})
        g = inst.graph
        assert sorted(g.colours) == \
            ["Black", "Black", "Black", "Black", "Green", "Red"]
        # the degree-3 vertex is the middle of the 5-vertex path
        degrees = sorted(g.degree(v) for v in range(g.n))
        assert degrees == [1, 1, 1, 2, 2, 3]

    def test_even_singleton_two_paths(self):
        src = plain(1, [])
        inst = c6_listhom_to_h9(src, {0: {2}})
        assert sorted(inst.graph.colours) == \
            ["Black", "Black", "Black", "Green", "Red"]

    def test_all_fourteen_shapes_build(self):
        shapes = [{1}, {3}, {5}, {2}, {4}, {6}, {2, 4}, {4, 6}, {2, 6},
                  {1, 3}, {3, 5}, {1, 5}, {1, 3, 5}, {2, 4, 6}]
        src = plain(1, [])
        for shape in shapes:
            inst = c6_listhom_to_h9(src, {0: shape})
            assert inst.graph.n >= 2

    def test_bad_lists_rejected(self):
        src = plain(1, [])
        with pytest.raises(InputError):
            c6_listhom_to_h9(src, {0: {1, 2}})      # parity mixed
        with pytest.raises(InputError):
            c6_listhom_to_h9(src, {0: set()})        # empty
        with pytest.raises(InputError):
            c6_listhom_to_h9(src, {0: {3, 5, 7}})    # out of range
        odd = tgraph(3, [(0, 1), (1, 2), (0, 2)], ["Black"] * 3)
        with pytest.raises(InputError):
            c6_listhom_to_h9(odd, {0: {1}, 1: {2}, 2: {1}})

    def test_semantics_match_list_oracle(self):
        from trophom.verify import list_hom_brute
        c6 = plain(6, [(i, (i + 1) % 6) for i in range(6)])
        h9 = build_h9().graph
        rng = random.Random(606)
        from trophom.testing import random_h9_instance
        for _ in range(60):
            src, lists = random_h9_instance(rng, max_n=7)
            zero_based = {v: frozenset(x - 1 for x in lists[v])
                          for v in range(src.n)}
            want = list_hom_brute(src, c6, zero_based)
            inst = c6_listhom_to_h9(src, lists)
            assert solve_trop_hom(inst.graph, h9).solvable == want


class TestZigzagPieces:
    def test_p_small(self):
        assert zigzag_p(3).colours == ("W", "B", "B", "B", "B", "W")
        assert zigzag_p(3, 1).colours == ("W", "B", "B", "W")

    def test_q_small(self):
        assert zigzag_q(4).colours == \
            ("W", "B", "B", "B", "B", "W", "W", "W", "W", "B")
        assert zigzag_q(4, 1).colours == ("W", "B", "B", "W", "W", "W", "W",
                                          "B")
        assert zigzag_q(4, 2).colours == ("W", "B", "B", "B", "B", "W", "W",
                                          "B")

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            zigzag_p(4)
        with pytest.raises(InputError):
            zigzag_p(5, 4)
        with pytest.raises(InputError):
            zigzag_q(5)


class TestZigzagGadget:
    def test_identity_instance_equals_target(self):
        h = plain(3, [(0, 1), (1, 2)])  # path, parts {0,2} / {1}
        target = build_zigzag_gadget(h)
        inst = transform_retraction_instance(
            h, h, {v: v for v in range(h.n)})
        assert inst.graph.n == target.graph.n
        assert solve_trop_hom(inst.graph, target.graph).solvable

    def test_every_original_vertex_white(self):
        h = plain(4, [(0, 1), (1, 2), (2, 3)])
        target = build_zigzag_gadget(h)
        for v in range(h.n):
            assert target.graph.colours[target[f"h{v}"]] == "W"

    def test_unattached_host_vertices_get_p_tails(self):
        h = plain(3, [(0, 1), (1, 2)])
        g = plain(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)])
        # vertex 4 shares a part with {1}; vertices 3 shares with {0,2}
        inst = transform_retraction_instance(g, h, {0: 0, 1: 1, 2: 2})
        target = build_zigzag_gadget(h)
        assert inst.graph.n > g.n
        got = solve_trop_hom(inst.graph, target.graph).solvable
        want = solve_retraction(g, h, {0: 0, 1: 1, 2: 2}).solvable
        assert got == want

    def test_far_side_a_vertex_still_gets_a_p_tail(self):
        # vertex 4 sits on the A side but touches no copy vertex at all
        h = plain(3, [(0, 1), (1, 2)])
        g = plain(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        inst = transform_retraction_instance(g, h, {0: 0, 1: 1, 2: 2})
        target = build_zigzag_gadget(h)
        # l=5, k=4: full P has 14 vertices, P_i 12, Q_1 8; every tail
        # drops its shared endpoint
        expected = g.n + 2 * (12 - 1) + (8 - 1) + (14 - 1)
        assert inst.graph.n == expected == 47
        want = solve_retraction(g, h, {0: 0, 1: 1, 2: 2}).solvable
        got = solve_trop_hom(inst.graph, target.graph).solvable
        assert got == want

    def test_order_cap_is_checked_before_building(self, monkeypatch):
        # The far-side case above builds 47 vertices, its target 32.
        h = plain(3, [(0, 1), (1, 2)])
        g = plain(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        embedding = {0: 0, 1: 1, 2: 2}
        monkeypatch.setattr(formats, "MAX_VERTICES", 47)
        assert transform_retraction_instance(g, h, embedding).graph.n == 47
        assert build_zigzag_gadget(h).graph.n == 32
        monkeypatch.setattr(formats, "MAX_VERTICES", 46)
        monkeypatch.setattr(gadgets, "_Builder", None)
        with pytest.raises(InputError, match="the zig-zag graph of a "
                           "5-vertex input would have 47 vertices, past "
                           "the cap MAX_VERTICES = 46"):
            transform_retraction_instance(g, h, embedding)
        monkeypatch.setattr(formats, "MAX_VERTICES", 31)
        with pytest.raises(InputError, match="would have 32 vertices"):
            build_zigzag_gadget(h)

    def test_out_of_range_embedding_names_the_range(self):
        h = plain(3, [(0, 1), (1, 2)])
        with pytest.raises(InputError, match="range 0..2"):
            transform_retraction_instance(h, h, {0: 0, 1: 1, 2: 7})

    def test_retraction_equivalence_exhaustive_small(self):
        h = plain(3, [(0, 1), (1, 2)])
        embedding = {0: 0, 1: 1, 2: 2}
        target = build_zigzag_gadget(h)
        checked = 0
        for extra in range(0, 4):
            n = 3 + extra
            sides = list(product((0, 1), repeat=extra))
            base_side = {0: 0, 1: 1, 2: 0}
            for side_bits in sides:
                side = dict(base_side)
                for i, b in enumerate(side_bits):
                    side[3 + i] = b
                slots = [(u, v) for u in range(n) for v in range(u + 1, n)
                         if side[u] != side[v] and not (u < 3 and v < 3)]
                for mask in range(1 << len(slots)):
                    edges = [(0, 1), (1, 2)] + \
                        [slots[i] for i in range(len(slots))
                         if mask >> i & 1]
                    g = plain(n, edges)
                    if len(connected_components(g)) != 1:
                        continue
                    checked += 1
                    want = solve_retraction(g, h, embedding).solvable
                    inst = transform_retraction_instance(g, h, embedding)
                    got = solve_trop_hom(inst.graph, target.graph).solvable
                    assert got == want, (edges, side_bits)
        assert checked == 405  # every connected bipartite superset, n <= 6


class TestGadgetInvariants:
    def test_palettes_and_names_across_builders(self):
        f = nae_formula(3, [(0, 1, 2)])
        cases = [
            (build_c48("four", 24), {"G", "B", "R", "Y"}),
            (build_c48("three", 24), {"G", "B", "Y"}),
            (build_c48("two", 27), {"m", "y"}),
            (build_pair_gadget(0, 1), {"G", "B", "R", "Y"}),
            (build_triple_gadget(0, 1, 2), {"G", "B", "R", "Y"}),
            (nae3sat_to_c48(f), {"G", "B", "R", "Y"}),
            (build_h9(), {"Black", "Red", "Green", "Yellow"}),
            (build_zigzag_gadget(plain(3, [(0, 1), (1, 2)])), {"W", "B"}),
            (build_s_block("S12"),
             {"Black", "BlackCross", "RedDot", "GreenDot"}),
            (build_s_block("S1T"),
             {"Black", "BlackCross", "RedDot", "RedCross"}),
            (build_s_block("S2T"),
             {"Black", "BlackCross", "GreenDot", "GreenCross"}),
        ]
        for gadget, palette in cases:
            assert set(gadget.graph.colours) <= palette
            for label, idx in gadget.names.items():
                assert 0 <= idx < gadget.graph.n, label


class TestSBlocks:
    def test_s12(self):
        b = build_s_block("S12")
        assert b.graph.n == 12 and len(b.graph.edges) == 11
        assert Counter(b.graph.colours) == \
            {"Black": 7, "BlackCross": 2, "RedDot": 2, "GreenDot": 1}

    def test_s1t_differs_only_at_the_middle_leaf(self):
        s12 = build_s_block("S12")
        s1t = build_s_block("S1T")
        assert s12.graph.edges == s1t.graph.edges
        diffs = [v for v in range(12)
                 if s12.graph.colours[v] != s1t.graph.colours[v]]
        assert diffs == [s12["mid4"]]
        assert s1t.graph.colours[s1t["mid4"]] == "RedCross"

    def test_s2t(self):
        b = build_s_block("S2T")
        assert Counter(b.graph.colours) == \
            {"Black": 7, "BlackCross": 2, "GreenDot": 2, "GreenCross": 1}

    def test_blocks_are_trees(self):
        for kind in ("S12", "S1T", "S2T"):
            g = build_s_block(kind).graph
            assert len(g.edges) == g.n - 1
            assert len(connected_components(g)) == 1
            assert bipartition(g) is not None

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            build_s_block("S99")
