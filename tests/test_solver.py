import random
from itertools import islice

import pytest

from trophom import (Enumeration, InputError, SolveOutcome, ac_reduce,
                     colour_lists, cycle_graph, dgraph, enumerate_homs, plain,
                     solve_digraph_hom, solve_list_hom, solve_retraction,
                     solve_trop_hom, tgraph, validate_hom)
from trophom import solver
from trophom.testing import random_of_degree, random_tree, random_tropical
from trophom.verify import (list_hom_brute, list_homs,
                            naive_digraph_status, trop_hom_brute)


def full_lists(source, target):
    return {v: frozenset(range(target.n)) for v in range(source.n)}


def path_of(colours):
    return tgraph(len(colours), [(i, i + 1) for i in range(len(colours) - 1)],
                  list(colours))


class TestSolveListHom:
    def test_edge_to_edge_full(self):
        e = plain(2, [(0, 1)])
        out = solve_list_hom(e, e, full_lists(e, e))
        assert out.solvable
        assert validate_hom(e, e, out.witness)

    def test_empty_list_is_unsolvable(self):
        e = plain(2, [(0, 1)])
        out = solve_list_hom(e, e, {0: frozenset(), 1: frozenset({0, 1})})
        assert not out.solvable and out.witness is None

    def test_c6_singleton_lists(self):
        c6 = cycle_graph(["x"] * 6)
        identity = {v: {v} for v in range(6)}
        rotation = {v: {(v + 1) % 6} for v in range(6)}
        assert solve_list_hom(c6, c6, identity).witness == \
            {v: v for v in range(6)}
        assert solve_list_hom(c6, c6, rotation).witness == \
            {v: (v + 1) % 6 for v in range(6)}

    def test_malformed_lists_raise(self):
        e = plain(2, [(0, 1)])
        with pytest.raises(InputError):
            solve_list_hom(e, e, {0: {0}})
        with pytest.raises(InputError):
            solve_list_hom(e, e, {0: {0}, 1: {5}})

    def test_matches_naive_enumeration_on_seeded_suite(self):
        rng = random.Random(20250808)
        for i in range(150):
            src = random_tropical(rng, 6, ["a", "b"])
            tgt = random_tropical(rng, 5, ["a", "b"])
            lists = {v: frozenset(t for t in range(tgt.n)
                                  if rng.random() < 0.7)
                     for v in range(src.n)}
            out = solve_list_hom(src, tgt, lists)
            limit = 1 + i % 6
            want = list(islice(list_homs(src, tgt, lists), limit + 1))
            assert out.solvable == bool(want)
            found = enumerate_homs(src, tgt, lists, limit=limit)
            assert list(found.maps) == want[:limit]
            assert found.truncated == (len(want) > limit)
            if out.solvable:
                assert all(out.witness[v] in lists[v] for v in range(src.n))
                for u, v in src.edges:
                    assert tgt.has_edge(out.witness[u], out.witness[v])

    def test_witness_deterministic(self):
        rng = random.Random(3)
        for _ in range(25):
            src = random_tropical(rng, 6, ["a", "b"])
            tgt = random_tropical(rng, 5, ["a", "b"])
            first = solve_trop_hom(src, tgt)
            second = solve_trop_hom(src, tgt)
            assert first.witness == second.witness


class TestEnumerate:
    def test_edge_to_edge_two_maps(self):
        e = plain(2, [(0, 1)])
        found = enumerate_homs(e, e, full_lists(e, e))
        assert len(found.maps) == 2 and not found.truncated

    def test_k1_to_k3(self):
        k1 = plain(1, [])
        k3 = plain(3, [(0, 1), (1, 2), (0, 2)])
        found = enumerate_homs(k1, k3)
        assert [m[0] for m in found.maps] == [0, 1, 2]

    def test_c4_to_k3_is_18(self):
        c4 = plain(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        k3 = plain(3, [(0, 1), (1, 2), (0, 2)])
        # oracle first: brute force over all 3^4 maps
        assert sum(1 for _ in list_homs(c4, k3, full_lists(c4, k3))) == 18
        found = enumerate_homs(c4, k3)
        assert len(found.maps) == 18 and not found.truncated

    def test_lexicographic_and_duplicate_free(self):
        rng = random.Random(9)
        for _ in range(40):
            src = random_tropical(rng, 5, ["a"])
            tgt = random_tropical(rng, 4, ["a"])
            found = enumerate_homs(src, tgt)
            tuples = [tuple(m[v] for v in range(src.n)) for m in found.maps]
            assert tuples == sorted(set(tuples))
            assert list(found.maps) == list(
                list_homs(src, tgt, full_lists(src, tgt)))

    def test_limit_and_truncation_flag(self):
        c4 = plain(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        k3 = plain(3, [(0, 1), (1, 2), (0, 2)])
        found = enumerate_homs(c4, k3, limit=5)
        assert len(found.maps) == 5 and found.truncated
        found = enumerate_homs(c4, k3, limit=18)
        assert len(found.maps) == 18 and not found.truncated
        with pytest.raises(InputError):
            enumerate_homs(c4, k3, limit=0)


class TestTropHom:
    def test_identity(self):
        g = cycle_graph(["R", "B", "G", "R", "B", "G"])
        out = solve_trop_hom(g, g)
        assert out.solvable and validate_hom(g, g, out.witness)

    def test_odd_source_against_bipartite_target(self):
        c5 = cycle_graph(["B"] * 5)
        edge = plain(2, [(0, 1)])
        assert not solve_trop_hom(c5, edge).solvable

    def test_matches_naive_on_seeded_suite(self):
        rng = random.Random(77)
        for _ in range(120):
            src = random_tropical(rng, 6, ["a", "b", "c"])
            tgt = random_tropical(rng, 5, ["a", "b", "c"])
            assert solve_trop_hom(src, tgt).solvable == \
                trop_hom_brute(src, tgt)


class TestDigraph:
    def test_single_arc(self):
        arc = dgraph(2, [(0, 1)])
        assert solve_digraph_hom(arc, arc).solvable

    def test_two_cycle_to_arc(self):
        two = dgraph(2, [(0, 1), (1, 0)])
        arc = dgraph(2, [(0, 1)])
        # oracle first: all 4 maps fail by direct check
        assert not naive_digraph_status(two, arc)
        assert not solve_digraph_hom(two, arc).solvable

    def test_directed_triangle_rotation(self):
        tri = dgraph(3, [(0, 1), (1, 2), (2, 0)])
        out = solve_digraph_hom(tri, tri)
        assert out.solvable

    def test_matches_naive_on_random_pairs(self):
        rng = random.Random(13)
        for _ in range(150):
            n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
            a1 = [(u, v) for u in range(n1) for v in range(n1)
                  if u != v and rng.random() < 0.4]
            a2 = [(u, v) for u in range(n2) for v in range(n2)
                  if u != v and rng.random() < 0.4]
            d1, d2 = dgraph(n1, a1), dgraph(n2, a2)
            assert solve_digraph_hom(d1, d2).solvable == \
                naive_digraph_status(d1, d2)


class TestRetraction:
    def test_identity_copy(self):
        g = cycle_graph(["R", "B"] * 3)
        out = solve_retraction(g, g, {v: v for v in range(6)})
        assert out.solvable and out.witness == {v: v for v in range(6)}

    def test_c6_retracts_onto_an_edge(self):
        c6 = plain(6, [(i, (i + 1) % 6) for i in range(6)])
        edge = plain(2, [(0, 1)])
        # oracle: some total map fixing {0 -> 0, 1 -> 1} folds the cycle
        pinned = {0: {0}, 1: {1}, **{v: {0, 1} for v in range(2, 6)}}
        assert list_hom_brute(c6, edge, pinned)
        out = solve_retraction(c6, edge, {0: 0, 1: 1})
        assert out.solvable
        assert out.witness[0] == 0 and out.witness[1] == 1

    def test_c8_identity_copy(self):
        c8 = plain(8, [(i, (i + 1) % 8) for i in range(8)])
        assert solve_retraction(c8, c8, {v: v for v in range(8)}).solvable

    def test_invalid_embeddings_rejected(self):
        c6 = plain(6, [(i, (i + 1) % 6) for i in range(6)])
        edge = plain(2, [(0, 1)])
        with pytest.raises(InputError):
            solve_retraction(c6, edge, {0: 0, 1: 2})  # not an edge
        with pytest.raises(InputError):
            solve_retraction(c6, edge, {0: 0, 1: 0})  # not injective
        coloured = tgraph(2, [(0, 1)], ["R", "B"])
        with pytest.raises(InputError):
            solve_retraction(c6, coloured, {0: 0, 1: 1})  # colours differ


class TestArcConsistency:
    def test_tree_supports_are_exact(self):
        # On tree sources, every surviving value extends to a solution.
        rng = random.Random(42)
        for _ in range(60):
            src = random_tree(rng, 10, ["a", "b"])
            tgt = random_tropical(rng, 5, ["a", "b"])
            lists = colour_lists(src, tgt)
            reduced = ac_reduce(src, tgt, lists)
            found = enumerate_homs(src, tgt, lists)
            supported = {v: {m[v] for m in found.maps}
                         for v in range(src.n)}
            if reduced is None:
                assert not found.maps
                continue
            for v in range(src.n):
                assert set(reduced[v]) == supported[v]

    def test_never_removes_supported_values(self):
        # On arbitrary sources AC keeps every value some solution uses.
        rng = random.Random(43)
        for _ in range(60):
            src = random_tropical(rng, 5, ["a", "b"])
            tgt = random_tropical(rng, 4, ["a", "b"])
            lists = colour_lists(src, tgt)
            reduced = ac_reduce(src, tgt, lists)
            found = enumerate_homs(src, tgt, lists)
            if reduced is None:
                assert not found.maps
                continue
            for m in found.maps:
                for v in range(src.n):
                    assert m[v] in reduced[v]


    def test_empty_list_on_isolated_vertex(self):
        # No arc touches vertex 0, so only the root domains show the
        # wipe-out.
        source = tgraph(2, [], "aa")
        target = tgraph(2, [(0, 1)], "aa")
        assert ac_reduce(source, target, {0: set(), 1: {0}}) is None
        assert ac_reduce(source, target, {0: {1}, 1: {0}}) == [{1}, {0}]


class TestListSetUp:
    def test_one_list_object_per_colour(self):
        source = path_of("abab")
        target = tgraph(5, [(0, 1), (1, 2), (3, 4)], "aabbb")
        lists = colour_lists(source, target)
        assert lists[0] is lists[2] and lists[1] is lists[3]
        assert lists == {0: frozenset({0, 1}), 1: frozenset({2, 3, 4}),
                         2: frozenset({0, 1}), 3: frozenset({2, 3, 4})}
        # a colour the target lacks gets the empty list
        assert colour_lists(path_of("az"), target)[1] == frozenset()

    def test_shared_and_unshared_lists_mask_as_given(self):
        target = plain(6, [])
        source = plain(7, [])
        shared = frozenset({1, 4})

        class Fresh(dict):
            # Each lookup builds a new set, which is dropped as soon as
            # the caller lets go of it.
            def __getitem__(self, v):
                return set(dict.__getitem__(self, v))

        given = {0: shared, 1: {0, 2}, 2: shared, 3: [5, 5, 3], 4: shared,
                 5: {0, 2}, 6: range(6)}
        want = [sum(1 << t for t in set(given[v])) for v in range(7)]
        for lists in (given, Fresh(given)):
            assert solver._normalize_lists(source, target, lists) == want

    def test_out_of_range_in_shared_list_names_first_holder(self):
        target = plain(3, [])
        bad = frozenset({0, 7})
        lists = {0: {1}, 1: bad, 2: bad}
        with pytest.raises(InputError,
                           match="list of vertex 1 mentions 7, out of range"):
            solve_list_hom(plain(3, []), target, lists)

    def test_dead_instance_builds_no_network(self, monkeypatch):
        def no_network(*args):
            raise AssertionError("built a CSP for an empty list")

        monkeypatch.setattr(solver, "_undirected_csp", no_network)
        e = plain(2, [(0, 1)])
        lists = {0: frozenset({0, 1}), 1: frozenset()}
        assert solve_list_hom(e, e, lists) == SolveOutcome(False, None, 0, 0)
        assert enumerate_homs(e, e, lists, limit=3) == \
            Enumeration((), False, 0)
        assert solve_trop_hom(path_of("az"), e) == \
            SolveOutcome(False, None, 0, 0)


class TestTargetRelation:
    """The target's relation and its support memo are kept on the target
    and serve every solve against it."""

    def test_solves_against_one_target_share_one_relation(self, monkeypatch):
        built = []
        real = solver._undirected_csp

        def spy(source, rel):
            csp = real(source, rel)
            built.append(csp)
            return csp

        monkeypatch.setattr(solver, "_undirected_csp", spy)
        c6 = plain(6, [(i, (i + 1) % 6) for i in range(6)])
        assert solve_trop_hom(cycle_graph(["Black"] * 4), c6).solvable
        assert not solve_list_hom(cycle_graph(["Black"] * 3), c6).solvable
        enumerate_homs(path_of(["Black"] * 3), c6, limit=2)
        ac_reduce(path_of(["Black"] * 2), c6)
        kept = solver._relation_of(c6)
        groups = [g for csp in built for watched in csp.watch
                  for g in watched]
        assert len(built) == 4 and groups
        assert all(rel is kept for rel, _ in groups)
        assert len(kept) > 0

    def test_full_memo_restarts_and_answers_hold(self, monkeypatch):
        rng = random.Random(41)
        target = random_tropical(rng, 9, ["a", "b"], edge_prob=0.4)
        sources = [random_tropical(rng, 8, ["a", "b"], edge_prob=0.3)
                   for _ in range(60)]
        want = [solve_trop_hom(src, tgraph(target.n, target.edges,
                                           target.colours))
                for src in sources]
        monkeypatch.setattr(solver, "_SUPPORTS_BOUND", 4)
        sizes = []
        for src, expected in zip(sources, want):
            rel = solver._relation_of(target)
            assert len(rel) <= 4
            assert solve_trop_hom(src, target) == expected
            sizes.append(len(rel))
            assert solver._relation_of(target) is rel
        # solves outgrew the bound, and the memo started over after them
        assert max(sizes) > 4

    def test_undirected_network_watches_neighbours_under_one_relation(self):
        # Each vertex with neighbours watches them, ascending, in one group
        # under the given relation, which is then its calm relation.
        rng = random.Random(1234)
        for _ in range(100):
            target = random_tropical(rng, 7, ["a"], edge_prob=0.5)
            source = random_tropical(rng, 12, ["a"], edge_prob=rng.random(),
                                     min_n=0)
            rel = solver._Supports.of(target.adjacency)
            csp = solver._undirected_csp(source, rel)
            assert csp.n == len(csp.watch) == source.n
            for v, watched in enumerate(csp.watch):
                nbrs = source.neighbours(v)
                assert [us for _, us in watched] == ([nbrs] if nbrs else [])
                assert all(r is rel for r, _ in watched)
                assert csp.calm[v] is (rel if nbrs else None)


class TestDigraphNetwork:
    """_digraph_csp states each ordered pair of d1 once: u is revised
    against v under the out-relation, the in-relation, or, on a 2-cycle,
    their intersection, and each of the three is one object."""

    def test_two_cycles_share_one_joint_relation(self):
        rng = random.Random(303)
        cycles = 0
        for _ in range(200):
            n1, n2 = rng.randint(1, 8), rng.randint(1, 6)
            a1 = {(u, v) for u in range(n1) for v in range(n1)
                  if u != v and rng.random() < 0.3}
            a2 = {(a, b) for a in range(n2) for b in range(n2)
                  if a != b and rng.random() < 0.5}
            d1, d2 = dgraph(n1, a1), dgraph(n2, a2)
            out_rows = tuple(map(solver._mask, d2.out_adjacency))
            in_rows = tuple(map(solver._mask, d2.in_adjacency))
            csp = solver._digraph_csp(d1, d2)
            assert csp.n == len(csp.watch) == n1
            by_kind: dict = {}
            for v, watched in enumerate(csp.watch):
                rels = [rel for rel, _ in watched]
                assert len({id(rel) for rel in rels}) == len(rels)
                firsts = [us[0] for _, us in watched]
                assert firsts == sorted(firsts)
                partners = []
                for rel, us in watched:
                    assert list(us) == sorted(us)
                    for u in us:
                        kind = ((u, v) in a1, (v, u) in a1)
                        rows = tuple(map(int.__and__, out_rows, in_rows)) \
                            if all(kind) else out_rows if kind[0] else in_rows
                        assert rel.rows == rows
                        assert by_kind.setdefault(kind, rel) is rel
                        partners.append(u)
                assert sorted(partners) == sorted(
                    {u for u, w in a1 if w == v} | {w for u, w in a1
                                                    if u == v})
                assert csp.calm[v] is (rels[0] if len(rels) == 1 else None)
            assert len(by_kind) <= 3
            cycles += (True, True) in by_kind
        assert cycles > 50


def _naive_ac(arcs, doms):
    """Reference arc consistency over sets: revise every arc (u, v, pairs)
    until nothing changes, keeping the values a of u with some (a, b) in
    pairs for b in v's domain.  None on a wipe-out, else the domains."""
    doms = [set(d) for d in doms]
    changed = True
    while changed:
        changed = False
        for u, v, pairs in arcs:
            keep = {a for a in doms[u]
                    if any((a, b) in pairs for b in doms[v])}
            if keep != doms[u]:
                if not keep:
                    return None
                doms[u] = keep
                changed = True
    return doms


def _joint_arcs(a1, a2):
    """The arcs of _naive_ac for source arcs a1 against target arcs a2:
    one joint relation per ordered pair, so a source 2-cycle's two arcs
    constrain each direction together, as one assignment must satisfy
    both."""
    back = {(b, a) for a, b in a2}
    joint: dict = {}
    for u, v in a1:
        for key, pairs in (((u, v), a2), ((v, u), back)):
            joint[key] = joint.get(key, pairs) & pairs
    return [(u, v, pairs) for (u, v), pairs in joint.items()]


def _sets(masks):
    return [{a for a in range(m.bit_length()) if m >> a & 1} for m in masks]


class TestArcConsistencyFixpoint:
    """The AC fixpoint is unique, so the variable queue of _ac3 must reach
    the fixpoint that revising every arc until nothing changes reaches,
    whatever order it revises in, and whatever revisions it skips because
    their support is full.  This is what lets a queue change move only the
    revision count."""

    @staticmethod
    def _check(csp, arcs, doms, rng, every_branch=False):
        want = _naive_ac(arcs, _sets(doms))
        got = list(doms)
        ok, passes = solver._ac3(csp, got)
        assert ok == (want is not None)
        # The root revises every ordered pair at least once.
        assert passes >= (len({(u, v) for u, v, _ in arcs}) if ok else 1)
        if not ok:
            return 0
        assert _sets(got) == want
        # Fix one variable to one of its values and restart from it alone,
        # as a branch of the search does: one at random, or every variable
        # to every value of its domain.
        if every_branch:
            branches = [(var, a) for var, vals in enumerate(want)
                        for a in sorted(vals)]
        else:
            var = rng.randrange(len(got))
            branches = [(var, rng.choice(sorted(want[var])))]
        for var, a in branches:
            fixed = list(got)
            fixed[var] = 1 << a
            want = _naive_ac(arcs, _sets(fixed))
            ok, _ = solver._ac3(csp, fixed, var)
            assert ok == (want is not None)
            if ok:
                assert _sets(fixed) == want
        return 1

    @staticmethod
    def _domains(rng, n, k):
        return [rng.randrange(1, 1 << k) for _ in range(n)]

    @staticmethod
    def _full_at_root(csp, doms):
        """Whether some support of the root domains covers every value, so
        that _ac3 skips that revision."""
        return any(rel[doms[v]] == rel.full
                   for v, watched in enumerate(csp.watch)
                   for rel, _ in watched)

    def test_undirected_networks_with_random_lists(self):
        rng = random.Random(2024)
        consistent = 0
        for _ in range(300):
            k = rng.randint(1, 6)
            target = plain(k, [(a, b) for a in range(k)
                               for b in range(a + 1, k)
                               if rng.random() < 0.5])
            source = random_tropical(rng, 9, ["x"], edge_prob=rng.random())
            pairs = {(a, b) for a, b in target.edges} | \
                {(b, a) for a, b in target.edges}
            arcs = [(u, v, pairs) for a, b in source.edges
                    for u, v in ((a, b), (b, a))]
            csp = solver._undirected_csp(source,
                                         solver._Supports.of(target.adjacency))
            consistent += self._check(csp, arcs,
                                      self._domains(rng, source.n, k), rng)
        assert 30 < consistent < 270

    def test_undirected_networks_against_dense_targets(self):
        # Against a complete or nearly complete target most supports are
        # full, so most revisions are skipped and most shrinks not queued.
        rng = random.Random(515)
        consistent = skipped = 0
        for i in range(300):
            k = rng.randint(2, 5)
            pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
            dropped = set(rng.sample(pairs, min(len(pairs) - 1,
                                                rng.randint(0, 2))))
            target = plain(k, [e for e in pairs if e not in dropped])
            source = random_tropical(rng, 9, ["x"], edge_prob=rng.random())
            both = {(a, b) for a, b in target.edges} | \
                {(b, a) for a, b in target.edges}
            arcs = [(u, v, both) for a, b in source.edges
                    for u, v in ((a, b), (b, a))]
            csp = solver._undirected_csp(source,
                                         solver._Supports.of(target.adjacency))
            doms = [(1 << k) - 1] * source.n if i % 2 else \
                self._domains(rng, source.n, k)
            skipped += self._full_at_root(csp, doms)
            consistent += self._check(csp, arcs, doms, rng, every_branch=True)
        assert consistent > 150 and skipped > 150

    def test_digraphs_with_two_cycles(self):
        rng = random.Random(77)
        consistent = merged = 0
        for _ in range(300):
            n1, n2 = rng.randint(2, 8), rng.randint(1, 5)
            a1 = {(u, v) for u in range(n1) for v in range(n1)
                  if u != v and rng.random() < 0.25}
            a2 = {(a, b) for a in range(n2) for b in range(n2)
                  if a != b and rng.random() < 0.5}
            d1, d2 = dgraph(n1, a1), dgraph(n2, a2)
            merged += any((v, u) in a1 for u, v in a1)
            consistent += self._check(solver._digraph_csp(d1, d2),
                                      _joint_arcs(a1, a2),
                                      self._domains(rng, n1, n2), rng,
                                      every_branch=True)
        assert 30 < consistent < 270 and merged > 100

    def test_digraphs_against_dense_targets(self):
        # Complete digraphs less a random 10-60% of their arcs: the out-
        # and in-relations differ, and one is full on domains where the
        # other is not.  A shrunk variable may go unqueued only when the
        # relation of its own watch groups is full; a variable whose groups
        # use two or three relations is always queued.
        rng = random.Random(4096)
        consistent = skipped = mixed = 0
        for _ in range(300):
            n1, n2 = rng.randint(3, 8), rng.randint(3, 7)
            a1 = {(u, v) for u in range(n1) for v in range(n1)
                  if u != v and rng.random() < 0.3}
            density = rng.uniform(0.4, 0.9)
            a2 = {(a, b) for a in range(n2) for b in range(n2)
                  if a != b and rng.random() < density}
            d1, d2 = dgraph(n1, a1), dgraph(n2, a2)
            arcs = _joint_arcs(a1, a2)
            csp = solver._digraph_csp(d1, d2)
            doms = self._domains(rng, n1, n2)
            skipped += self._full_at_root(csp, doms)
            out_rel = solver._Supports.of(d2.out_adjacency)
            in_rel = solver._Supports.of(d2.in_adjacency)
            mixed += any((out_rel[d] == out_rel.full) !=
                         (in_rel[d] == in_rel.full) for d in doms)
            consistent += self._check(csp, arcs, doms, rng, every_branch=True)
        assert consistent > 100 and skipped > 100 and mixed > 100

    def test_full_domains_against_k3_revise_each_pair_once(self):
        # Every domain of two or more values supports all of K3, so the
        # root pops each variable once, skips all its revisions and
        # queues nothing.
        k3 = plain(3, [(0, 1), (1, 2), (0, 2)])
        source = random_of_degree(random.Random(5), 30, 4.6)
        csp = solver._undirected_csp(source, solver._Supports.of(k3.adjacency))
        doms = [0b111] * source.n
        assert solver._ac3(csp, doms) == (True, 2 * len(source.edges))
        assert doms == [0b111] * source.n


class TestEnginePin:
    """Exact search records of fixed instances.  Witnesses and node counts
    are those of the set-based engine that the bitmask engine replaced;
    revision counts are those of the variable queue, where a revision
    against a support that covers every value is counted but not
    performed, and a variable whose own support covers every value is not
    queued.  The AC fixpoint is unique, so a change of queue discipline
    shows up here only in the revision count; a change to the branching
    rule or the value order shows up as a different witness or node
    count."""

    K3 = plain(3, [(0, 1), (1, 2), (0, 2)], "k")

    @pytest.mark.parametrize("seed, solvable, images, nodes, passes", [
        (5, True, "022010111102021212220011200122", 10, 400),
        (11, True, "021100100120020220021120211210", 7, 342),
        (2, False, None, 141, 3987),
        (6, False, None, 405, 10353),
    ], ids=["seed5", "seed11", "seed2", "seed6"])
    def test_three_colouring_at_threshold(self, seed, solvable, images,
                                          nodes, passes):
        src = random_of_degree(random.Random(seed), 30, 4.6)
        out = solve_trop_hom(src, self.K3)
        witness = None if images is None else \
            {v: int(c) for v, c in enumerate(images)}
        assert (out.solvable, out.witness, out.nodes, out.passes) == \
            (solvable, witness, nodes, passes)

    C6_SOURCE = plain(10, [(0, 3), (0, 4), (0, 8), (1, 7), (2, 3), (2, 5),
                           (2, 7), (5, 9), (6, 9)])
    C6_LISTS = {0: {0, 1, 2, 5}, 1: {0, 1, 3, 4, 5}, 2: {0, 1, 4, 5},
                3: {0, 1, 4}, 4: {0, 1, 3, 4, 5}, 5: {0, 2}, 6: {2, 3, 4, 5},
                7: {1, 2, 3, 4, 5}, 8: {0, 1, 4, 5}, 9: {0, 1, 2}}

    def test_c6_list_instance(self):
        c6 = plain(6, [(i, (i + 1) % 6) for i in range(6)])
        out = solve_list_hom(self.C6_SOURCE, c6, self.C6_LISTS)
        assert (out.solvable, out.witness, out.nodes, out.passes) == \
            (True, dict(enumerate((1, 1, 1, 0, 0, 0, 2, 2, 0, 1))), 4, 48)

    def test_c6_enumeration_with_limit(self):
        c6 = plain(6, [(i, (i + 1) % 6) for i in range(6)])
        found = enumerate_homs(self.C6_SOURCE, c6, self.C6_LISTS, limit=7)
        images = [(1, 1, 1, 0, 0, 0, 2, 2, 0, 1),
                  (1, 1, 1, 0, 0, 2, 2, 2, 0, 1),
                  (1, 3, 1, 0, 0, 0, 2, 2, 0, 1),
                  (1, 3, 1, 0, 0, 2, 2, 2, 0, 1),
                  (1, 3, 5, 0, 0, 0, 2, 4, 0, 1),
                  (1, 5, 5, 0, 0, 0, 2, 4, 0, 1),
                  (5, 1, 1, 0, 0, 0, 2, 2, 0, 1)]
        assert (found.maps, found.truncated, found.nodes) == \
            (tuple(dict(enumerate(m)) for m in images), True, 16)

    def test_digraph_with_two_cycles(self):
        # The source 2-cycles 2 <-> 6 and 6 <-> 7 each put two relations
        # on one ordered pair, which the engine merges.
        d1 = dgraph(8, [(0, 2), (0, 4), (0, 5), (1, 6), (1, 7), (2, 6),
                        (3, 5), (4, 1), (4, 3), (6, 2), (6, 5), (6, 7),
                        (7, 6)])
        d2 = dgraph(5, [(0, 1), (0, 2), (0, 4), (1, 0), (1, 3), (2, 1),
                        (2, 3), (2, 4), (3, 2), (3, 4), (4, 0), (4, 1),
                        (4, 2)])
        out = solve_digraph_hom(d1, d2)
        assert (out.solvable, out.witness, out.nodes, out.passes) == \
            (True, dict(enumerate((0, 4, 1, 3, 2, 2, 0, 1))), 4, 69)
