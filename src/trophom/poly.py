"""Polynomial-time solving strategies and the dispatcher that orders them.

Four routes can settle an instance without exhaustive search:

* all-forcing targets, where one anchor choice propagates a component;
* 2-SAT over caller-supplied (or colour-class) independent pair sets;
* unique-feature elimination, which rewrites the instance into a list
  homomorphism over a pruned target; and
* side-splitting of bipartite targets so the parts use disjoint palettes.

The dispatcher composes them (component split, bipartite reject, bounded
core reduction, colour split, then a strategy) and falls back to the exact
solver only when nothing applies; its status always equals ground truth.
Core reduction skips a target component whose vertices are all forcing,
which is its own core (see _plan_target).  The source is split without
building graphs: a lone vertex or edge is answered by its colours from
the plan's memo, a plan refuses a component (or one side-bit colouring
of it) with a colour its strategy target lacks, and a component graph is
built only where a plan must solve it (see dispatch_solve).  The
colour-class 2-SAT route keeps the clauses of each pair of classes on
the target, and the feature route keeps what the elimination reads of
the target, so a solve builds only what depends on its source.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Callable, Mapping, Optional, Sequence

from .cores import core
from .graphs import (InputError, PreconditionError, TropicalGraph,
                     _kept, _Record, _subgraph, _traverse,
                     connected_components, split_colours)
from .solver import SolveOutcome, solve_list_hom, solve_trop_hom


# ---------------------------------------------------------------------------
# forcing vertices


def forcing_vertices(target: TropicalGraph) -> frozenset:
    """Vertices whose neighbours all wear pairwise distinct colours.

    Degree <= 1 qualifies vacuously.  Mapping onto a forcing vertex pins
    the images of all neighbours at once.
    """
    out = set()
    for v in range(target.n):
        seen = set()
        ok = True
        for w in target.adjacency[v]:
            c = target.colours[w]
            if c in seen:
                ok = False
                break
            seen.add(c)
        if ok:
            out.add(v)
    return frozenset(out)


def _forcing_tables(target: TropicalGraph) -> tuple:
    """For each target vertex, map neighbour colour -> the one neighbour.

    PreconditionError unless every target vertex is forcing, which is
    when no table comes out shorter than its vertex's neighbourhood.
    """
    colours = target.colours
    tables = []
    for nbrs in target.adjacency:
        table = {colours[w]: w for w in nbrs}
        if len(table) < len(nbrs):
            raise PreconditionError("target has a non-forcing vertex")
        tables.append(table)
    return tuple(tables)


def _tables_of(target: TropicalGraph) -> tuple:
    """_forcing_tables(target), built once per target object and kept on
    it like its adjacency, so a planned target's solves reuse the tables
    its route check built."""
    return _kept(target, "_forcing", None, lambda: _forcing_tables(target))


def solve_all_forcing(source: TropicalGraph,
                      target: TropicalGraph) -> SolveOutcome:
    """Anchor-and-propagate decision for targets made of forcing vertices.

    Anchor at each source vertex not yet placed, in ascending order (so at
    the smallest vertex of each component): try every same-coloured image,
    propagate the forced images breadth-first, accept on the first
    completed trial.  Exhaustive because the propagation is deterministic.
    """
    tables = _tables_of(target)
    classes = target.colour_classes()
    adjacency, colours = source.adjacency, source.colours

    witness: dict = {}
    trials = 0
    for anchor in range(source.n):
        if anchor in witness:
            continue
        placed = None
        for t in classes.get(colours[anchor], ()):
            trials += 1
            image = {anchor: t}
            queue = [anchor]
            ok = True
            while queue and ok:
                u = queue.pop()
                base = tables[image[u]]
                for w in adjacency[u]:
                    req = base.get(colours[w])
                    if req is None:
                        ok = False
                        break
                    if w in image:
                        if image[w] != req:
                            ok = False
                            break
                    else:
                        image[w] = req
                        queue.append(w)
            if ok:
                placed = image
                break
        if placed is None:
            return SolveOutcome(False, None, nodes=trials)
        witness.update(placed)
    return SolveOutcome(True, witness, nodes=trials)


# ---------------------------------------------------------------------------
# 2-SAT


class TwoSatFormula(_Record):
    """Clauses are pairs of literals; a literal is (variable, polarity)."""

    _fields = ("n_vars", "clauses")

    def __init__(self, n_vars: int, clauses: tuple):
        if n_vars < 0:
            raise InputError("variable count must be nonnegative")
        for cl in clauses:
            if len(cl) != 2:
                raise InputError("2-SAT clauses take exactly two literals")
            for var, _pol in cl:
                if not 0 <= var < n_vars:
                    raise InputError(f"literal variable {var} out of range")
        d = self.__dict__
        d["n_vars"] = n_vars
        d["clauses"] = clauses


def two_sat(n_vars: int, clauses) -> TwoSatFormula:
    return TwoSatFormula(n_vars,
                         tuple(tuple(map(tuple, cl)) for cl in clauses))


def solve_2sat(f: TwoSatFormula) -> Optional[list]:
    """Satisfying assignment or None, via the strongly connected
    components of the implication graph (Aspvall, Plass & Tarjan 1979).

    Tarjan's algorithm runs iteratively, with one successor iterator per
    frame; a vertex is on the stack while it is indexed and has no
    component yet.  Roots are visited in vertex order and successors in
    clause order, so the components, and with them the assignment, are
    numbered the same on every run.
    """
    n = 2 * f.n_vars
    # literal (v, pol) -> node 2v + (0 if pol else 1); node^1 is the negation
    succ = [[] for _ in range(n)]
    for (a, pa), (b, pb) in f.clauses:
        la = 2 * a + (not pa)
        lb = 2 * b + (not pb)
        succ[la ^ 1].append(lb)
        succ[lb ^ 1].append(la)

    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list = []
    counter = n_comps = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        frames = [(root, iter(succ[root]))]
        while frames:
            v, successors = frames[-1]
            for w in successors:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    frames.append((w, iter(succ[w])))
                    break
                if comp[w] == -1 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                frames.pop()
                lv = low[v]
                if lv == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = n_comps
                        if w == v:
                            break
                    n_comps += 1
                if frames:
                    u = frames[-1][0]
                    if lv < low[u]:
                        low[u] = lv

    assignment = []
    for v in range(f.n_vars):
        if comp[2 * v] == comp[2 * v + 1]:
            return None
        # Tarjan completes sink components first; the literal whose
        # component finishes earlier is safe to satisfy.
        assignment.append(comp[2 * v] < comp[2 * v + 1])
    return assignment


# ---------------------------------------------------------------------------
# pair-set reduction (independent sets of size <= 2)


def _check_pair_sets(target: TropicalGraph, pair_sets) -> list:
    sets = []
    for i, s in enumerate(pair_sets):
        members = tuple(s)
        if not 1 <= len(members) <= 2 or len(set(members)) != len(members):
            raise PreconditionError(f"pair set {i} must hold 1 or 2 vertices")
        for v in members:
            if not 0 <= v < target.n:
                raise InputError(f"pair set {i} mentions vertex {v}")
        if len(members) == 2 and target.has_edge(*members):
            raise PreconditionError(f"pair set {i} is not independent")
        sets.append(members)
    return sets


def solve_via_pairs(source: TropicalGraph, target: TropicalGraph,
                    pair_sets: Sequence, assign: Mapping) -> SolveOutcome:
    """Decide the instance as a 2-SAT formula over the source vertices.

    Every source vertex is committed to one independent set of at most two
    target vertices (first member listed means TRUE); each source edge
    contributes the clauses forbidding incompatible truth combinations.
    Exact whenever some optimal homomorphism respects the commitment, which
    holds in particular when the sets are the target's colour classes.
    """
    sets = _check_pair_sets(target, pair_sets)
    idx_of = []
    for v in range(source.n):
        if v not in assign:
            raise InputError(f"no pair set assigned to source vertex {v}")
        i = assign[v]
        if not 0 <= i < len(sets):
            raise InputError(f"pair set index {i} out of range")
        idx_of.append(i)
    return _solve_pairs(source, target, sets, idx_of, {})


def _solve_pairs(source: TropicalGraph, target: TropicalGraph, sets: list,
                 idx_of: list, table: dict) -> SolveOutcome:
    """solve_via_pairs on checked pair sets, idx_of[v] being the set of
    source vertex v.

    table maps a pair (i, j) of set indices to the clauses that an edge
    from set i to set j contributes (see _forbidden), and is filled here
    on first use: the colour-class route keeps one per target, beside its
    pair sets, and a caller's own sets get a fresh one.  Clauses come in
    vertex order, then in edge order, as they always did."""
    clauses = []
    t_colours, s_colours = target.colours, source.colours
    for v in range(source.n):
        members = sets[idx_of[v]]
        allowed = [m for m in members if t_colours[m] == s_colours[v]]
        if not allowed:
            return SolveOutcome(False, None)
        if len(members) == 1 or allowed == [members[0]]:
            clauses.append(((v, True), (v, True)))
        elif allowed == [members[1]]:
            clauses.append(((v, False), (v, False)))

    for x, y in source.edges:
        i, j = idx_of[x], idx_of[y]
        try:
            forbidden = table[i, j]
        except KeyError:
            forbidden = table[i, j] = _forbidden(target, sets[i], sets[j])
        if forbidden is None:
            return SolveOutcome(False, None)
        for px, py in forbidden:
            clauses.append(((x, px), (y, py)))

    result = solve_2sat(TwoSatFormula(source.n, tuple(clauses)))
    if result is None:
        return SolveOutcome(False, None)
    witness = {}
    for v in range(source.n):
        members = sets[idx_of[v]]
        witness[v] = members[0] if (result[v] or len(members) == 1) \
            else members[1]
    return SolveOutcome(True, witness)


def _forbidden(target: TropicalGraph, si: tuple, sj: tuple) -> Optional[tuple]:
    """The clauses of an edge between a vertex committed to pair set si
    and one committed to sj, as literal polarities (px, py): one for each
    truth combination (first member means TRUE) that no target edge
    joins, in the order TT, TF, FT, FF.  None when no target edge joins
    the two sets at all (so also when si is sj, an independent set)."""
    allowed = set()
    for u in si:
        for w in sj:
            if target.has_edge(u, w):
                allowed.add((u == si[0], w == sj[0]))
    if not allowed:
        return None
    return tuple((not bx, not by)
                 for bx, by in ((True, True), (True, False), (False, True),
                                (False, False))
                 if (bx, by) not in allowed)


def colour_class_pairs(target: TropicalGraph) -> tuple:
    """The built-in pair rule: colour classes of size at most two.

    Returns (pair_sets, colour->index).  PreconditionError when a class is
    larger than two or not independent.
    """
    classes = target.colour_classes()
    keys = sorted(classes, key=lambda c: classes[c][0])
    pair_sets = []
    which = {}
    for c in keys:
        members = classes[c]
        if len(members) > 2:
            raise PreconditionError(
                f"colour {c!r} is used {len(members)} times")
        which[c] = len(pair_sets)
        pair_sets.append(members)
    _check_pair_sets(target, pair_sets)
    return pair_sets, which


def _pairs_of(target: TropicalGraph) -> tuple:
    """colour_class_pairs(target), checked once per target object and kept
    on it with an empty _solve_pairs table, so a planned target's solves
    reuse the sets its route check built and the clauses of each pair of
    colour classes."""
    return _kept(target, "_pairs", None,
                 lambda: (*colour_class_pairs(target), {}))


def solve_by_colour_pairs(source: TropicalGraph,
                          target: TropicalGraph) -> SolveOutcome:
    """2-SAT route for targets where each colour is used at most twice."""
    pair_sets, which, table = _pairs_of(target)
    idx_of = []
    for c in source.colours:
        i = which.get(c)
        if i is None:
            return SolveOutcome(False, None)
        idx_of.append(i)
    return _solve_pairs(source, target, pair_sets, idx_of, table)


# ---------------------------------------------------------------------------
# unique tropical features


class FeatureSet(_Record):
    """Locally unique colour patterns of a target, by kind.

    type1: vertices alone in their colour class.
    type2: edges whose endpoint colour pair appears on no other edge
           (only distinctly coloured endpoints are eligible; see notes).
    type3: vertices with a monochromatic neighbourhood nothing else can
           reach under the same colours.
    type4: forcing vertices whose two-step colour pattern occurs nowhere
           else, replaceable by pendant edges.
    """

    _fields = ("type1", "type2", "type3", "type4")

    def __init__(self, type1: frozenset = frozenset(),
                 type2: frozenset = frozenset(),
                 type3: frozenset = frozenset(),
                 type4: frozenset = frozenset()):
        d = self.__dict__
        d["type1"] = type1
        d["type2"] = type2
        d["type3"] = type3
        d["type4"] = type4

    def __bool__(self):
        return bool(self.type1 or self.type2 or self.type3 or self.type4)


def _is_type1(target: TropicalGraph, u: int) -> bool:
    return len(target.colour_classes()[target.colours[u]]) == 1


def _colour_pair_counts(target: TropicalGraph) -> Counter:
    """Number of edges per unordered pair of endpoint colours."""
    return Counter(frozenset((target.colours[u], target.colours[v]))
                   for u, v in target.edges)


def _nbr_colours(target: TropicalGraph) -> tuple:
    """The set of colours each vertex sees on its neighbours."""
    return tuple(frozenset(target.colours[w] for w in target.adjacency[v])
                 for v in range(target.n))


def _is_type2(target: TropicalGraph, edge, pair_counts: Counter) -> bool:
    a, b = edge
    ca, cb = target.colours[a], target.colours[b]
    if ca == cb:
        # The elimination pins the two endpoints to the two ends of this
        # edge; with equal colours that orientation is ill-defined.
        return False
    others = pair_counts[frozenset((ca, cb))] - (edge in target.edges)
    return others == 0


def _is_type3(target: TropicalGraph, u: int, ncol: tuple) -> bool:
    if len(ncol[u]) != 1:
        return False
    (s_colour,) = ncol[u]
    cu = target.colours[u]
    nbrs = target.adjacency[u]
    return not any(cu in ncol[w] and w not in nbrs
                   for w in target.colour_classes()[s_colour])


def _is_type4(target: TropicalGraph, u: int, forcing: frozenset,
              ncol: tuple) -> bool:
    """forcing is forcing_vertices(target), computed once by the caller."""
    mine = ncol[u]
    if not mine:
        # an isolated vertex would be deleted with no pendant replacing it
        return False
    if u not in forcing:
        return False
    if len(mine) < 2:
        return True
    # No other vertex of u's colour may see two of these colours at once;
    # that covers paths through u as an endpoint as well as paths avoiding
    # u entirely, which is what the elimination actually relies on.
    return not any(m != u and len(ncol[m] & mine) >= 2
                   for m in target.colour_classes()[target.colours[u]])


def detect_features(target: TropicalGraph) -> FeatureSet:
    """Maximal feature sets of each kind; memberships are re-checkable.

    Linear in the target's edges apart from the scans of one colour class
    per vertex in the type-3 and type-4 checks."""
    pairs = _colour_pair_counts(target)
    ncol = _nbr_colours(target)
    t1 = frozenset(u for u in range(target.n) if _is_type1(target, u))
    t2 = frozenset(e for e in target.edges if _is_type2(target, e, pairs))
    t3 = frozenset(u for u in range(target.n)
                   if _is_type3(target, u, ncol))
    forcing = forcing_vertices(target)
    t4 = frozenset(u for u in range(target.n)
                   if _is_type4(target, u, forcing, ncol))
    return FeatureSet(t1, t2, t3, t4)


class ReducedInstance(_Record):
    """A list-homomorphism instance equivalent to the original problem.

    source/lists/target are reindexed; the *_to_original tuples recover
    original indices (pendant target vertices point back at the vertex
    they replace), and pinned records the forced images of source
    vertices the elimination deleted.
    """

    _fields = ("source", "lists", "target", "source_to_original",
               "target_to_original", "pinned")

    def __init__(self, source: TropicalGraph, lists: dict,
                 target: TropicalGraph, source_to_original: tuple,
                 target_to_original: tuple, pinned: dict):
        d = self.__dict__
        d["source"] = source
        d["lists"] = lists
        d["target"] = target
        d["source_to_original"] = source_to_original
        d["target_to_original"] = target_to_original
        d["pinned"] = pinned


def _disjoint_features(fs: FeatureSet, target: TropicalGraph) -> FeatureSet:
    """Normalize for reduction: kinds 1 < 3 < 4 claim a vertex first, and a
    type-4 vertex adjacent to any deleted vertex is dropped."""
    t1 = set(fs.type1)
    t3 = set(fs.type3) - t1
    t4 = set(fs.type4) - t1 - t3
    deleted = t1 | t3 | t4
    t4 = {u for u in t4
          if not any(w in deleted for w in target.adjacency[u])}
    return FeatureSet(frozenset(t1), fs.type2, frozenset(t3), frozenset(t4))


def _validate_features(target: TropicalGraph, s: FeatureSet):
    for u in (*s.type1, *s.type3, *s.type4):
        if not 0 <= u < target.n:
            raise InputError(f"feature vertex {u} out of range")
    pairs = _colour_pair_counts(target)
    ncol = _nbr_colours(target)
    forcing = forcing_vertices(target)
    for u in s.type1:
        if not _is_type1(target, u):
            raise InputError(f"vertex {u} is not a type-1 feature")
    for e in s.type2:
        edge = tuple(sorted(e))
        if edge not in target.edges or not _is_type2(target, edge, pairs):
            raise InputError(f"edge {e} is not a type-2 feature")
    for u in s.type3:
        if not _is_type3(target, u, ncol):
            raise InputError(f"vertex {u} is not a type-3 feature")
    for u in s.type4:
        if not _is_type4(target, u, forcing, ncol):
            raise InputError(f"vertex {u} is not a type-4 feature")
    if _disjoint_features(s, target) != s:
        raise InputError("feature vertex sets must be pairwise disjoint, "
                         "and no type-4 vertex may border another deleted "
                         "feature")


def reduce_by_features(source: TropicalGraph, target: TropicalGraph,
                       s: FeatureSet) -> Optional[ReducedInstance]:
    """Eliminate the features in kind order 1,2,3,4 (ascending within each).

    Returns the surviving instance over the pruned target, or None when a
    list empties along the way, which proves the instance unsolvable.
    """
    # What the elimination reads of the target is kept on it, like its
    # forcing tables: the dispatcher reduces every source component and
    # split variant with the same planned set, and they all share one
    # pruned graph and so one support memo.
    (new_target, t_back, images, class_masks, nbr_masks,
     type1, type2, type3, type4) = _kept(
        target, "_pruned", s, lambda: _pruned_target(target, s))
    n, colours = source.n, source.colours
    # lists are masks over the target's vertices
    lists = [class_masks.get(c, 0) for c in colours]
    if not all(lists):
        return None
    alive = [True] * n
    adj = [set() for _ in range(n)]
    for x, y in source.edges:
        adj[x].add(y)
        adj[y].add(x)
    of_colour: dict = {}  # source colour -> its vertices, ascending
    for v, c in enumerate(colours):
        of_colour.setdefault(c, []).append(v)
    pinned: dict = {}

    def drop_vertex(v: int):
        alive[v] = False
        for w in adj[v]:
            adj[w].discard(v)
        adj[v].clear()

    def pin(v: int, u: int) -> bool:
        """Map v onto u: its neighbours must land beside u, then v goes."""
        beside = nbr_masks[u]
        for w in adj[v]:
            lists[w] &= beside
            if not lists[w]:
                return False
        pinned[v] = u
        drop_vertex(v)
        return True

    # type 1: the single vertex of its colour
    for u, cu in type1:
        for v in of_colour.get(cu, ()):
            if alive[v] and not pin(v, u):
                return None

    # type 2: the single edge with its colour pair
    edges = sorted(source.edges) if type2 else ()
    for a, b, ca, cb in type2:
        for x, y in edges:
            if not (alive[x] and alive[y]) or y not in adj[x]:
                continue
            cx, cy = colours[x], colours[y]
            if (cx, cy) == (cb, ca):
                x, y = y, x
            elif (cx, cy) != (ca, cb):
                continue
            lists[x] &= 1 << a
            lists[y] &= 1 << b
            if not (lists[x] and lists[y]):
                return None
            adj[x].discard(y)
            adj[y].discard(x)

    # type 3: monochromatic neighbourhood, unreachable elsewhere
    for u, cu, s_colour in type3:
        for v in of_colour.get(cu, ()):
            if not alive[v] or not lists[v] >> u & 1:
                continue
            if any(colours[w] != s_colour for w in adj[v]):
                continue
            if not pin(v, u):
                return None

    # type 4: forced landings, then pendant surgery on the target
    for u, cu, by_colour in type4:
        pattern = [x for x in of_colour.get(cu, ())
                   if alive[x] and len(by_colour.keys()
                                       & {colours[w] for w in adj[x]}) >= 2]
        pat = set(pattern)
        for x in pattern:
            if not lists[x] >> u & 1:
                return None
            if not pat.isdisjoint(adj[x]):
                return None
        for x in pattern:
            boundary = sorted(adj[x])
            pinned[x] = u
            drop_vertex(x)
            for y in boundary:
                req = by_colour.get(colours[y])
                if req is None:
                    return None
                lists[y] &= 1 << req
                if not lists[y]:
                    return None

    # the surviving source, its lists projected onto the pruned target
    kept = [v for v in range(n) if alive[v]]
    s_pos = {v: i for i, v in enumerate(kept)}
    # kept ascends, so x < y keeps each pair normalized
    new_source = TropicalGraph(
        len(kept),
        frozenset([(s_pos[x], s_pos[y]) for x in kept for y in adj[x]
                   if x < y]),
        tuple([colours[v] for v in kept]))

    new_lists = {}
    projected: dict = {}  # list mask -> its projection
    for i, v in enumerate(kept):
        mask = lists[v]
        dom = projected.get(mask)
        if dom is None:
            members: set = set()
            rest = mask
            while rest:
                h = (rest & -rest).bit_length() - 1
                members.update(images[h])
                rest &= rest - 1
            dom = projected[mask] = frozenset(members)
        if not dom:
            return None
        new_lists[i] = dom

    return ReducedInstance(new_source, new_lists, new_target,
                           tuple(kept), t_back, pinned)


def _pruned_target(target: TropicalGraph, s: FeatureSet) -> tuple:
    """Validate s against target and prepare its elimination.

    Returns (pruned target, pruned index -> original index, original
    vertex -> its pruned indices, colour -> mask of its class, vertex ->
    mask of its neighbours, then the four feature kinds in elimination
    order: type-1 (u, colour), type-2 (a, b, colour of a, colour of b),
    type-3 (u, colour, neighbour colour) and type-4 (u, colour, neighbour
    colour -> that neighbour)).  Type-1, -3 and -4 vertices go, type-2
    edges are cut, and each type-4 vertex becomes one pendant vertex per
    neighbour, which are its pruned indices."""
    _validate_features(target, s)
    colours, adjacency = target.colours, target.adjacency
    gone = set(s.type1) | set(s.type3) | set(s.type4)
    survivors = [h for h in range(target.n) if h not in gone]
    pos = {h: i for i, h in enumerate(survivors)}
    images = [(pos[h],) if h in pos else () for h in range(target.n)]
    cut = {tuple(sorted(e)) for e in s.type2}
    t_edges = set()
    for a, b in target.edges:
        if a in pos and b in pos and (a, b) not in cut:
            t_edges.add((pos[a], pos[b]))
    t_colours = [colours[h] for h in survivors]
    t_back = list(survivors)
    type4 = []
    for u in sorted(s.type4):
        pendants = []
        for v in sorted(adjacency[u]):
            idx = len(t_colours)
            t_colours.append(colours[u])
            t_back.append(u)
            t_edges.add(tuple(sorted((idx, pos[v]))))
            pendants.append(idx)
        images[u] = tuple(pendants)
        type4.append((u, colours[u], {colours[w]: w for w in adjacency[u]}))
    pruned = TropicalGraph(len(t_colours), frozenset(t_edges),
                           tuple(t_colours))
    class_masks = {c: sum(1 << h for h in vs)
                   for c, vs in target.colour_classes().items()}
    nbr_masks = [sum(1 << w for w in nbrs) for nbrs in adjacency]
    type1 = [(u, colours[u]) for u in sorted(s.type1)]
    type2 = [(a, b, colours[a], colours[b]) for a, b in sorted(s.type2)]
    type3 = [(u, colours[u], colours[next(iter(adjacency[u]))])
             for u in sorted(s.type3)]
    return (pruned, tuple(t_back), tuple(images), class_masks, nbr_masks,
            type1, type2, type3, type4)


# ---------------------------------------------------------------------------
# dispatcher


ROUTE_CORE = "CoreReduced"
ROUTE_FORCING = "AllForcing"
ROUTE_TWOSAT = "TwoSat"
ROUTE_FEATURE = "UniqueFeature"
ROUTE_SPLIT = "SplitColours"
ROUTE_FALLBACK = "ExactFallback"
# Targets up to this many vertices are replaced by their core first.
_CORE_BOUND = 20
# Target plans kept by _plan_dispatch; a plan for a target of up to
# _CORE_BOUND vertices takes about 5-6 KB, plus its answers for source
# components of at most two vertices (emptied past _ANSWERS_BOUND, about
# 0.8 KB each) and what its targets keep: pair sets, a pruned feature
# target, and support memos of at most solver._SUPPORTS_BOUND masks each.
_PLAN_CACHE = 32
_ANSWERS_BOUND = 128


class StrategyReport(_Record):
    _fields = ("route", "notes")

    def __init__(self, route: tuple, notes: tuple = ()):
        d = self.__dict__
        d["route"] = route
        d["notes"] = notes


class _TargetPlan:
    __slots__ = ("steps", "solve", "to_original", "split", "palette",
                 "answers")

    def __init__(self, steps: tuple, solve: Callable, to_original: tuple,
                 split: bool, palette: frozenset = frozenset()):
        self.steps = steps
        self.solve = solve              # source component -> SolveOutcome
        self.to_original = to_original  # strategy-target index -> index in
                                        # the whole dispatched target
        self.split = split
        # the strategy target's colours, (c, side bit) pairs when split: a
        # source colouring with a colour outside it has no homomorphism
        self.palette = palette
        # colours of a source component of at most two vertices -> answer
        self.answers = {}


def _holds(check, target: TropicalGraph) -> bool:
    """Whether a route's precondition check passes on the target."""
    try:
        check(target)
    except PreconditionError:
        return False
    return True


def _solve_by_features(src: TropicalGraph, t: TropicalGraph,
                       features: FeatureSet) -> SolveOutcome:
    red = reduce_by_features(src, t, features)
    if red is None:
        return SolveOutcome(False, None)
    out = solve_list_hom(red.source, red.target, red.lists)
    if not out.solvable:
        return out
    witness = dict(red.pinned)
    for new_v, new_t in out.witness.items():
        witness[red.source_to_original[new_v]] = red.target_to_original[new_t]
    return SolveOutcome(True, witness, out.nodes, out.passes)


def _strategy(t: TropicalGraph) -> tuple:
    """(route, solver) for the first route whose precondition holds on t:
    all-forcing, colour classes of size <= 2, unique features, and the
    exact solver last.  Each solver takes one source component and looks
    the strategy up by its public name when it runs."""
    if _holds(_tables_of, t):
        return ROUTE_FORCING, lambda src: solve_all_forcing(src, t)
    if _holds(_pairs_of, t):
        return ROUTE_TWOSAT, lambda src: solve_by_colour_pairs(src, t)
    features = _disjoint_features(detect_features(t), t)
    if features:
        return ROUTE_FEATURE, lambda src: _solve_by_features(src, t, features)
    return ROUTE_FALLBACK, lambda src: solve_trop_hom(src, t)


def _plan_target(tc: TropicalGraph, tmap: tuple) -> _TargetPlan:
    """Plan one connected target component; tmap maps its vertices to the
    whole target's.

    A component of at most _CORE_BOUND vertices is replaced by its core,
    unless every vertex is forcing: a connected all-forcing graph is its
    own core.  A retraction r onto a proper induced subgraph R would meet
    an edge uw with u outside R and w in R (the graph is connected), and
    map u onto r(u) != u, a neighbour of r(w) = w with u's colour; two
    neighbours of w would share a colour.
    """
    steps = []
    work = tc
    to_original = tmap
    if 0 < tc.n <= _CORE_BOUND and len(forcing_vertices(tc)) < tc.n:
        reduced = core(tc)
        if reduced.graph.n < tc.n:
            steps.append(ROUTE_CORE)
            work = reduced.graph
            to_original = tuple(tmap[v] for v in reduced.retained)
    # The component and its core (a retract of a connected graph) are
    # connected, so split_colours's one BFS raises only on an odd cycle.
    split = False
    if work.n:
        try:
            work = split_colours(work)
        except PreconditionError:
            pass
        else:
            split = True
            steps.append(ROUTE_SPLIT)
    route, solve = _strategy(work)
    steps.append(route)
    return _TargetPlan(tuple(steps), solve, to_original, split,
                       frozenset(work.colours))


def _settle(sc: TropicalGraph, colourings: list,
            plan: _TargetPlan) -> SolveOutcome:
    """The plan's answer for the source component graph sc.  An unsplit
    plan solves sc itself.  A split plan solves sc under each side-bit
    colouring in colourings in turn, up to the first with an answer, and
    nodes and passes add up over the tries.  The caller passes only the
    colourings whose colours all lie in the plan's palette."""
    if not plan.split:
        return plan.solve(sc)
    nodes = passes = 0
    for recolouring in colourings:
        out = plan.solve(sc.recoloured(recolouring))
        nodes += out.nodes
        passes += out.passes
        if out.solvable:
            return SolveOutcome(True, out.witness, nodes, passes)
    return SolveOutcome(False, None, nodes, passes)


# The answer of a plan that has no colouring of a component to solve.
_REFUSED = SolveOutcome(False, None)


@functools.lru_cache(maxsize=_PLAN_CACHE)
def _plan_dispatch(target: TropicalGraph) -> tuple:
    """(plans, route, notes) for the target, all tuples: one _TargetPlan
    per target component, the merged route with ExactFallback last, and
    one note per component.  Cached by the target's value, so the result
    must stay immutable; the one memo a plan holds, its answers for
    components of at most two vertices, caches only answers that the
    plan's value determines."""
    target_comps = connected_components(target)
    plans = []
    route: list = []
    notes = []
    for ci, (tc, tmap) in enumerate(target_comps):
        plan = _plan_target(tc, tmap)
        plans.append(plan)
        label = f"target[{ci}]" if len(target_comps) > 1 else "target"
        notes.append(f"{label}: " + " -> ".join(plan.steps))
        for step in plan.steps:
            if step not in route:
                route.append(step)
    if not plans:
        # an empty target's plan never places a vertex
        plans = [_plan_target(target, ())]
        route = list(plans[0].steps)
    if ROUTE_FALLBACK in route:
        route = [s for s in route if s != ROUTE_FALLBACK] + [ROUTE_FALLBACK]
    return tuple(plans), tuple(route), tuple(notes)


def dispatch_solve(source: TropicalGraph,
                   target: TropicalGraph) -> tuple:
    """Route the instance through the strategy pipeline.

    Returns (SolveOutcome, StrategyReport).  The route lists the pipeline
    steps chosen for the target; ExactFallback appears only when no
    polynomial strategy applied.  The status always equals the exact
    solver's answer.  The outcome's nodes and passes are the sums over
    the component solves that ran (the exact solver's search nodes and
    arc revisions, the all-forcing route's anchor trials); a refused
    colouring runs no solve and adds nothing.

    Each target is planned once: the plan (components, core, colour split,
    route) is kept in a bounded cache keyed by the target's value, so an
    equal target built again reuses it.  The answer and the report do not
    depend on whether the plan was cached.

    The source is split in one pass (graphs._traverse) and settled one
    component at a time, up to the first component that no plan solves.
    A lone vertex or edge is answered by its colours from each plan's
    memo, and a graph is built for it only when a plan misses; a larger
    component's graph is built when the loop reaches it.

    A homomorphism preserves colours, so a plan refuses, before any graph
    is built, a component with a colour outside its palette: an unsplit
    plan the component itself, a split plan each side-bit colouring with
    a (colour, side) pair its strategy target lacks.  Such a colouring has
    no answer, so the statuses, witnesses and notes are those of solving
    it; only the nodes of the solve it spares are missing.
    """
    plans, route, target_notes = _plan_dispatch(target)
    notes = list(target_notes)
    witness: Optional[dict] = {}
    nodes = passes = 0
    colours = source.colours
    for si, (smap, bits, nbrs) in enumerate(_traverse(source)):
        # A component of at most two vertices is a vertex or an edge, so
        # its colours determine it: each plan keeps its answer under them.
        # Being bipartite, it never writes a note.  A larger component's
        # key is None, which no plan keeps, so every plan settles it.
        if len(smap) > 2:
            key = None
        elif len(smap) == 1:
            key = (colours[smap[0]],)
        else:
            key = (colours[smap[0]], colours[smap[1]])
        # The component graph, its colours and its two side-bit
        # colourings, each made at the first plan that reads it.  Only the
        # colourings that fit the plan's palette are solved.
        sc = own = sides = None
        for plan in plans:
            out = plan.answers.get(key)
            if out is None:
                if own is None:
                    own = tuple([colours[v] for v in smap])
                palette = plan.palette
                if not plan.split:
                    fits = [own] if palette.issuperset(own) else []
                elif bits is None:
                    notes.append(
                        f"source[{si}]: odd cycle against a bipartite target")
                    fits = []
                else:
                    if sides is None:
                        sides = (tuple(zip(own, bits)),
                                 tuple(zip(own, [b ^ 1 for b in bits])))
                    fits = [c for c in sides if palette.issuperset(c)]
                if fits:
                    if sc is None:
                        sc = _subgraph(source, smap, nbrs)
                    out = _settle(sc, fits, plan)
                else:
                    out = _REFUSED
                if key is not None:
                    if len(plan.answers) >= _ANSWERS_BOUND:
                        plan.answers.clear()
                    plan.answers[key] = out
            nodes += out.nodes
            passes += out.passes
            if out.solvable:
                to_original = plan.to_original
                for v, img in out.witness.items():
                    witness[smap[v]] = to_original[img]
                break
        else:
            witness = None
            break
    report = StrategyReport(route, tuple(notes))
    return SolveOutcome(witness is not None, witness, nodes, passes), report
