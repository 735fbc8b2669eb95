"""Exact list-homomorphism search.

One binary-CSP engine serves every decision problem here: variables are
source vertices, domains are candidate target vertices, and each source
edge (or arc) contributes an adjacency constraint.  The engine runs
queue-based arc consistency to a fixpoint before and during a backtracking
search, so answers are exhaustive and witnesses deterministic.

Decision and enumeration share one search generator and differ only in
its branching rule: the first witness is taken in minimum-remaining-values
order (ties and values by lowest index), enumeration branches on variables
in index order so maps come out in lexicographic order of their images.

Domains are int bitmasks (bit a set when target vertex a is allowed), so
a branch copies one list of ints.  The arc-consistency queue holds the
variables whose domain shrank, with a bytearray marking the queued ones;
each variable watches the neighbours it supports, grouped by relation.
A revision is one AND with a memoised support: each relation keeps a dict
from the mask of the partner's domain to the mask of values that have a
compatible value in it, filled on a miss, so one lookup serves a whole
group (every neighbour, on an undirected network).  A support equal to
every value prunes nothing, so its group is skipped on pop, and a variable
whose own support is full is not queued when it shrinks (against K3, any
domain of two or more values).  A target's adjacency
relation is kept on the target object with its memo, so every solve
against one target shares the supports earlier solves found; the memo
starts over once it holds more than _SUPPORTS_BOUND masks.  There is no
undo trail: at these sizes copying the domain list is one C-level slice.

A _Csp is the constraint network only; the root domains are passed to
each search, so one network (and its support memo) serves many domain
vectors, as when the core search tries every vertex of one graph.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Mapping, Optional

from .graphs import (Digraph, InputError, TropicalGraph, _kept, _Record,
                     check_embedding)


class SolveOutcome(_Record):
    """Decision result plus the witness and some search statistics.

    The witness is present exactly when solvable, passes validate_hom for
    the problem it answers, and respects the lists it was solved under.
    """

    _fields = ("solvable", "witness", "nodes", "passes")

    def __init__(self, solvable: bool, witness: Optional[dict],
                 nodes: int = 0, passes: int = 0):
        d = self.__dict__
        d["solvable"] = solvable
        d["witness"] = witness
        d["nodes"] = nodes
        d["passes"] = passes

    @property
    def status(self) -> str:
        return "solvable" if self.solvable else "unsolvable"


class Enumeration(_Record):
    _fields = ("maps", "truncated", "nodes")

    def __init__(self, maps: tuple, truncated: bool, nodes: int = 0):
        d = self.__dict__
        d["maps"] = maps
        d["truncated"] = truncated
        d["nodes"] = nodes


# Support masks a target's kept relation holds before it starts over: a
# dict entry is about 0.1 KB, and the plan cache keeps a few targets per
# plan alive.
_SUPPORTS_BOUND = 1024


class _Supports(dict):
    """One relation, with its supports memoised.

    rows[a] is the mask of values of v compatible with u = a.  The dict
    maps a mask of v's domain to the mask of values of u with at least one
    compatible value in it, filled on a miss.  The memo lives with the
    relation, which one _Csp owns or a target keeps (_relation_of).  full
    is the mask of every value of u: a support equal to it prunes nothing.
    """

    __slots__ = ("rows", "full")

    def __init__(self, rows):
        super().__init__()
        self.rows = tuple(rows)
        self.full = (1 << len(self.rows)) - 1

    @classmethod
    def of(cls, rel) -> "_Supports":
        """From rel[a], the set of values of v compatible with u = a."""
        return cls(map(_mask, rel))

    def __missing__(self, dv):
        s = 0
        for a, row in enumerate(self.rows):
            if row & dv:
                s |= 1 << a
        self[dv] = s
        return s


def _mask(values) -> int:
    m = 0
    for a in values:
        m |= 1 << a
    return m


class _Csp:
    """Binary constraint network over dense integer variables, given by
    its watch lists.

    A search takes the domains separately: entry u of its list is an int
    whose bit a is set when value a is allowed for u.  watch[v] lists the
    variables to revise when v's domain shrinks, one group per relation
    object: (rel, (u1, u2, ...)) in order of first u, each tuple ascending,
    with rel a _Supports whose rows[a] is the mask of v's values compatible
    with u = a.  One support rel[doms[v]] serves a whole group.  The
    builder states each ordered pair (u, v) once, under the joint relation
    of all its constraints.

    calm[u] is the one relation of u's own groups (watch[u]), None when
    they use several or none: while calm[u][doms[u]] is full, a shrink of
    u can prune nothing, so u need not be queued.
    """

    __slots__ = ("n", "watch", "calm")

    def __init__(self, watch: list):
        self.n = len(watch)
        self.watch = watch
        self.calm = [g[0][0] if len(g) == 1 else None for g in watch]


def _ac3(csp: _Csp, doms, seed=None) -> tuple:
    """Run arc consistency to a fixpoint; returns (consistent, revise_count).

    The queue holds variables whose domain shrank.  Popping v revises each
    u in watch[v] against v: doms[u] &= rel[doms[v]], one memoised support
    per group, skipped when that support is rel.full.  A shrunk u is queued
    unless its own support calm[u][doms[u]] is full, since popping it
    would then revise nothing; a later shrink checks again.  seed is the
    one variable to start from (a branch just fixed it), every variable
    when None.  The count is of decided revisions, one per (u against v),
    skipped ones included, up to and including a wiped-out domain.
    """
    watch = csp.watch
    calm = csp.calm
    # A list read front to back is the FIFO queue: iteration sees the
    # variables appended behind it, and queued[v] is set while v waits.
    if seed is None:
        queue = list(range(csp.n))
        queued = bytearray(b"\x01") * csp.n
    else:
        queue = [seed]
        queued = bytearray(csp.n)
        queued[seed] = 1
    push = queue.append
    passes = 0
    for v in queue:
        queued[v] = 0
        dv = doms[v]
        for rel, us in watch[v]:
            s = rel[dv]
            if s != rel.full:
                for u in us:
                    du = doms[u]
                    nd = du & s
                    if nd != du:
                        if not nd:
                            return False, passes + us.index(u) + 1
                        doms[u] = nd
                        if not queued[u]:
                            c = calm[u]
                            if c is None or c[nd] != c.full:
                                push(u)
                                queued[u] = 1
            passes += len(us)
    return True, passes


def _pick_mrv(doms) -> Optional[int]:
    best, size = None, None
    for i, d in enumerate(doms):
        if d & (d - 1):
            k = d.bit_count()
            if size is None or k < size:
                best, size = i, k
                if k == 2:
                    break
    return best


def _pick_static(doms) -> Optional[int]:
    for i, d in enumerate(doms):
        if d & (d - 1):
            return i
    return None


class _Counts:
    """Branching nodes and arc revisions of one _search, current at every
    solution it yields."""

    __slots__ = ("nodes", "passes")

    def __init__(self):
        self.nodes = self.passes = 0


def _search(csp: _Csp, doms, pick, stats: _Counts) -> Iterator[dict]:
    """Iterative depth-first search with maintained arc consistency from
    the root domains doms (copied, never changed).

    Yields every solution once, in the order the branching rule pick
    (a variable, or None when all domains are singletons) and ascending
    values give; the caller stops pulling when it has what it needs.
    """
    root = list(doms)
    if not all(root):
        return
    ok, p = _ac3(csp, root)
    stats.passes += p
    if not ok:
        return

    # Each frame: (domains, branch variable, mask of values left to try).
    stack: list = []
    cur = root
    while True:
        var = pick(cur)
        if var is None:
            # All singletons; arc consistency makes this a solution.
            yield {i: d.bit_length() - 1 for i, d in enumerate(cur)}
        else:
            stack.append((cur, var, cur[var]))

        # Descend into the next unexplored branch, backtracking as needed.
        descended = False
        while stack and not descended:
            doms, var, left = stack.pop()
            if not left:
                continue
            low = left & -left
            stack.append((doms, var, left ^ low))
            child = doms[:]
            child[var] = low
            stats.nodes += 1
            ok, p = _ac3(csp, child, var)
            stats.passes += p
            if ok:
                cur = child
                descended = True
        if not descended:
            return


def _first_solution(csp: _Csp, doms) -> SolveOutcome:
    """Decide by the first solution in minimum-remaining-values order."""
    stats = _Counts()
    witness = next(_search(csp, doms, _pick_mrv, stats), None)
    return SolveOutcome(witness is not None, witness, stats.nodes,
                        stats.passes)


def _normalize_lists(source: TropicalGraph, target: TropicalGraph,
                     lists: Optional[Mapping]) -> list:
    """One domain mask per source vertex; all target vertices without
    lists."""
    if lists is None:
        return [(1 << target.n) - 1] * source.n
    doms = []
    # id(list) -> (list, mask): a list object shared by many vertices (as
    # colour_lists shares one per colour) is masked once; holding the
    # object keeps its id from being reused within the call.
    seen: dict = {}
    for v in range(source.n):
        if v not in lists:
            raise InputError(f"vertex {v} has no list")
        values = lists[v]
        hit = seen.get(id(values))
        if hit is None:
            dom = 0
            for t in set(values):
                if not 0 <= t < target.n:
                    raise InputError(f"list of vertex {v} mentions {t}, "
                                     f"out of range for the target")
                dom |= 1 << t
            seen[id(values)] = hit = (values, dom)
        doms.append(hit[1])
    return doms


def _relation_of(target: TropicalGraph) -> _Supports:
    """The target's adjacency relation, kept on the target so its support
    memo serves every solve against it; emptied once past the bound."""
    rel = _kept(target, "_relation", None,
                lambda: _Supports.of(target.adjacency))
    if len(rel) > _SUPPORTS_BOUND:
        rel.clear()
    return rel


def _undirected_csp(source: TropicalGraph, rel: _Supports) -> _Csp:
    """The network of source's edges, every arc under rel: each vertex
    with neighbours watches them in one group."""
    partners = [[] for _ in range(source.n)]
    for u, v in source.edges:
        partners[u].append(v)
        partners[v].append(u)
    return _Csp([[(rel, tuple(sorted(vs)))] if vs else [] for vs in partners])


def colour_lists(source: TropicalGraph, target: TropicalGraph) -> dict:
    """Per-vertex candidate sets: the target colour class of each source
    vertex's colour.  This is the laminar list family that makes the
    tropical problem a list-homomorphism instance.  Vertices of one
    colour share one frozenset."""
    classes = target.colour_classes()
    shared = {c: frozenset(classes.get(c, ())) for c in set(source.colours)}
    return {v: shared[c] for v, c in enumerate(source.colours)}


def solve_list_hom(source: TropicalGraph, target: TropicalGraph,
                   lists: Optional[Mapping] = None) -> SolveOutcome:
    """Decide list homomorphism; exhaustive, deterministic witness."""
    doms = _normalize_lists(source, target, lists)
    if not all(doms):
        return SolveOutcome(False, None, 0, 0)
    return _first_solution(_undirected_csp(source, _relation_of(target)),
                           doms)


def enumerate_homs(source: TropicalGraph, target: TropicalGraph,
                   lists: Optional[Mapping] = None,
                   limit: Optional[int] = None) -> Enumeration:
    """All distinct total list homomorphisms in lexicographic order of the
    image tuple (h(0), h(1), ...), truncated at limit when given."""
    if limit is not None and limit < 1:
        raise InputError("limit must be at least 1")
    doms = _normalize_lists(source, target, lists)
    if not all(doms):
        return Enumeration((), False, 0)
    stats = _Counts()
    sols = _search(_undirected_csp(source, _relation_of(target)), doms,
                   _pick_static, stats)
    # One solution past the limit, if the search finds it, proves that
    # the listing is truncated.
    maps = tuple(islice(sols, None if limit is None else limit + 1))
    truncated = limit is not None and len(maps) > limit
    return Enumeration(maps[:limit], truncated, stats.nodes)


def solve_trop_hom(source: TropicalGraph,
                   target: TropicalGraph) -> SolveOutcome:
    """Decide (source, c1) -> (target, c): colour classes become lists."""
    return solve_list_hom(source, target, colour_lists(source, target))


def _digraph_csp(d1: Digraph, d2: Digraph) -> _Csp:
    """The network of d1's arcs: an arc u -> v asks for an arc of d2 from
    u's value to v's.  u is revised against v under out_rel when d1 has
    only u -> v, under in_rel when it has only v -> u, and under their
    intersection when it has both, since one joint assignment must satisfy
    a 2-cycle's two arcs; every 2-cycle shares that relation and its memo."""
    out_rel = _Supports.of(d2.out_adjacency)
    in_rel = _Supports.of(d2.in_adjacency)
    both = _Supports(map(int.__and__, out_rel.rows, in_rel.rows))
    # Keyed by 1 for u -> v alone, 2 for v -> u alone, 3 for both.
    rels = (None, out_rel, in_rel, both)
    arcs = d1.arcs
    groups: list = [{} for _ in range(d1.n)]
    for u, v in sorted(arcs | {(v, u) for u, v in arcs}):
        key = ((u, v) in arcs) + 2 * ((v, u) in arcs)
        groups[v].setdefault(key, []).append(u)
    return _Csp([[(rels[key], tuple(us)) for key, us in g.items()]
                 for g in groups])


def solve_digraph_hom(d1: Digraph, d2: Digraph) -> SolveOutcome:
    """Decide arc-preserving homomorphism between loopless digraphs."""
    return _first_solution(_digraph_csp(d1, d2), [(1 << d2.n) - 1] * d1.n)


def solve_retraction(host: TropicalGraph, target: TropicalGraph,
                     embedding: Mapping) -> SolveOutcome:
    """Decide whether host retracts onto its embedded copy of target.

    embedding maps each target vertex to its copy in the host and must be
    an injective colour-preserving homomorphism; the retraction fixes the
    copy pointwise (singleton lists there, colour lists elsewhere).
    """
    seen = check_embedding(target, host, embedding)
    for h, t in seen.items():
        if host.colours[h] != target.colours[t]:
            raise InputError(f"embedding breaks colour at target vertex {t}")

    lists = dict(colour_lists(host, target))
    for h, t in seen.items():
        lists[h] = frozenset([t])
    return solve_list_hom(host, target, lists)


def ac_reduce(source: TropicalGraph, target: TropicalGraph,
              lists: Optional[Mapping] = None) -> Optional[list]:
    """Arc-consistent closure of the lists; None when a domain empties."""
    doms = _normalize_lists(source, target, lists)
    # An empty list on a vertex that no arc touches is a wipe-out that
    # _ac3 never sees.
    if not all(doms) or not _ac3(
            _undirected_csp(source, _relation_of(target)), doms)[0]:
        return None
    return [{t for t in range(target.n) if d >> t & 1} for d in doms]
