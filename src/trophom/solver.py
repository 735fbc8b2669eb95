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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Mapping, Optional

from .graphs import Digraph, InputError, TropicalGraph, check_embedding


@dataclass(frozen=True)
class SolveOutcome:
    """Decision result plus the witness and some search statistics.

    The witness is present exactly when solvable, passes validate_hom for
    the problem it answers, and respects the lists it was solved under.
    """

    solvable: bool
    witness: Optional[dict]
    nodes: int = 0
    passes: int = 0

    @property
    def status(self) -> str:
        return "solvable" if self.solvable else "unsolvable"


@dataclass(frozen=True)
class Enumeration:
    maps: tuple
    truncated: bool
    nodes: int = 0


class _Csp:
    """Binary CSP over dense integer variables.

    cons[u] is a list of (v, rel) pairs; rel maps a value of u to the set of
    compatible values of v.  Constraints are stored in both directions, and
    several relations on the same ordered pair (a digraph 2-cycle, say) are
    merged by intersection since one joint assignment must satisfy them all.
    """

    __slots__ = ("n", "domains", "cons", "into")

    def __init__(self, n: int, domains, cons):
        self.n = n
        self.domains = domains
        merged = [[] for _ in range(n)]
        for u, pairs in enumerate(cons):
            by_partner: dict = {}
            for v, rel in pairs:
                old = by_partner.get(v)
                if old is None:
                    by_partner[v] = rel
                elif old is not rel:
                    by_partner[v] = tuple(
                        old[a] & rel[a] for a in range(len(rel)))
            merged[u] = sorted(by_partner.items())
        self.cons = merged
        # into[v]: list of (u, rel_uv) constraints whose support set is v,
        # i.e. the arcs to re-examine when v's domain shrinks.
        into = [[] for _ in range(n)]
        for u, pairs in enumerate(merged):
            for v, rel in pairs:
                into[v].append((u, rel))
        self.into = into


def _revise(doms, u, v, rel) -> bool:
    """Drop values of u with no support in v's domain."""
    dv = doms[v]
    dead = [a for a in doms[u] if dv.isdisjoint(rel[a])]
    if dead:
        doms[u].difference_update(dead)
        return True
    return False


def _ac3(csp: _Csp, doms, seed=None) -> tuple:
    """Run arc consistency to a fixpoint; returns (consistent, revise_count)."""
    if seed is None:
        queue = deque(
            (u, v, rel) for u in range(csp.n) for v, rel in csp.cons[u])
    else:
        queue = deque(seed)
    queued = set((u, v) for u, v, _ in queue)
    passes = 0
    while queue:
        u, v, rel = queue.popleft()
        queued.discard((u, v))
        passes += 1
        if _revise(doms, u, v, rel):
            if not doms[u]:
                return False, passes
            for w, rel_wu in csp.into[u]:
                if w != v and (w, u) not in queued:
                    queue.append((w, u, rel_wu))
                    queued.add((w, u))
    return True, passes


def _arcs_into(csp: _Csp, v) -> list:
    return [(u, v, rel) for u, rel in csp.into[v]]


def _pick_mrv(doms) -> Optional[int]:
    best, size = None, None
    for i, d in enumerate(doms):
        k = len(d)
        if k > 1 and (size is None or k < size):
            best, size = i, k
            if k == 2:
                break
    return best


def _pick_static(doms) -> Optional[int]:
    for i, d in enumerate(doms):
        if len(d) > 1:
            return i
    return None


class _Counts:
    """Branching nodes and arc revisions of one _search, current at every
    solution it yields."""

    __slots__ = ("nodes", "passes")

    def __init__(self):
        self.nodes = self.passes = 0


def _search(csp: _Csp, pick, stats: _Counts) -> Iterator[dict]:
    """Iterative depth-first search with maintained arc consistency.

    Yields every solution once, in the order the branching rule pick
    (a variable, or None when all domains are singletons) and ascending
    values give; the caller stops pulling when it has what it needs.
    """
    root = [set(d) for d in csp.domains]
    if any(not d for d in root):
        return
    ok, p = _ac3(csp, root)
    stats.passes += p
    if not ok:
        return

    # Each frame: (domains, branch variable, ordered values, next value idx).
    stack: list = []
    cur = root
    while True:
        var = pick(cur)
        if var is None:
            # All singletons; arc consistency makes this a solution.
            yield {i: next(iter(cur[i])) for i in range(csp.n)}
        else:
            stack.append((cur, var, sorted(cur[var]), 0))

        # Descend into the next unexplored branch, backtracking as needed.
        descended = False
        while stack and not descended:
            doms, var, values, idx = stack.pop()
            if idx >= len(values):
                continue
            stack.append((doms, var, values, idx + 1))
            child = [set(d) for d in doms]
            child[var] = {values[idx]}
            stats.nodes += 1
            ok, p = _ac3(csp, child, seed=_arcs_into(csp, var))
            stats.passes += p
            if ok:
                cur = child
                descended = True
        if not descended:
            return


def _first_solution(csp: _Csp) -> SolveOutcome:
    """Decide by the first solution in minimum-remaining-values order."""
    stats = _Counts()
    witness = next(_search(csp, _pick_mrv, stats), None)
    return SolveOutcome(witness is not None, witness, stats.nodes,
                        stats.passes)


def _normalize_lists(source: TropicalGraph, target: TropicalGraph,
                     lists: Optional[Mapping]) -> list:
    if lists is None:
        full = set(range(target.n))
        return [set(full) for _ in range(source.n)]
    doms = []
    for v in range(source.n):
        if v not in lists:
            raise InputError(f"vertex {v} has no list")
        dom = set(lists[v])
        for t in dom:
            if not 0 <= t < target.n:
                raise InputError(f"list of vertex {v} mentions {t}, "
                                 f"out of range for the target")
        doms.append(dom)
    return doms


def _undirected_csp(source: TropicalGraph, target: TropicalGraph,
                    doms) -> _Csp:
    rel = target.adjacency
    cons = [[] for _ in range(source.n)]
    for u, v in source.edges:
        cons[u].append((v, rel))
        cons[v].append((u, rel))
    return _Csp(source.n, doms, cons)


def colour_lists(source: TropicalGraph, target: TropicalGraph) -> dict:
    """Per-vertex candidate sets: the target colour class of each source
    vertex's colour.  This is the laminar list family that makes the
    tropical problem a list-homomorphism instance."""
    classes = target.colour_classes()
    return {v: frozenset(classes.get(source.colours[v], ()))
            for v in range(source.n)}


def solve_list_hom(source: TropicalGraph, target: TropicalGraph,
                   lists: Optional[Mapping] = None) -> SolveOutcome:
    """Decide list homomorphism; exhaustive, deterministic witness."""
    doms = _normalize_lists(source, target, lists)
    return _first_solution(_undirected_csp(source, target, doms))


def enumerate_homs(source: TropicalGraph, target: TropicalGraph,
                   lists: Optional[Mapping] = None,
                   limit: Optional[int] = None) -> Enumeration:
    """All distinct total list homomorphisms in lexicographic order of the
    image tuple (h(0), h(1), ...), truncated at limit when given."""
    if limit is not None and limit < 1:
        raise InputError("limit must be at least 1")
    doms = _normalize_lists(source, target, lists)
    stats = _Counts()
    sols = _search(_undirected_csp(source, target, doms), _pick_static,
                   stats)
    # One solution past the limit, if the search finds it, proves that
    # the listing is truncated.
    maps = tuple(islice(sols, None if limit is None else limit + 1))
    truncated = limit is not None and len(maps) > limit
    return Enumeration(maps[:limit], truncated, stats.nodes)


def solve_trop_hom(source: TropicalGraph,
                   target: TropicalGraph) -> SolveOutcome:
    """Decide (source, c1) -> (target, c): colour classes become lists."""
    return solve_list_hom(source, target, colour_lists(source, target))


def solve_digraph_hom(d1: Digraph, d2: Digraph) -> SolveOutcome:
    """Decide arc-preserving homomorphism between loopless digraphs."""
    doms = [set(range(d2.n)) for _ in range(d1.n)]
    out_rel = d2.out_adjacency
    in_rel = d2.in_adjacency
    cons = [[] for _ in range(d1.n)]
    for u, v in d1.arcs:
        cons[u].append((v, out_rel))
        cons[v].append((u, in_rel))
    return _first_solution(_Csp(d1.n, doms, cons))


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
    csp = _undirected_csp(source, target, doms)
    ok, _ = _ac3(csp, doms)
    return doms if ok else None
