"""Vertex-coloured graphs and the basic transformations everything else builds on.

A tropical graph is a finite, simple, loopless undirected graph together with
a total vertex colouring (not necessarily proper).  A homomorphism between
tropical graphs must preserve both edges and colours.  Colours are opaque
hashable tokens; builders use readable strings, solvers group them into
classes internally.
"""

from __future__ import annotations

import operator
from typing import Hashable, Iterable, Mapping, Optional, Sequence

Colour = Hashable
VertexMap = dict  # source vertex index -> target vertex index


class InputError(ValueError):
    """Malformed input: bad indices, missing colours, invalid maps."""


class PreconditionError(ValueError):
    """Well-formed input that violates an operation's stated precondition."""


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class _cached:
    """A read-only attribute computed on first read and stored in the
    instance __dict__ under its own name.  Being a non-data descriptor,
    it is not consulted again once the value is there, and it takes no
    lock: functools.cached_property takes one on every first read on
    Python 3.10-3.11.  Threads racing on a first read each compute the
    value, and one of the equal results is kept."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class _Record:
    """Base of the package's immutable records.

    A subclass names its fields in _fields, in signature order, and its
    own __init__ validates them and stores them straight into the instance
    __dict__; assignment and deletion raise AttributeError.  Equality and
    hashing read the fields as one tuple, and records of different classes
    never compare equal.  Values kept later in __dict__ (_cached attributes,
    _kept) are not fields and do not count.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls):
        cls._values = operator.attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class TropicalGraph(_Record):
    """Immutable coloured graph on vertices 0..n-1."""

    _fields = ("n", "edges", "colours")

    def __init__(self, n: int, edges: frozenset, colours: tuple):
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        if len(colours) != n:
            raise InputError(f"expected {n} colours, got {len(colours)}")
        for e in edges:
            u, v = e
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if not (0 <= u < v < n):
                raise InputError(f"edge {e} out of range or not normalized")
        d = self.__dict__
        d["n"] = n
        d["edges"] = edges
        d["colours"] = colours

    # Adjacency and colour classes are cached on first use; the instance
    # stays hashable/equal on its declared fields only.
    @_cached
    def adjacency(self) -> tuple:
        sets = [set() for _ in range(self.n)]
        for u, v in self.edges:
            sets[u].add(v)
            sets[v].add(u)
        return tuple(frozenset(s) for s in sets)

    def neighbours(self, v: int) -> tuple:
        return tuple(sorted(self.adjacency[v]))

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    @_cached
    def _classes(self) -> dict:
        grouped: dict = {}
        for v, c in enumerate(self.colours):
            grouped.setdefault(c, []).append(v)
        return {c: tuple(vs) for c, vs in grouped.items()}

    def colour_classes(self) -> dict:
        """Map colour token -> sorted tuple of vertices wearing it."""
        return self._classes

    def induced(self, vertices: Iterable[int]) -> tuple["TropicalGraph", tuple]:
        """Induced subgraph on the given vertices (ascending original order).

        Returns the subgraph plus the tuple mapping new index -> old index.
        """
        old = tuple(sorted(set(vertices)))
        for v in old:
            if not 0 <= v < self.n:
                raise InputError(f"vertex {v} out of range")
        pos = {v: i for i, v in enumerate(old)}
        edges = frozenset(
            (pos[u], pos[v]) for u, v in self.edges if u in pos and v in pos)
        sub = TropicalGraph(len(old), edges,
                            tuple(self.colours[v] for v in old))
        return sub, old

    def recoloured(self, colours: Sequence[Colour]) -> "TropicalGraph":
        """The same edges with new colours; shares the cached adjacency."""
        g = TropicalGraph(self.n, self.edges, tuple(colours))
        if "adjacency" in self.__dict__:
            g.__dict__["adjacency"] = self.adjacency
        return g


def _kept(g, name: str, key, build):
    """build(), kept on g under name for key: the value is built again only
    when a call names another key, and a build that raises keeps nothing.

    This is how data prepared from a graph, such as a planned target's
    forcing tables or pair sets, lives with the graph object, outside the
    fields that equality and hashing read.
    """
    hit = g.__dict__.get(name)
    if hit is None or hit[0] != key:
        hit = g.__dict__[name] = (key, build())
    return hit[1]


def tgraph(n: int, edges: Iterable, colours) -> TropicalGraph:
    """Build a TropicalGraph, normalizing edges and accepting colour
    sequences or vertex->colour mappings."""
    norm = set()
    for u, v in edges:
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        norm.add(_norm_edge(u, v))
    if isinstance(colours, Mapping):
        try:
            seq = tuple(colours[v] for v in range(n))
        except KeyError as e:
            raise InputError(f"vertex {e.args[0]} uncoloured") from None
    else:
        seq = tuple(colours)
    return TropicalGraph(n, frozenset(norm), seq)


def plain(n: int, edges: Iterable, colour: Colour = "Black") -> TropicalGraph:
    """A monochromatic graph; the 'uncoloured' case for plain-graph problems."""
    return tgraph(n, edges, [colour] * n)


def path_graph(colours: Sequence[Colour]) -> TropicalGraph:
    """Path on len(colours) vertices, coloured in order."""
    n = len(colours)
    return tgraph(n, [(i, i + 1) for i in range(n - 1)], colours)


def cycle_graph(colours: Sequence[Colour]) -> TropicalGraph:
    """Cycle on len(colours) >= 3 vertices, coloured in cyclic order."""
    n = len(colours)
    if n < 3:
        raise InputError("a cycle needs at least 3 vertices")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return tgraph(n, edges, colours)


class Digraph(_Record):
    """Immutable loopless directed graph on vertices 0..n-1."""

    _fields = ("n", "arcs")

    def __init__(self, n: int, arcs: frozenset):
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        for a in arcs:
            u, v = a
            if u == v:
                raise InputError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"arc {a} out of range")
        d = self.__dict__
        d["n"] = n
        d["arcs"] = arcs

    @_cached
    def out_adjacency(self) -> tuple:
        sets = [set() for _ in range(self.n)]
        for u, v in self.arcs:
            sets[u].add(v)
        return tuple(frozenset(s) for s in sets)

    @_cached
    def in_adjacency(self) -> tuple:
        sets = [set() for _ in range(self.n)]
        for u, v in self.arcs:
            sets[v].add(u)
        return tuple(frozenset(s) for s in sets)


def dgraph(n: int, arcs: Iterable) -> Digraph:
    return Digraph(n, frozenset((u, v) for u, v in arcs))


class Bipartition(_Record):
    _fields = ("part_a", "part_b")

    def __init__(self, part_a: frozenset, part_b: frozenset):
        d = self.__dict__
        d["part_a"] = part_a
        d["part_b"] = part_b


def validate_hom(source: TropicalGraph, target: TropicalGraph,
                 mapping: Mapping) -> bool:
    """True iff mapping is a total colour- and edge-preserving homomorphism.

    Raises InputError when the map is not total on the source or uses an
    out-of-range image.
    """
    for v in range(source.n):
        if v not in mapping:
            raise InputError(f"map undefined on vertex {v}")
        img = mapping[v]
        if not 0 <= img < target.n:
            raise InputError(f"image {img} of vertex {v} out of range")
    for v in range(source.n):
        if source.colours[v] != target.colours[mapping[v]]:
            return False
    for u, v in source.edges:
        if not target.has_edge(mapping[u], mapping[v]):
            return False
    return True


def check_embedding(pattern: TropicalGraph, host: TropicalGraph,
                    embedding: Mapping) -> dict:
    """Check that embedding places pattern inside host: defined on every
    pattern vertex, in host range, injective and edge-preserving.

    Returns the inverse map host vertex -> pattern vertex; raises
    InputError naming the first fault.  Colours are not checked.
    """
    inverse = {}
    for t in range(pattern.n):
        if t not in embedding:
            raise InputError(f"embedding undefined on target vertex {t}")
        h = embedding[t]
        if not 0 <= h < host.n:
            raise InputError(f"embedded image {h} out of host range "
                             f"0..{host.n - 1}")
        if h in inverse:
            raise InputError("embedding is not injective")
        inverse[h] = t
    for a, b in pattern.edges:
        if not host.has_edge(embedding[a], embedding[b]):
            raise InputError(f"embedding drops target edge {(a, b)}")
    return inverse


def _traverse(g: TropicalGraph):
    """The one BFS 2-colouring of g, and the only splitter of g into
    connected components: yield (vertices, bits, nbrs) per component, in
    order of its smallest vertex, building no graph.

    vertices lists the component ascending; bits gives their side bits
    in the same order, bit 0 on the smallest vertex (the BFS root), or is
    None when the component holds an odd cycle; nbrs is g's neighbour
    lists, for _subgraph.  A vertex with no neighbour, and an edge whose
    ends have no other, come out before any search, as the components
    (v,) with bits (0,) and (u, v) with bits (0, 1).

    The lists come from one scan of the edges, not g.adjacency: a
    disconnected g's whole adjacency would serve only this search, as each
    component graph builds its own.  Being a generator, the split stops
    where its reader does: components after that are never searched."""
    n = g.n
    nbrs = [[] for _ in range(n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    side = [-1] * n
    for start in range(n):
        if side[start] != -1:
            continue
        near = nbrs[start]
        if not near:
            yield (start,), (0,), nbrs
            continue
        if len(near) == 1 and len(nbrs[near[0]]) == 1:
            # start's one neighbour w sees only start, so w is unvisited
            # and above start, the smallest unvisited vertex
            w = near[0]
            side[w] = 1
            yield (start, w), (0, 1), nbrs
            continue
        side[start] = 0
        comp = [start]
        odd = False
        for v in comp:  # the list is the queue: iteration sees appends
            s = 1 - side[v]
            for w in nbrs[v]:
                if side[w] == -1:
                    side[w] = s
                    comp.append(w)
                elif side[w] != s:
                    odd = True
        if len(comp) == n:
            yield tuple(range(n)), None if odd else tuple(side), nbrs
            return
        comp.sort()
        yield (tuple(comp), None if odd else tuple([side[v] for v in comp]),
               nbrs)


def _subgraph(g: TropicalGraph, vertices: tuple, nbrs: list) -> TropicalGraph:
    """The component of g on the ascending vertices that _traverse gave
    with the neighbour lists nbrs, its edges read from those lists; g
    itself when the component is all of g."""
    if len(vertices) == g.n:
        return g
    pos = {v: i for i, v in enumerate(vertices)}
    # vertices ascend, so v < w keeps each pair normalized
    edges = frozenset([(i, pos[w]) for i, v in enumerate(vertices)
                       for w in nbrs[v] if v < w])
    colours = g.colours
    return TropicalGraph(len(vertices), edges,
                         tuple([colours[v] for v in vertices]))


def _components(g: TropicalGraph):
    """Yield (component, new->old map, side bits or None) for each connected
    component of g: _traverse's split, with each component built.

    Components come in order of their smallest vertex, with vertices
    ascending, and a connected g comes back as itself.  The bits are the
    ones split_instance gives the component, bit 0 on its smallest vertex,
    and None when it has an odd cycle.
    """
    for old, bits, nbrs in _traverse(g):
        yield _subgraph(g, old, nbrs), old, bits


def connected_components(g: TropicalGraph) -> list:
    """Maximal connected induced subgraphs, each with its new->old index map.

    Components are emitted in order of their smallest vertex; vertex order
    within a component follows the original indices.  A connected graph
    is its own component, with the identity map.
    """
    return [(sub, old) for sub, old, _ in _components(g)]


def _sides(g: TropicalGraph) -> Optional[tuple]:
    """BFS 2-colouring: (side bit per vertex, number of BFS roots), or None
    on an odd cycle.  Each root is a component's smallest vertex and gets
    bit 0, so g is connected iff there is at most one root."""
    side, roots = [0] * g.n, 0
    for vertices, bits, _ in _traverse(g):
        if bits is None:
            return None
        if len(vertices) == g.n:
            return bits, 1
        roots += 1
        for v, b in zip(vertices, bits):
            side[v] = b
    return side, roots


def bipartition(g: TropicalGraph) -> Optional[Bipartition]:
    """A two-sided partition with every edge crossing, or None on odd cycles.

    Per connected component the side holding the component's smallest vertex
    goes into part A, which makes the result deterministic.
    """
    found = _sides(g)
    if found is None:
        return None
    side = found[0]
    a = frozenset(v for v in range(g.n) if side[v] == 0)
    b = frozenset(v for v in range(g.n) if side[v] == 1)
    return Bipartition(a, b)


def _require_connected_bipartite(g: TropicalGraph) -> list:
    """Side bits of a connected bipartite graph, bit 0 on vertex 0's side."""
    found = _sides(g)
    if found is None:
        raise PreconditionError("graph must be bipartite")
    side, roots = found
    if roots > 1:
        raise PreconditionError("graph must be connected")
    return side


def split_colours(target: TropicalGraph) -> TropicalGraph:
    """Recolour a connected bipartite graph so the two sides use disjoint
    palettes: colour c becomes (c, sideBit), bit 0 on the side of vertex 0."""
    bits = _require_connected_bipartite(target)
    return target.recoloured(tuple(zip(target.colours, bits)))


def split_instance(source: TropicalGraph) -> tuple:
    """The two side-bit colourings of a connected bipartite source.

    Solving either against split_colours(target) is equivalent to solving
    the original instance against the target.
    """
    bits = _require_connected_bipartite(source)
    first = source.recoloured(tuple(zip(source.colours, bits)))
    second = source.recoloured(
        tuple((c, 1 - b) for c, b in zip(source.colours, bits)))
    return first, second
