"""Seeded instance generators for the test suite and the batch verifiers.

The brute-force oracles that judge these instances live in trophom.verify.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from .graphs import TropicalGraph, tgraph


def random_tropical(rng: random.Random, max_n: int,
                    palette: Sequence, edge_prob: float = 0.4,
                    min_n: int = 1) -> TropicalGraph:
    n = rng.randint(min_n, max_n)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < edge_prob]
    colours = [rng.choice(list(palette)) for _ in range(n)]
    return tgraph(n, edges, colours)


def random_of_degree(rng: random.Random, n: int, degree: float,
                     colour="k") -> TropicalGraph:
    """Monochromatic graph with round(degree * n / 2) distinct edges drawn
    uniformly; degree 4.6 puts 3-colouring near its threshold."""
    m = round(degree * n / 2)
    edges: set = set()
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return tgraph(n, sorted(edges), [colour] * n)


def random_bipartite(rng: random.Random, max_n: int, palette_a: Sequence,
                     palette_b: Optional[Sequence] = None,
                     edge_prob: float = 0.5) -> TropicalGraph:
    """Random bipartite graph; sides may draw from separate palettes."""
    n = rng.randint(1, max_n)
    side = [rng.random() < 0.5 for _ in range(n)]
    if all(side) or not any(side):
        side[0] = not side[0] if n > 1 else side[0]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if side[u] != side[v] and rng.random() < edge_prob]
    pb = palette_b if palette_b is not None else palette_a
    colours = [rng.choice(list(pb if side[v] else palette_a))
               for v in range(n)]
    return tgraph(n, edges, colours)


def random_source(rng: random.Random, target: TropicalGraph,
                  max_n: int = 10) -> TropicalGraph:
    """Random test source over the target palette.

    Half the draws are preimages of a random vertex map (guaranteed
    solvable unless later perturbed), half are colour-random sparse graphs;
    a small fraction of preimages get one colour flipped.
    """
    n = rng.randint(1, max_n)
    palette = sorted(set(target.colours), key=repr)
    if target.n and rng.random() < 0.5:
        image = [rng.randrange(target.n) for _ in range(n)]
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if target.has_edge(image[u], image[v]) and rng.random() < 0.7:
                    edges.append((u, v))
        colours = [target.colours[image[v]] for v in range(n)]
        if n > 1 and rng.random() < 0.25:
            colours[rng.randrange(n)] = rng.choice(palette)
        return tgraph(n, edges, colours)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < min(0.5, 2.5 / n)]
    colours = [rng.choice(palette) for _ in range(n)]
    return tgraph(n, edges, colours)


def random_forcing_tree(rng: random.Random, max_n: int) -> TropicalGraph:
    """Random tree whose every neighbourhood is rainbow-coloured, so every
    vertex is forcing."""
    n = rng.randint(1, max_n)
    parents = [None] + [rng.randrange(v) for v in range(1, n)]
    palette = [f"c{i}" for i in range(n + 1)]
    colours = [rng.choice(palette)] + [None] * (n - 1)
    children = {v: [w for w in range(1, n) if parents[w] == v]
                for v in range(n)}
    for v in range(n):
        taken = {colours[parents[v]]} if parents[v] is not None else set()
        for w in children[v]:
            free = [c for c in palette if c not in taken]
            colours[w] = rng.choice(free)
            taken.add(colours[w])
    return tgraph(n, [(parents[v], v) for v in range(1, n)], colours)


def random_tree(rng: random.Random, max_n: int,
                palette: Sequence) -> TropicalGraph:
    n = rng.randint(1, max_n)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    colours = [rng.choice(list(palette)) for _ in range(n)]
    return tgraph(n, edges, colours)


_H9_ODD_SHAPES = ({1}, {3}, {5}, {1, 3}, {3, 5}, {1, 5}, {1, 3, 5})
_H9_EVEN_SHAPES = ({2}, {4}, {6}, {2, 4}, {4, 6}, {2, 6}, {2, 4, 6})


def random_h9_instance(rng: random.Random, max_n: int = 8) -> tuple:
    """A bipartite source plus parity-pure cycle-label lists.

    Lists usually follow the bipartition (solvable-ish instances); with
    some probability a vertex draws from the wrong side, which the oracle
    then typically rejects.
    """
    source = random_bipartite(rng, max_n, palette_a=["Black"])
    from .graphs import bipartition
    bip = bipartition(source)
    lists = {}
    for v in range(source.n):
        odd_side = v in bip.part_a
        if rng.random() < 0.15:
            odd_side = not odd_side
        pool = _H9_ODD_SHAPES if odd_side else _H9_EVEN_SHAPES
        lists[v] = frozenset(rng.choice(pool))
    return source, lists
