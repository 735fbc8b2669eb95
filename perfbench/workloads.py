"""The four benchmark workloads: seeded inputs, one op each, answer checks.

Each workload is a closed loop with one client.  ``stream()`` yields op
inputs without end, made between ops so that fresh inputs never wrap round
and repeat; ``run(item)`` is the op the loop times; ``digest(item, result)``
keeps what the checks need; ``check(item, digest)`` runs after the timed
loop on the inputs from ``again()`` and returns None or why the op failed.
Inputs depend only on the seed.  Graphs are kept in the plain
``(n, edges, colours)`` form the oracle reads, next to the trophom objects
built from them.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))


def _random_graph(rng, n, edge_prob, palette):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < edge_prob]
    return n, edges, [rng.choice(palette) for _ in range(n)]


def _random_source(rng, target, max_n):
    """Half preimages of a random vertex map (a quarter of those with one
    colour flipped), half sparse graphs coloured at random, so that both
    verdicts occur."""
    tn, t_edges, t_col = target
    n = rng.randint(1, max_n)
    palette = sorted(set(t_col))
    if rng.random() < 0.5:
        t_set = {(a, b) for a, b in t_edges} | {(b, a) for a, b in t_edges}
        image = [rng.randrange(tn) for _ in range(n)]
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if (image[u], image[v]) in t_set and rng.random() < 0.7]
        colours = [t_col[image[v]] for v in range(n)]
        if n > 1 and rng.random() < 0.25:
            colours[rng.randrange(n)] = rng.choice(palette)
        return n, edges, colours
    return _random_graph(rng, n, min(0.5, 2.5 / n), palette)


def _forcing_tree(rng, min_n, max_n):
    """A tree whose every vertex sees pairwise distinct neighbour colours."""
    n = rng.randint(min_n, max_n)
    parent = [None] + [rng.randrange(v) for v in range(1, n)]
    palette = [f"c{i}" for i in range(n + 1)]
    colours = [rng.choice(palette)] + [None] * (n - 1)
    for v in range(n):
        taken = {colours[parent[v]]} if parent[v] is not None else set()
        for w in range(v + 1, n):
            if parent[w] == v:
                colours[w] = rng.choice([c for c in palette if c not in taken])
                taken.add(colours[w])
    return n, [(parent[v], v) for v in range(1, n)], colours


def _small_class_bipartite(rng, min_n, max_n):
    """Bipartite, sides on separate palettes, every colour class at most 2."""
    while True:
        n = rng.randint(min_n, max_n)
        side = [rng.random() < 0.5 for _ in range(n)]
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if side[u] != side[v] and rng.random() < 0.5]
        colours = [rng.choice(("b1", "b2", "b3", "b4") if side[v]
                              else ("a1", "a2", "a3", "a4"))
                   for v in range(n)]
        if all(colours.count(c) <= 2 for c in set(colours)):
            return n, edges, colours


# Op outcomes kept per in-process op: the verdict, with the witness checked
# right after the op (untimed) so that memory does not grow with op count.
UNSAT, SAT, BAD_WITNESS = 0, 1, 2


class _Workload:
    PASS = 1  # the loop stops only after a whole number of passes
    traced = False  # set while ops are replayed under the tracer


class _InProcess(_Workload):
    """Ops are calls into trophom made from this process, traced by
    patching trophom's functions.  An item is ``(source, source graph,
    target, target graph)``."""

    WARMUP = 5

    def __init__(self, trophom, seed: int):
        self.t = trophom
        self.seed = seed

    def graph(self, g):
        return self.t.tgraph(*g)

    def stream(self, rng=None):
        """Endless op inputs; the same seed gives the same sequence."""
        rng = rng or random.Random(self.seed)
        while True:
            yield self.make(rng)

    def again(self):
        """The op inputs once more, in the order they were run."""
        return self.stream()

    def warm_up(self):
        warm = self.stream(random.Random(f"warm-up {self.seed}"))
        for item in itertools.islice(warm, self.WARMUP):
            try:
                self.run(item)
            except Exception:  # the timed loop counts such ops as failed
                pass

    def digest(self, item, out):
        if not out.solvable:
            return UNSAT
        ok = oracle.is_hom(item[0], item[2], out.witness)
        return SAT if ok else BAD_WITNESS

    def verdict(self, item, code):
        return code != UNSAT

    def check(self, item, code):
        if code == BAD_WITNESS:
            return "witness is not a colour- and edge-preserving map"
        want = oracle.find_hom(item[0], item[2]) is not None
        if (code == SAT) != want:
            return f"verdict {code == SAT}, oracle says {want}"
        return None


class Search3Col(_InProcess):
    """Random graphs at average degree 4.6, near the 3-colouring threshold,
    solved against K3; an op is one solve_trop_hom call."""

    name = "search-3col"
    N = 30
    DEGREE = 4.6

    def __init__(self, trophom, seed):
        super().__init__(trophom, seed)
        self.k3 = (3, [(0, 1), (1, 2), (0, 2)], ["k"] * 3)
        self.k3_graph = self.graph(self.k3)

    def make(self, rng):
        n, m = self.N, round(self.DEGREE * self.N / 2)
        edges = set()
        while len(edges) < m:
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        g = (n, sorted(edges), ["k"] * n)
        return g, self.graph(g), self.k3, self.k3_graph

    def run(self, item):
        return self.t.solve_trop_hom(item[1], item[3])


# Fixed targets reused by dispatch-reuse.  C6/C8 colourings are from the
# criterion-8 family (sides A and B) and cover its four routes; the 14-vertex
# graph folds onto an 8-vertex core that needs the exact fallback.
_CORE8_EDGES = [(0, 2), (0, 5), (0, 7), (1, 5), (1, 6), (1, 7), (2, 4),
                (2, 5), (2, 6), (3, 4), (3, 5), (4, 5), (5, 7)]
_FOLD14_EDGES = _CORE8_EDGES + [
    (8, 2), (8, 5), (9, 5), (9, 6), (10, 6), (10, 0), (10, 5), (11, 4),
    (12, 0), (12, 3), (12, 2), (12, 7), (12, 4), (13, 2)]
_FOLD14_COLOURS = list("bbbaababbbbaba")
_CYCLE_COLOURINGS = (
    ["A0", "B0", "A0", "B1", "A0", "B2"],
    ["A0", "B0", "A0", "B0", "A1", "B1"],
    ["A0", "B0", "A0", "B1", "A0", "B0", "A0", "B2"],
    ["A0", "B0", "A1", "B1", "A2", "B2", "A3", "B3"],
)
_FORCING_TREE = (8, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 6), (5, 7)],
                 list("xyzzwyxw"))


class _Dispatch(_InProcess):
    def run(self, item):
        return self.t.dispatch_solve(item[1], item[3])[0]


class DispatchReuse(_Dispatch):
    """Random sources of at most 12 vertices against a small fixed target
    set in seeded random order; an op is one dispatch_solve call."""

    name = "dispatch-reuse"

    def __init__(self, trophom, seed):
        super().__init__(trophom, seed)
        h9 = trophom.gadgets.build_h9().graph
        targets = [(h9.n, sorted(h9.edges), list(h9.colours))]
        for colours in _CYCLE_COLOURINGS:
            k = len(colours)
            targets.append((k, [(i, (i + 1) % k) for i in range(k)],
                            colours))
        targets.append(_FORCING_TREE)
        targets.append((14, _FOLD14_EDGES, _FOLD14_COLOURS))
        self.targets = [(t, self.graph(t)) for t in targets]

    def make(self, rng):
        target, tg = rng.choice(self.targets)
        src = _random_source(rng, target, 12)
        return src, self.graph(src), target, tg


class DispatchFresh(_Dispatch):
    """Every op pairs a freshly drawn target (criterion-7 families plus
    generic random graphs that need the exact fallback) with one random
    source of at most 10 vertices; an op is one dispatch_solve call."""

    name = "dispatch-fresh"

    def make(self, rng):
        # Targets of at least 5 vertices, so that two draws are almost
        # never the same graph.
        family = rng.randrange(4)
        if family == 0:
            target = _forcing_tree(rng, 5, 8)
        elif family == 1:
            target = _small_class_bipartite(rng, 5, 8)
        elif family == 2:
            target = _random_graph(rng, rng.randint(5, 7), 0.35, "abc")
        else:
            target = _random_graph(rng, rng.randint(5, 8), 0.45, "ab")
        src = _random_source(rng, target, 10)
        return src, self.graph(src), target, self.graph(target)


class ClaimsCli(_Workload):
    """The README's gadget and verify commands, each as its own python
    process; an op is one command.  A pass holds five NAE formulas (gadget,
    round-trip, solve against C48 each) interleaved with the five fixed
    claim commands.  Traced ops run under tracecli.py."""

    name = "claims-cli"
    PASS = 20  # five formulas of three commands, five fixed commands
    # (variables, clause/variable ratio band): low bands are below the NAE
    # threshold (satisfiable), high bands above it (mostly unsatisfiable).
    FORMULAS = ((5, (1.0, 1.8)), (7, (3.3, 4.0)), (6, (1.0, 1.8)),
                (7, (1.0, 1.8)), (6, (3.0, 3.4)))
    CLI = "import sys; from trophom.cli import main; sys.exit(main())"

    def __init__(self, seed, work_dir, src_dir):
        self.rng = random.Random(seed)
        self.issued: list = []
        self.dir = work_dir
        self.env = dict(os.environ, PYTHONPATH=src_dir)
        self.spans_files: list = []
        self.counter = itertools.count()
        for kind in ("c48", "h9"):
            args = ["gadget", kind, "--out", f"{kind}.tg"]
            proc = self.run(("build", args))
            if proc.returncode != 0:
                raise RuntimeError(f"set-up command {args} failed: "
                                   f"{proc.stderr.strip()}")
        self.c48 = self._read("c48.tg")
        self.h9 = self._read("h9.tg")

    def warm_up(self):
        pass  # the two set-up commands above started the CLI already

    def _read(self, name):
        with open(os.path.join(self.dir, name), encoding="utf-8") as fh:
            return oracle.read_tg(fh.read())

    def _formula(self, n_vars, band, tag):
        triples = list(itertools.combinations(range(n_vars), 3))
        m = min(len(triples), round(self.rng.uniform(*band) * n_vars))
        clauses = self.rng.sample(triples, m)
        path = f"f{tag}.cnf"
        with open(os.path.join(self.dir, path), "w", encoding="utf-8") as fh:
            fh.write(f"p cnf {n_vars} {m}\n")
            fh.writelines(f"{a + 1} {b + 1} {c + 1} 0\n"
                          for a, b, c in clauses)
        return path, oracle.nae_satisfiable(n_vars, clauses)

    def stream(self):
        while True:
            for item in self._one_pass():
                self.issued.append(item)
                yield item

    def again(self):
        return iter(self.issued)

    def digest(self, item, proc):
        return proc

    def verdict(self, item, proc):
        """The oracle's verdict for a solve command; None for the rest."""
        return item[2] if item[0] == "solve" else None

    def _one_pass(self):
        rng = self.rng
        fixed = [
            ("h9-roundtrip", ["verify", "roundtrip", "--kind", "h9",
                              "--trials", "200", "--seed",
                              str(rng.randrange(10**6))]),
            ("cross-check", ["verify", "cross-check", "--target", "h9.tg",
                             "--seed", str(rng.randrange(10**6))]),
            ("zigzag", ["verify", "zigzag", "--l", "5", "--k", "6"]),
            ("c48-claim", ["verify", "c48-claim"]),
            ("core", None),
        ]
        out = []
        for (n_vars, band), (kind, args) in zip(self.FORMULAS, fixed):
            tag = next(self.counter)
            cnf, sat = self._formula(n_vars, band, tag)
            gadget = f"g{tag}.tg"
            out.append(("gadget", ["gadget", "nae3sat", "--cnf", cnf,
                                   "--out", gadget]))
            out.append(("nae-roundtrip", ["verify", "roundtrip", "--kind",
                                          "nae3sat", "--cnf", cnf], sat))
            out.append(("solve", ["solve", "--source", gadget, "--target",
                                  "c48.tg", "--witness"], sat, gadget))
            if kind == "core":
                args = ["core", "--in", "h9.tg", "--out", f"core{tag}.tg"]
            out.append((kind, args))
        return out

    def run(self, item):
        args = item[1]
        if self.traced:
            spans = os.path.join(self.dir, f"spans{next(self.counter)}.json")
            self.spans_files.append(spans)
            cmd = [sys.executable, os.path.join(HERE, "tracecli.py"), spans]
        else:
            cmd = [sys.executable, "-c", self.CLI]
        return subprocess.run(cmd + args, cwd=self.dir, env=self.env,
                              capture_output=True, text=True, timeout=120)

    def check(self, item, proc):
        kind = item[0]
        lines = proc.stdout.splitlines()
        if not lines:
            return f"{kind}: no output, exit {proc.returncode}"
        expect_rc, expect_line = 0, None
        if kind == "gadget":
            n, edges, _ = self._read(item[1][-1])
            expect_line = f"wrote {item[1][-1]}: {n} vertices, " \
                          f"{len(edges)} edges"
        elif kind == "nae-roundtrip":
            expect_line = "PASS not-all-equal round-trip"
            if f"oracle={item[2]}, solver={item[2]}" not in lines[0]:
                return f"{kind}: {lines[0]!r} disagrees with oracle {item[2]}"
        elif kind == "solve":
            expect_rc = 0 if item[2] else 1
            if lines[0] != ("solvable" if item[2] else "unsolvable"):
                return f"solve: {lines[0]!r}, oracle says {item[2]}"
            if item[2]:
                source = self._read(item[3])
                witness = oracle.read_witness(lines[1:])
                if not oracle.is_hom(source, self.c48, witness):
                    return "solve: witness is not a homomorphism onto C48"
        elif kind == "core":
            core = self._read(item[1][-1])
            witness = oracle.read_witness(lines[1:])
            if lines[0] != f"core {core[0]} of {self.h9[0]}" or \
                    not oracle.is_hom(self.h9, core, witness):
                return f"core: {lines[0]!r} with an invalid retraction"
        elif kind == "h9-roundtrip":
            expect_line = "PASS pendant-target round-trip batch"
        elif kind == "cross-check":
            expect_line = "PASS dispatch versus brute force"
        elif kind == "zigzag":
            expect_line = "PASS zig-zag properties (l=5, k=6)"
        elif kind == "c48-claim":
            expect_line = "PASS pair gadget exactness (four)"
        if proc.returncode != expect_rc:
            return f"{kind}: exit {proc.returncode}, expected {expect_rc}"
        if expect_line is not None and not lines[-1].startswith(expect_line):
            return f"{kind}: last line {lines[-1]!r}"
        return None


WORKLOADS = {w.name: w for w in (ClaimsCli, Search3Col, DispatchReuse,
                                 DispatchFresh)}
