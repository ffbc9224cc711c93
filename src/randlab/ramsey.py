"""Search for graphs with no s-clique and no independent t-set.

Such (s, t, n)-graphs exist exactly when n is below the Ramsey number
R(s, t).  Small cases are settled exactly by enumerating every labeled graph;
beyond that, simulated annealing (Kirkpatrick, Gelatt & Vecchi 1983) walks
the space of graphs on n vertices, flipping one edge at a time, scoring a
graph by the number of violating subsets (s-cliques plus independent
t-sets) and cooling geometrically until a zero-violation graph appears.
A census helper converts "we kept finding the same solutions" into a
confidence statement: if there were one more equally findable solution than
the c seen, r uniform draws would all have missed it with probability
(c/(c+1))**r.  The census counts isomorphism classes up to complement:
each graph gets a canonical form from colour refinement and
individualization (McKay & Piperno, "Practical graph isomorphism II",
2014), for graphs of at most MAX_VERTICES vertices.

Adjacency is one bitmask per vertex, which keeps the subset-counting and
refinement inner loops at word speed.  Both searches score a move with one
flip kernel, built once per (n, s, t) by ``_flip_counter``: flipping edge
(u, v) changes only the subsets holding both endpoints, so the energy change
is a count of (s-2)-cliques among the common neighbours against
(t-2)-independent sets among the common non-neighbours.  Size 2 is
lane-packed (broadword, Knuth TAOCP 4A 7.1.3) over the adjacency also kept
as one int, adj[w] in n-bit lane w; size 3 is a scalar loop.  An accepted
flip is an XOR on two masks and on the packed int; the exhaustive search
walks the labeled graphs in Gray-code order (Gray 1953), one flip a step.
"""

from __future__ import annotations

import math
import sys
from itertools import combinations
from typing import Iterator, NamedTuple

from .natnum import parse_natural
from .rng import SplitMix64

MAX_VERTICES = 24  # exact violation counts and canonical forms: desk-scale up to here
_TOO_MANY_VERTICES = "canonical_form supports at most %d vertices" % MAX_VERTICES
EXHAUSTIVE_EDGE_LIMIT = 21  # enumerate at most 2^21 labeled graphs
STAGNATION_LIMIT = 10**5  # moves without improvement before a restart
MAX_TOTAL_STEPS = 10**8  # an anneal's move budget: ten times the default


class GraphColoring:
    """Undirected graph on n vertices as per-vertex neighbor bitmasks."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: list[int] | None = None):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.adj = list(adj) if adj is not None else [0] * n

    @classmethod
    def from_edges(cls, n: int, edges) -> "GraphColoring":
        g = cls(n)
        for u, v in edges:
            g.set_edge(u, v, True)
        return g

    @classmethod
    def random(cls, n: int, rng: SplitMix64) -> "GraphColoring":
        g = cls(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.next_u64() & 1:
                    g.set_edge(u, v, True)
        return g

    def set_edge(self, u: int, v: int, present: bool) -> None:
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError("bad edge (%d, %d)" % (u, v))
        if present:
            self.adj[u] |= 1 << v
            self.adj[v] |= 1 << u
        else:
            self.adj[u] &= ~(1 << v)
            self.adj[v] &= ~(1 << u)

    def complement(self) -> "GraphColoring":
        full = (1 << self.n) - 1
        return GraphColoring(self.n, [(~self.adj[v] & full) & ~(1 << v) for v in range(self.n)])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GraphColoring)
                and self.n == other.n and self.adj == other.adj)


def _count_cliques(adj: list[int], size: int, candidates: int, flip: int = 0) -> int:
    """Number of ``size``-subsets of the candidate set that are cliques.

    With ``flip`` = -1 every adjacency mask is read inverted, which counts
    independent sets instead without building the complement graph.
    """
    if size == 0:
        return 1
    if size == 1:
        return candidates.bit_count()
    total = 0
    m = candidates
    while m:
        low = m & -m
        m ^= low
        v = low.bit_length() - 1
        total += _count_cliques(adj, size - 1, m & (adj[v] ^ flip), flip)
    return total


def _check_params(n: int, s: int, t: int) -> None:
    if not (2 <= s <= n and 2 <= t <= n):
        raise ValueError("need 2 <= s, t <= n")
    if n > MAX_VERTICES:
        raise ValueError("n > %d is beyond exact counting" % MAX_VERTICES)


def count_violations(g: GraphColoring, s: int, t: int) -> int:
    """Exact count of s-cliques plus independent t-sets in g."""
    _check_params(g.n, s, t)
    full = (1 << g.n) - 1
    return _count_cliques(g.adj, s, full) + _count_cliques(g.adj, t, full, -1)


def _flips(n: int) -> list[tuple[int, int, int, int, int]]:
    """(u, v, 1 << u, 1 << v, the bits of edge (u, v) in the packed adjacency)."""
    return [(u, v, 1 << u, 1 << v, 1 << n * u + v | 1 << n * v + u)
            for u, v in combinations(range(n), 2)]


def _subset_counter(size: int, flip: int, n: int):
    """count(adj, packed, m): what ``_count_cliques(adj, size, m, flip)`` returns.

    ``packed`` is sum(adj[w] << n*w).  Size 2: with sel(m) = sum(1 << n*w
    for w in m), read from two tables by the halves of m, the bit count of
    ``packed & m * sel(m)`` is twice the edges inside m; the non-edges are
    C(k, 2) minus those.  Size 3 loops over pairs; size 0 and sizes past 3 recurse.
    """
    if size == 1:
        return lambda adj, packed, m: m.bit_count()
    if size == 2:
        half = (n + 1) // 2
        low, high, mask = [0], [0], (1 << half) - 1
        for w in range(n):
            table = low if w < half else high
            table += [e | 1 << n * w for e in table]
        if flip:
            return lambda adj, packed, m: ((k := m.bit_count()) * (k - 1) - (
                packed & m * (low[m & mask] | high[m >> half])).bit_count()) // 2
        return lambda adj, packed, m: (
            packed & m * (low[m & mask] | high[m >> half])).bit_count() // 2
    if size == 3:
        def count(adj: list[int], packed: int, m: int) -> int:
            total = 0
            while m.bit_count() > 2:  # a triangle needs low and two more
                low = m & -m
                m ^= low
                c = m & (adj[low.bit_length() - 1] ^ flip)
                while c & (c - 1):
                    low = c & -c
                    c ^= low
                    total += (c & (adj[low.bit_length() - 1] ^ flip)).bit_count()
            return total
        return count
    return lambda adj, packed, m: _count_cliques(adj, size, m, flip)


def _flip_counter(n: int, s: int, t: int):
    """delta(adj, packed, u, v): energy change from flipping edge (u, v).

    Subsets not containing both endpoints are untouched, so the delta is the
    number of (s-2)-cliques among common neighbours (cliques gained or lost)
    against the (t-2)-independent sets among common non-neighbours.  The
    counters are built once per instance; anneal, its temperature
    calibration and exhaustive_search all score flips with this one kernel.
    """
    full = (1 << n) - 1
    cliques = _subset_counter(s - 2, 0, n)
    indeps = _subset_counter(t - 2, -1, n)

    def delta(adj: list[int], packed: int, u: int, v: int) -> int:
        au, av = adj[u], adj[v]
        d = (cliques(adj, packed, au & av)
             - indeps(adj, packed, full & ~(au | av | 1 << u | 1 << v)))
        return -d if au >> v & 1 else d  # flipping a present edge removes it

    return delta


class AnnealConfig(NamedTuple):
    """Schedule knobs; None fields are derived from the instance at run time.

    Defaults: starting temperature calibrated to the mean |delta| of 100
    random moves, cooling 0.995 per block, C(n,2) moves per block (one
    nominal sweep; slower block-cooling cannot reach low temperature inside
    the step budget on the hard instances), a restart from a fresh random
    graph after 10**5 moves without improvement, and at most 10**7 moves
    overall.
    """

    initial_temperature: float | None = None
    cooling: float = 0.995
    steps_per_temperature: int | None = None
    max_total_steps: int = 10**7
    restarts: int = 1000

    def validate(self) -> None:
        # Each check is written so that NaN fails it: JSON reads a bare NaN,
        # and every comparison with NaN is false.  The range checks also
        # refuse inf (JSON reads 1e400 as inf), and a temperature a float
        # cannot hold, which would overflow the first cooling product.
        if self.initial_temperature is not None:
            if not self.initial_temperature > 0:
                raise ValueError("initial_temperature must be positive")
            if not self.initial_temperature <= sys.float_info.max:
                raise ValueError("initial_temperature must be at most %r" % sys.float_info.max)
        if not 0 < self.cooling < 1:
            raise ValueError("cooling must be in (0, 1)")
        if self.steps_per_temperature is not None and not self.steps_per_temperature >= 1:
            raise ValueError("steps_per_temperature must be positive")
        if not 1 <= self.max_total_steps <= MAX_TOTAL_STEPS:
            raise ValueError("max_total_steps must be in [1, %d]" % MAX_TOTAL_STEPS)
        if not self.restarts >= 0:
            raise ValueError("restarts must be non-negative")
        for name in ("initial_temperature", "cooling"):
            value = getattr(self, name)
            if value is not None and type(value) not in (int, float):  # nor bool
                raise ValueError("%s must be a number" % name)
        for name in ("steps_per_temperature", "max_total_steps", "restarts"):
            value = getattr(self, name)
            if value is not None and type(value) is not int:  # bool is not int here
                raise ValueError("%s must be an integer" % name)


class AnnealOutcome(NamedTuple):
    graph: GraphColoring | None  # None: budget exhausted with no solution
    steps: int
    restarts_used: int
    best_energy: int

    @property
    def found(self) -> bool:
        return self.graph is not None


def _random_start(n: int, s: int, t: int, cfg: AnnealConfig, flips, delta, rng: SplitMix64):
    """A random graph, its adjacency as masks and packed, its energy, and the
    temperature: cfg's, or else the mean |delta| of 100 random flips."""
    g = GraphColoring.random(n, rng)
    packed = sum(a << n * w for w, a in enumerate(g.adj))
    temperature = cfg.initial_temperature
    if temperature is None:
        edge = rng.sampler(len(flips))
        total = sum(abs(delta(g.adj, packed, *flips[edge()][:2])) for _ in range(100))
        temperature = max(total / 100.0, 1.0)
    return g, g.adj, packed, count_violations(g, s, t), temperature


def anneal(n: int, s: int, t: int, cfg: AnnealConfig | None,
           rng: SplitMix64) -> AnnealOutcome:
    """Anneal from a random graph toward zero violations.

    Single-edge-flip moves; downhill always accepted, uphill with
    probability exp(-delta/T).  Each move is scored by the instance's flip
    kernel (``_flip_counter``) and applied by XOR on the two endpoints'
    adjacency masks and on the packed adjacency.  Any zero-energy graph is
    re-checked with the exact counter before being returned.
    """
    _check_params(n, s, t)
    if cfg is None:
        cfg = AnnealConfig()
    cfg.validate()
    flips = _flips(n)
    edge = rng.sampler(len(flips))
    block = cfg.steps_per_temperature or len(flips)
    max_steps, stagnation = cfg.max_total_steps, STAGNATION_LIMIT
    delta = _flip_counter(n, s, t)
    next_float, exp = rng.next_float, math.exp

    g, adj, packed, energy, temperature = _random_start(n, s, t, cfg, flips, delta, rng)
    best = energy
    steps = 0
    restarts_used = 0
    since_improvement = 0
    in_block = 0

    while energy and steps < max_steps:
        u, v, bu, bv, toggle = flips[edge()]
        d = delta(adj, packed, u, v)
        if d <= 0 or next_float() < exp(-d / temperature):
            adj[u] ^= bv
            adj[v] ^= bu
            packed ^= toggle
            energy += d
        steps += 1
        in_block += 1
        if energy < best:
            best = energy
            since_improvement = 0
        else:
            since_improvement += 1
        if in_block >= block:
            in_block = 0
            temperature = max(temperature * cfg.cooling, 1e-9)
        if since_improvement >= stagnation and restarts_used < cfg.restarts:
            restarts_used += 1
            since_improvement = 0
            in_block = 0
            g, adj, packed, energy, temperature = _random_start(n, s, t, cfg, flips, delta, rng)
            best = min(best, energy)
    if energy == 0:
        if count_violations(g, s, t) != 0:
            raise RuntimeError("incremental energy drifted")
        return AnnealOutcome(g, steps, restarts_used, 0)
    return AnnealOutcome(None, steps, restarts_used, best)


def solution_masks(n: int, s: int, t: int) -> Iterator[int]:
    """Yield the mask of every labeled graph on n vertices with zero violations (n <= 7).

    Graph number ``mask`` is ``mask_graph(n, mask)``.  The masks are walked
    in Gray-code order from the empty graph: step i flips the edge at the
    lowest set bit of i, so each step is one flip scored by the instance's
    flip kernel (``_flip_counter``) rather than a full recount.  The masks
    come in that walk's order, not sorted.
    """
    _check_params(n, s, t)
    flips = _flips(n)
    if len(flips) > EXHAUSTIVE_EDGE_LIMIT:
        raise ValueError(
            "C(%d, 2) = %d edge slots is past the 2^%d enumeration limit; use anneal"
            % (n, len(flips), EXHAUSTIVE_EDGE_LIMIT)
        )
    delta = _flip_counter(n, s, t)
    adj, packed = [0] * n, 0
    energy = count_violations(GraphColoring(n), s, t)
    if energy == 0:
        yield 0
    for i in range(1, 1 << len(flips)):
        u, v, bu, bv, toggle = flips[(i & -i).bit_length() - 1]
        energy += delta(adj, packed, u, v)
        adj[u] ^= bv
        adj[v] ^= bu
        packed ^= toggle
        if energy == 0:
            yield i ^ i >> 1  # the mask of the graph after step i
    if energy != count_violations(GraphColoring(n, adj), s, t):
        raise RuntimeError("incremental energy drifted")


def mask_graph(n: int, mask: int) -> GraphColoring:
    """The graph on n vertices with edge i of combinations(range(n), 2) exactly
    when bit i of ``mask`` is set."""
    return GraphColoring.from_edges(
        n, [e for i, e in enumerate(combinations(range(n), 2)) if mask >> i & 1])


def exhaustive_search(n: int, s: int, t: int) -> list[GraphColoring]:
    """Every labeled graph on n vertices with zero violations (n <= 7), in
    increasing mask order (see ``solution_masks``)."""
    return [mask_graph(n, mask) for mask in sorted(solution_masks(n, s, t))]


def census_confidence(distinct_found: int, total_runs: int) -> float:
    """P(an extra equally likely solution would have shown up in the runs).

    With c found and one hypothetical unseen solution, each of r uniform
    draws misses it with probability c/(c+1); the confidence is
    1 - (c/(c+1))**r.
    """
    if total_runs < 1 or distinct_found < 1:
        raise ValueError("need at least one run and one found solution")
    if distinct_found > total_runs:
        raise ValueError("cannot find more distinct solutions than runs")
    c = distinct_found
    return 1.0 - (c / (c + 1.0)) ** total_runs


def _bitstring(g: GraphColoring, order) -> int:
    bits = 0
    for u, v in combinations(range(g.n), 2):
        bits <<= 1
        if g.adj[order[u]] >> order[v] & 1:
            bits |= 1
    return bits


def _refine(adj: list[int], cells: list[list[int]], splitters: list[int]) -> list[list[int]]:
    """Split the ordered partition ``cells`` until it is equitable.

    Each splitter is a vertex mask W; every cell is split by the neighbour
    count (adj[v] & W).bit_count(), its pieces kept in place in increasing
    order of that count, and each piece queued as a further splitter.  As
    every new cell is queued, on return all vertices of a cell have the
    same number of neighbours in each cell.  Nothing here depends on vertex
    labels: relabelling the graph relabels the result.
    """
    n = len(adj)
    i = 0
    while i < len(splitters) and len(cells) < n:
        w = splitters[i]
        i += 1
        out = []
        for cell in cells:
            if len(cell) > 1:
                pieces: dict[int, list[int]] = {}
                for v in cell:
                    pieces.setdefault((adj[v] & w).bit_count(), []).append(v)
                if len(pieces) > 1:
                    for count in sorted(pieces):
                        out.append(pieces[count])
                        splitters.append(sum(1 << v for v in pieces[count]))
                    continue
            out.append(cell)
        cells = out
    return cells


def _min_leaf(g: GraphColoring) -> int:
    """Smallest leaf bit-string in the individualization-refinement tree of g.

    A node is an equitable ordered partition; its children individualize
    each vertex of the first smallest non-singleton cell in turn (the vertex
    moves to a singleton at the front of that cell) and refine.  A discrete
    partition is a leaf, read as a vertex order.  A later leaf with the
    first leaf's bit-string gives an automorphism, the map from the first
    leaf's order onto its own; the subtree it lies in then repeats one
    already searched, so the search returns to where the two paths part.
    A node also skips every vertex in the orbit of one it already tried,
    under the automorphisms found so far that fix its path.
    """
    n, adj = g.n, g.adj
    autos: list[list[int]] = []
    first: tuple[int, list[int], list[int]] | None = None  # value, order, path
    best = 1 << n * (n - 1) // 2  # above every leaf bit-string

    def visit(cells: list[list[int]], path: list[int]) -> int:
        # Returns the depth the search resumes at: len(path) to go on.
        nonlocal first, best
        depth = len(path)
        if len(cells) == n:
            order = [cell[0] for cell in cells]
            value = _bitstring(g, order)
            if first is None:
                first = (value, order, path)
            elif value == first[0]:
                gamma = [0] * n
                for a, b in zip(first[1], order):
                    gamma[a] = b
                autos.append(gamma)
                return next(k for k, (a, b) in enumerate(zip(first[2], path)) if a != b)
            best = min(best, value)
            return depth
        t = min((i for i, cell in enumerate(cells) if len(cell) > 1),
                key=lambda i: len(cells[i]))
        target = cells[t]
        orbit = list(range(n))  # union-find forest over the vertices

        def root(x: int) -> int:
            while orbit[x] != x:
                orbit[x] = x = orbit[orbit[x]]
            return x

        folded = 0
        tried: list[int] = []
        for v in target:
            if tried:
                for gamma in autos[folded:]:
                    if all(gamma[p] == p for p in path):
                        for x in range(n):
                            orbit[root(x)] = root(gamma[x])
                folded = len(autos)
                r = root(v)
                if any(root(u) == r for u in tried):
                    continue
            tried.append(v)
            child = cells[:t] + [[v], [u for u in target if u != v]] + cells[t + 1:]
            back = visit(_refine(adj, child, [1 << v]), path + [v])
            if back < depth:
                return back
        return depth

    visit(_refine(adj, [list(range(n))], [(1 << n) - 1]), [])
    return best


def canonical_form(g: GraphColoring) -> bytes:
    """Representative bytes equal exactly for graphs isomorphic up to complement.

    The form is n followed by the smallest leaf bit-string of the
    individualization-refinement search trees of g and of its complement
    (both trees are needed: refinement orders cells the other way round on
    the complement).  Every leaf is g or its complement under some vertex
    order, so equal forms mean graphs isomorphic up to complement; the trees
    of a relabelled graph hold the same bit-strings (pruning skips only
    subtrees that repeat searched ones), so isomorphic graphs get equal
    forms.  Graphs above MAX_VERTICES are refused: the search is not
    desk-scale there on highly symmetric graphs.
    """
    if g.n > MAX_VERTICES:
        raise ValueError(_TOO_MANY_VERTICES)
    best = min(_min_leaf(g), _min_leaf(g.complement()))
    width = (g.n * (g.n - 1) // 2 + 7) // 8
    return bytes([g.n]) + best.to_bytes(width, "big")


def graph_to_text(g: GraphColoring) -> str:
    """Adjacency-list text: first line n, then one "v: neighbors" line each."""
    lines = ["%d" % g.n]
    for v in range(g.n):
        nbrs = [str(u) for u in range(g.n) if g.adj[v] >> u & 1]
        lines.append("%d: %s" % (v, " ".join(nbrs)))
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> GraphColoring:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph text")
    n = parse_natural(lines[0])
    if n > MAX_VERTICES:
        # The count is read from a file: refuse it before GraphColoring
        # allocates a slot per vertex, as no larger graph has a census form.
        raise ValueError(_TOO_MANY_VERTICES)
    g = GraphColoring(n)  # refuses n < 1 before allocating
    for line in lines[1:]:
        head, _, rest = line.partition(":")
        v = parse_natural(head)
        for u in map(parse_natural, rest.split()):
            if u != v:
                g.set_edge(v, u, True)
    return g
