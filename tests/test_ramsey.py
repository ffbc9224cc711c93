import re
from decimal import Decimal
from itertools import combinations

import pytest

from randlab import ramsey
from randlab.ramsey import (
    AnnealConfig,
    _count_cliques,
    _flip_counter,
    _subset_counter,
    anneal,
    canonical_form,
    census_confidence,
    count_violations,
    exhaustive_search,
    graph_from_text,
    graph_to_text,
)
from randlab.rng import SplitMix64


# A graph is its list of adjacency masks: bit u of g[v] is set exactly when
# uv is an edge.

def from_edges(n, edges):
    g = [0] * n
    for u, v in edges:
        g[u] |= 1 << v
        g[v] |= 1 << u
    return g


def complement(g):
    full = (1 << len(g)) - 1
    return [full & ~(a | 1 << v) for v, a in enumerate(g)]


def random_graph(n, rng):
    # The low bit of one draw per edge slot, as anneal's start graph.
    return from_edges(n, [e for e in combinations(range(n), 2) if rng.next_u64() & 1])


def cycle5():
    return from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def complete(n):
    return from_edges(n, combinations(range(n), 2))


def edges(g):
    """The edges (u, v), u < v, of g, read from its adjacency masks."""
    return [(u, v) for u, v in combinations(range(len(g)), 2) if g[u] >> v & 1]


def has_edge(g, u, v):
    return bool(g[u] >> v & 1)


def packed(adj):
    # The flip kernel's packed adjacency: adj[w] in the n-bit lane w.
    return sum(a << len(adj) * w for w, a in enumerate(adj))


def brute_violations(g, s, t):
    # Oracle: test every subset directly against the adjacency matrix.
    count = 0
    for subset in combinations(range(len(g)), s):
        if all(has_edge(g, u, v) for u, v in combinations(subset, 2)):
            count += 1
    for subset in combinations(range(len(g)), t):
        if not any(has_edge(g, u, v) for u, v in combinations(subset, 2)):
            count += 1
    return count


def test_count_violations_examples():
    assert count_violations(cycle5(), 3, 3) == 0
    assert count_violations(complete(6), 3, 3) == 20
    assert count_violations([0] * 6, 3, 3) == 20


def test_count_violations_matches_bruteforce_on_random_graphs():
    rng = SplitMix64(5)
    for _ in range(30):
        g = random_graph(8, rng)
        for s, t in ((2, 2), (3, 3), (3, 4), (4, 3)):
            assert count_violations(g, s, t) == brute_violations(g, s, t)


def test_count_violations_complement_duality_exhaustive():
    # Every labeled graph up to 6 vertices; 7-vertex graphs sampled (the
    # full 2^21 sweep is minutes of runtime for no extra assurance).
    for n in range(2, 7):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            comp = complement(g)
            for s, t in ((2, 2), (3, 3), (2, 3)) if n >= 3 else ((2, 2),):
                assert count_violations(g, s, t) == count_violations(comp, t, s)
    rng = SplitMix64(6)
    for _ in range(300):
        g = random_graph(7, rng)
        for s in (2, 3, 4):
            for t in (2, 3, 4):
                assert count_violations(g, s, t) == count_violations(complement(g), t, s)


def test_unrolled_subset_counts_match_recursion():
    rng = SplitMix64(7)
    for n in (1, 2, 5, 12, 17, 24):
        for _ in range(20):
            g = random_graph(n, rng)
            m = rng.next_u64() & (1 << n) - 1
            for size in range(6):
                for flip in (0, -1):
                    assert _subset_counter(size, flip, n)(g, packed(g), m) == \
                        _count_cliques(g, size, m, flip)


def test_flip_kernel_matches_recount_on_every_pair():
    # The delta of flipping (u, v) is the change in the subsets holding both
    # endpoints: (s-2)-cliques among the common neighbours against
    # (t-2)-independent sets among the common non-neighbours, recounted here
    # by the recursion; below 8 vertices also against a full recount.
    rng = SplitMix64(16)
    for n in range(4, 25):
        g = random_graph(n, rng)
        for adj in (g, complement(g)):
            lanes = packed(adj)
            for s in range(2, min(n, 6) + 1):
                for t in range(2, min(n, 6) + 1):
                    delta = _flip_counter(n, s, t)
                    for u, v in combinations(range(n), 2):
                        common = adj[u] & adj[v]
                        neither = (1 << n) - 1 & ~(adj[u] | adj[v] | 1 << u | 1 << v)
                        d = (_count_cliques(adj, s - 2, common)
                             - _count_cliques(adj, t - 2, neither, -1))
                        if has_edge(adj, u, v):
                            d = -d
                        assert delta(adj, lanes, u, v) == d, (n, s, t, u, v)
                        if n < 8:
                            flipped = list(adj)
                            flipped[u] ^= 1 << v
                            flipped[v] ^= 1 << u
                            assert d == (count_violations(flipped, s, t)
                                         - count_violations(adj, s, t))


def test_count_violations_guards():
    with pytest.raises(ValueError):
        count_violations([0] * 5, 1, 3)
    with pytest.raises(ValueError):
        count_violations([0] * 5, 3, 6)
    with pytest.raises(ValueError):
        count_violations([0] * 25, 3, 3)


def test_graph_basics():
    # An edge listed on one endpoint's line is set at both ends, and listed
    # on both lines it is one edge; a loop is ignored.
    g = graph_from_text("4\n0: 3\n1: 1\n")
    assert g == [8, 0, 0, 1]
    assert has_edge(g, 3, 0)
    assert graph_from_text("4\n0: 3\n3: 0\n") == g
    assert graph_from_text("4\n") == [0] * 4
    assert complement(g) == [6, 13, 11, 6]
    assert complement(complete(4)) == [0] * 4


@pytest.mark.parametrize("text, message", [
    ("0\n", "n must be >= 1"),
    ("3\n0: 3\n", "bad edge (0, 3)"),
    # A vertex past n is refused on a line with a loop or with no neighbours.
    ("3\n30: 30\n", "bad edge (30, 30)"),
    ("3\n0: 1\n30:\n", "bad vertex 30"),
])
def test_graph_from_text_refuses(text, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        graph_from_text(text)


def test_anneal_finds_c5_class_quickly():
    steps = []
    for seed in range(20):
        out = anneal(5, 3, 3, None, SplitMix64(seed))
        assert out.found
        assert count_violations(out.graph, 3, 3) == 0
        steps.append(out.steps)
    steps.sort()
    assert steps[len(steps) // 2] <= 10**4


def test_anneal_impossible_instance_not_found():
    cfg = AnnealConfig(max_total_steps=200_000)
    out = anneal(6, 3, 3, cfg, SplitMix64(0))
    assert not out.found
    assert out.graph is None
    assert out.best_energy > 0


class Audit:
    """Test-side audit of an anneal run, installed in place of the flip kernel.

    Each kernel call sees the adjacency after the previous move, so the
    audit learns whether that flip was accepted and follows the running
    energy as anneal does, adding the delta of each accepted flip.  It checks
    the packed adjacency at every call (so after every accepted flip but the
    run's last) and recounts the energy every 1000th call.  A new adjacency
    list is a fresh or restarted random graph, whose energy is recounted.
    """

    def __init__(self, monkeypatch, s, t):
        self.s, self.t = s, t
        self.adj, self.last, self.energy, self.calls, self.recounts = None, None, 0, 0, 0
        kernel = ramsey._flip_counter

        def flip_counter(n, s, t):
            delta = kernel(n, s, t)

            def audited(adj, lanes, u, v):
                self.follow(adj)
                assert lanes == packed(adj)
                self.calls += 1
                if self.calls % 1000 == 0:
                    assert self.energy == self.recount()
                    self.recounts += 1
                d = delta(adj, lanes, u, v)
                self.last = u, v, adj[u] >> v & 1, d
                return d
            return audited
        monkeypatch.setattr(ramsey, "_flip_counter", flip_counter)

    def recount(self):
        return count_violations(self.adj, self.s, self.t)

    def follow(self, adj):
        if adj is not self.adj:
            self.adj, self.last = adj, None
            self.energy = self.recount()
        elif self.last is not None:
            u, v, bit, d = self.last
            if adj[u] >> v & 1 != bit:
                self.energy += d

    def finish(self):
        """Follow the run's last move and recount its final graph."""
        self.follow(self.adj)
        self.last = None
        assert self.energy == self.recount()


def test_anneal_debug_audits_incremental_energy(monkeypatch):
    # The infeasible (3,3,6) instance keeps annealing past many audit
    # points (every 1000 kernel calls), each comparing the running energy
    # with a full recount.
    audit = Audit(monkeypatch, 3, 3)
    out = anneal(6, 3, 3, AnnealConfig(max_total_steps=20_000), SplitMix64(1))
    audit.finish()
    assert not out.found
    assert out.steps == 20_000
    assert audit.recounts == 20


def test_anneal_deterministic_replay():
    a = anneal(5, 3, 3, None, SplitMix64(3))
    b = anneal(5, 3, 3, None, SplitMix64(3))
    assert a.steps == b.steps
    assert a.graph == b.graph


# Replayed anneal runs: (n, s, t, seed, config) and what they must return,
# down to the generator state after the last draw, so a change to the move
# loop must keep every draw and every accepted flip.  Recorded from the
# recursive per-move recount that the flip kernel replaced.  Each replay
# runs under the test-side Audit.
ANNEAL_PINS = [
    # (n, s, t, seed, cfg), (steps, restarts_used, best_energy, final adj, rng.state)
    ((5, 3, 3, 0, None), (104, 0, 0, [6, 9, 17, 18, 12], 6688773790079164609)),
    ((5, 3, 3, 1, None), (12, 0, 0, [24, 20, 10, 5, 3], 1998715050314828417)),
    ((5, 3, 3, 2, None), (38, 0, 0, [10, 5, 18, 17, 12], 11978766303238853880)),
    ((8, 3, 4, 0, None),
     (719, 0, 0, [112, 24, 160, 98, 3, 13, 137, 68], 10157082693573096967)),
    ((8, 3, 4, 1, None),
     (1134, 0, 0, [98, 137, 224, 50, 72, 13, 21, 6], 16188634132647396517)),
    ((8, 3, 4, 2, None),
     (1924, 0, 0, [140, 28, 35, 67, 130, 68, 40, 17], 15823020377510626931)),
    ((13, 3, 5, 0, None),
     (36807, 0, 0, [6660, 6216, 297, 534, 4488, 5252, 898, 2160, 1108, 1097, 2848, 1155, 51],
      13966506229775683055)),
    ((13, 3, 5, 3, None),
     (35760, 0, 0, [2580, 864, 4417, 3840, 1409, 7170, 1158, 6224, 30, 4107, 120, 169, 676],
      5551936278779133335)),
    ((7, 4, 3, 1, None), (41, 0, 0, [108, 28, 75, 23, 42, 81, 37], 1848731606965990148)),
    ((8, 3, 4, 0, AnnealConfig(initial_temperature=2.0, steps_per_temperature=10)),
     (1120, 0, 0, [22, 193, 9, 164, 161, 88, 34, 26], 17516602833307243254)),
    # Budget exhausted with no solution: (3,3,6) is infeasible; the others
    # stop early, at sizes 2 and 4 of the subset counts.
    ((6, 3, 3, 0, AnnealConfig(max_total_steps=3000)),
     (3000, 0, 2, None, 13472215570709145544)),
    ((17, 4, 4, 0, AnnealConfig(max_total_steps=4000)),
     (4000, 0, 25, None, 6916708642319657074)),
    ((12, 3, 6, 0, AnnealConfig(max_total_steps=3000)),
     (3000, 0, 1, None, 15678202641982324213)),
    ((8, 3, 4, 5, None),
     (3911, 0, 0, [76, 112, 49, 145, 14, 134, 131, 104], 13013906949833049677)),
]

# The same with STAGNATION_LIMIT = 40, so restarts happen.
ANNEAL_RESTART_PINS = [
    ((8, 3, 4, 0, None),
     (1011, 23, 0, [152, 176, 88, 37, 7, 10, 132, 67], 615430896856959735)),
    ((8, 3, 4, 5, None),
     (282, 5, 0, [6, 73, 161, 162, 96, 28, 146, 76], 7465739004123589195)),
    ((7, 3, 4, 2, None),
     (162, 3, 0, [72, 12, 66, 19, 40, 80, 37], 17524961124136824321)),
    ((6, 3, 3, 1, AnnealConfig(max_total_steps=3000)),
     (3000, 74, 2, None, 10692123265143291565)),
]


def replayed(monkeypatch, n, s, t, seed, cfg):
    audit = Audit(monkeypatch, s, t)
    rng = SplitMix64(seed)
    out = anneal(n, s, t, cfg, rng)
    audit.finish()
    return out.steps, out.restarts_used, out.best_energy, \
        out.graph, rng.state


@pytest.mark.parametrize("args, pinned", ANNEAL_PINS)
def test_anneal_replays_pinned_runs(args, pinned, monkeypatch):
    assert replayed(monkeypatch, *args) == pinned


@pytest.mark.parametrize("args, pinned", ANNEAL_RESTART_PINS)
def test_anneal_replays_pinned_restarts(args, pinned, monkeypatch):
    monkeypatch.setattr(ramsey, "STAGNATION_LIMIT", 40)
    assert replayed(monkeypatch, *args) == pinned


def test_anneal_validates_config():
    with pytest.raises(ValueError):
        anneal(5, 3, 3, AnnealConfig(cooling=1.5), SplitMix64(0))
    with pytest.raises(ValueError):
        anneal(5, 3, 3, AnnealConfig(initial_temperature=-1.0), SplitMix64(0))
    with pytest.raises(ValueError):
        anneal(5, 3, 3, AnnealConfig(max_total_steps=0), SplitMix64(0))


@pytest.mark.parametrize("field, value", [
    ("initial_temperature", True),
    # A Decimal passes the range checks, then fails the first cooling product.
    ("initial_temperature", Decimal(2)),
    ("cooling", Decimal("0.5")),
])
def test_anneal_config_refuses_a_non_number(field, value):
    with pytest.raises(ValueError, match="^%s must be a number$" % field):
        anneal(5, 3, 3, AnnealConfig(**{field: value}), SplitMix64(0))


def test_exhaustive_search_pins_r33():
    found = exhaustive_search(5, 3, 3)
    assert found  # C5 relabelings exist
    assert any(g == cycle5() for g in found)
    assert all(count_violations(g, 3, 3) == 0 for g in found)
    assert exhaustive_search(6, 3, 3) == []  # R(3,3) = 6


def test_exhaustive_search_r22():
    assert exhaustive_search(2, 2, 2) == []


def test_exhaustive_search_guard():
    with pytest.raises(ValueError):
        exhaustive_search(8, 3, 3)  # C(8,2) = 28 > 21


def reference_exhaustive(n, s, t):
    # Mask-order brute force: graph number mask has edge pairs[i] exactly
    # when bit i is set, each one counted from scratch.
    pairs = list(combinations(range(n), 2))
    out = []
    for mask in range(1 << len(pairs)):
        g = from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
        if count_violations(g, s, t) == 0:
            out.append(g)
    return out


@pytest.mark.parametrize("n, s, t", [
    (n, s, t) for n in range(2, 6) for s in range(2, n + 1) for t in range(2, n + 1)
] + [(6, 3, 4)])
def test_exhaustive_search_matches_mask_order_reference(n, s, t):
    found = exhaustive_search(n, s, t)
    assert found == reference_exhaustive(n, s, t)
    if (n, s, t) == (6, 3, 4):
        assert len(found) == 2812



def test_census_confidence_values():
    assert abs(census_confidence(328, 5812) - 0.99999998) < 1e-8
    assert census_confidence(1, 1) == 0.5
    with pytest.raises(ValueError):
        census_confidence(1, 0)
    with pytest.raises(ValueError):
        census_confidence(5, 3)


def test_census_confidence_monotone():
    rng = SplitMix64(1)
    for _ in range(200):
        c = 1 + rng.uniform_below(500)
        # keep (c/(c+1))**r above double-precision epsilon so strict
        # comparisons are meaningful; saturation to 1.0 is checked below
        r = c + rng.uniform_below(20 * c)
        assert census_confidence(c, r + 1) > census_confidence(c, r)
        assert census_confidence(c + 1, r + 1) < census_confidence(c, r + 1)
    # at saturation the float result can only plateau, never decrease
    assert census_confidence(21, 1972) >= census_confidence(21, 1971) == 1.0


def test_canonical_form_isomorphism_invariance():
    g = cycle5()
    relabeled = from_edges(5, [(2, 4), (4, 1), (1, 3), (3, 0), (0, 2)])
    assert canonical_form(g) == canonical_form(relabeled)


def test_canonical_form_complement_pairing():
    g = cycle5()  # self-complementary
    assert canonical_form(g) == canonical_form(complement(g))
    # complement pairing also holds for non-self-complementary graphs
    path = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert canonical_form(path) == canonical_form(complement(path))


def test_canonical_form_separates_nonisomorphic():
    p3 = from_edges(3, [(0, 1), (1, 2)])
    k3 = complete(3)
    assert canonical_form(p3) != canonical_form(k3)


def relabeled(g, perm):
    return from_edges(len(g), [(perm[u], perm[v]) for u, v in edges(g)])


def shuffled(n, rng):
    perm = list(range(n))
    for i in range(n - 1, 0, -1):  # Fisher-Yates
        j = rng.uniform_below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def test_canonical_form_counts_classes_up_to_complement():
    # Every labeled graph on n <= 6 vertices.  Equal forms already mean
    # isomorphic up to complement (a form is a relabeled bit-string), so
    # hitting the class count (g(n) + sc(n)) / 2 means no class is split.
    counts = []
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        forms = set()
        for mask in range(1 << len(pairs)):
            forms.add(canonical_form(from_edges(
                n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])))
        counts.append(len(forms))
    assert counts == [1, 1, 2, 6, 18, 78]


def test_canonical_form_invariant_on_random_graphs():
    rng = SplitMix64(44)
    for n in (6, 8, 17):
        for _ in range(10):
            g = random_graph(n, rng)
            form = canonical_form(g)
            assert canonical_form(relabeled(g, shuffled(n, rng))) == form
            assert canonical_form(complement(g)) == form


def cycles(*lengths):
    edges, base = [], 0
    for k in lengths:
        edges += [(base + i, base + (i + 1) % k) for i in range(k)]
        base += k
    return from_edges(base, edges)


def test_canonical_form_regular_graphs_that_refinement_cannot_split():
    # Every vertex has the same degree, so refinement leaves one cell, yet
    # the vertices are not all alike: the form must not depend on which
    # vertex the search happens to individualize first.
    frucht = from_edges(12, [(i, (i + 1) % 12) for i in range(12)] + [
        (0, 7), (1, 11), (2, 10), (3, 5), (4, 9), (6, 8)])  # cubic, no symmetry
    rng = SplitMix64(45)
    for g in (cycles(3, 4), cycles(3, 5), cycles(4, 5), cycles(3, 3, 4), cycles(3, 4, 5, 6), frucht):
        form = canonical_form(g)
        for _ in range(10):
            assert canonical_form(relabeled(g, shuffled(len(g), rng))) == form
    assert canonical_form(cycles(3, 4)) != canonical_form(cycles(7))


def test_canonical_form_symmetric_graphs_on_24_vertices():
    # Large automorphism groups exercise the pruning; K24 and the empty
    # graph would need 24! leaves without it.
    affine = [(5 * v + 3) % 24 for v in range(24)]
    for edges in (
        list(combinations(range(24), 2)),  # K24
        [],  # empty
        [(2 * i, 2 * i + 1) for i in range(12)],  # 12 K2
        [(3 * i + a, 3 * i + b) for i in range(8) for a, b in ((0, 1), (0, 2), (1, 2))],  # 8 K3
        [(u, v) for u in range(12) for v in range(12, 24)],  # K12,12
    ):
        g = from_edges(24, edges)
        form = canonical_form(g)
        assert canonical_form(complement(g)) == form
        assert canonical_form(relabeled(g, affine)) == form


def test_canonical_form_vertex_limit():
    canonical_form([0] * 24)
    canonical_form([0])
    with pytest.raises(ValueError, match="at most 24 vertices"):
        canonical_form([0] * 25)
    with pytest.raises(ValueError, match="n must be >= 1"):
        canonical_form([])


def test_graph_text_round_trip():
    g = cycle5()
    assert graph_from_text(graph_to_text(g)) == g
    with pytest.raises(ValueError):
        graph_from_text("")
