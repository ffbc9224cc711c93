from itertools import combinations

import pytest

from randlab import ramsey
from randlab.ramsey import (
    AnnealConfig,
    GraphColoring,
    _count_cliques,
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


def cycle5():
    return GraphColoring.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def complete(n):
    return GraphColoring.from_edges(n, combinations(range(n), 2))


def brute_violations(g, s, t):
    # Oracle: test every subset directly against the adjacency matrix.
    count = 0
    for subset in combinations(range(g.n), s):
        if all(g.has_edge(u, v) for u, v in combinations(subset, 2)):
            count += 1
    for subset in combinations(range(g.n), t):
        if not any(g.has_edge(u, v) for u, v in combinations(subset, 2)):
            count += 1
    return count


def test_count_violations_examples():
    assert count_violations(cycle5(), 3, 3) == 0
    assert count_violations(complete(6), 3, 3) == 20
    assert count_violations(GraphColoring(6), 3, 3) == 20


def test_count_violations_matches_bruteforce_on_random_graphs():
    rng = SplitMix64(5)
    for _ in range(30):
        g = GraphColoring.random(8, rng)
        for s, t in ((2, 2), (3, 3), (3, 4), (4, 3)):
            assert count_violations(g, s, t) == brute_violations(g, s, t)


def test_count_violations_complement_duality_exhaustive():
    # Every labeled graph up to 6 vertices; 7-vertex graphs sampled (the
    # full 2^21 sweep is minutes of runtime for no extra assurance).
    for n in range(2, 7):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = GraphColoring(n)
            for i, (u, v) in enumerate(pairs):
                if mask >> i & 1:
                    g.set_edge(u, v, True)
            comp = g.complement()
            for s, t in ((2, 2), (3, 3), (2, 3)) if n >= 3 else ((2, 2),):
                assert count_violations(g, s, t) == count_violations(comp, t, s)
    rng = SplitMix64(6)
    for _ in range(300):
        g = GraphColoring.random(7, rng)
        for s in (2, 3, 4):
            for t in (2, 3, 4):
                assert count_violations(g, s, t) == count_violations(g.complement(), t, s)


def test_unrolled_subset_counts_match_recursion():
    rng = SplitMix64(7)
    for _ in range(20):
        g = GraphColoring.random(12, rng)
        m = rng.next_u64() & 0xFFF
        for size in range(6):
            for flip in (0, -1):
                assert _subset_counter(size, flip)(g.adj, m) == \
                    _count_cliques(g.adj, size, m, flip)


def test_count_violations_guards():
    with pytest.raises(ValueError):
        count_violations(GraphColoring(5), 1, 3)
    with pytest.raises(ValueError):
        count_violations(GraphColoring(5), 3, 6)
    with pytest.raises(ValueError):
        count_violations(GraphColoring(25), 3, 3)


def test_graph_basics():
    g = GraphColoring(4)
    g.set_edge(0, 3, True)
    assert g.has_edge(3, 0)
    g.set_edge(3, 0, False)
    assert not g.has_edge(0, 3)
    with pytest.raises(ValueError):
        g.set_edge(1, 1, True)
    comp = complete(4).complement()
    assert comp.edges() == []


def test_anneal_finds_c5_class_quickly():
    steps = []
    for seed in range(20):
        out = anneal(5, 3, 3, None, SplitMix64(seed), debug=True)
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


def test_anneal_debug_audits_incremental_energy():
    # The infeasible (3,3,6) instance keeps annealing past many audit
    # points (every 1000 moves), each comparing the running energy with a
    # full recount; any bookkeeping drift would raise.
    cfg = AnnealConfig(max_total_steps=20_000)
    out = anneal(6, 3, 3, cfg, SplitMix64(1), debug=True)
    assert not out.found
    assert out.steps == 20_000


def test_anneal_deterministic_replay():
    a = anneal(5, 3, 3, None, SplitMix64(3))
    b = anneal(5, 3, 3, None, SplitMix64(3))
    assert a.steps == b.steps
    assert a.graph == b.graph


# Replayed anneal runs: (n, s, t, seed, config, debug) and what they must
# return, down to the generator state after the last draw, so a change to
# the move loop must keep every draw and every accepted flip.  Recorded from
# the recursive per-move recount that the flip kernel replaced.
ANNEAL_PINS = [
    # (n, s, t, seed, cfg, debug), (steps, restarts_used, best_energy, final adj, rng.state)
    ((5, 3, 3, 0, None, False), (104, 0, 0, [6, 9, 17, 18, 12], 6688773790079164609)),
    ((5, 3, 3, 1, None, False), (12, 0, 0, [24, 20, 10, 5, 3], 1998715050314828417)),
    ((5, 3, 3, 2, None, False), (38, 0, 0, [10, 5, 18, 17, 12], 11978766303238853880)),
    ((8, 3, 4, 0, None, False),
     (719, 0, 0, [112, 24, 160, 98, 3, 13, 137, 68], 10157082693573096967)),
    ((8, 3, 4, 1, None, False),
     (1134, 0, 0, [98, 137, 224, 50, 72, 13, 21, 6], 16188634132647396517)),
    ((8, 3, 4, 2, None, False),
     (1924, 0, 0, [140, 28, 35, 67, 130, 68, 40, 17], 15823020377510626931)),
    ((13, 3, 5, 0, None, False),
     (36807, 0, 0, [6660, 6216, 297, 534, 4488, 5252, 898, 2160, 1108, 1097, 2848, 1155, 51],
      13966506229775683055)),
    ((13, 3, 5, 3, None, False),
     (35760, 0, 0, [2580, 864, 4417, 3840, 1409, 7170, 1158, 6224, 30, 4107, 120, 169, 676],
      5551936278779133335)),
    ((7, 4, 3, 1, None, False), (41, 0, 0, [108, 28, 75, 23, 42, 81, 37], 1848731606965990148)),
    ((8, 3, 4, 0, AnnealConfig(initial_temperature=2.0, steps_per_temperature=10), False),
     (1120, 0, 0, [22, 193, 9, 164, 161, 88, 34, 26], 17516602833307243254)),
    # Budget exhausted with no solution: (3,3,6) is infeasible; the others
    # stop early, at sizes 2 and 4 of the subset counts.
    ((6, 3, 3, 0, AnnealConfig(max_total_steps=3000), False),
     (3000, 0, 2, None, 13472215570709145544)),
    ((17, 4, 4, 0, AnnealConfig(max_total_steps=4000), False),
     (4000, 0, 25, None, 6916708642319657074)),
    ((12, 3, 6, 0, AnnealConfig(max_total_steps=3000), False),
     (3000, 0, 1, None, 15678202641982324213)),
    # debug=True audits at moves 1000, 2000 and 3000 and draws nothing extra.
    ((8, 3, 4, 5, None, True),
     (3911, 0, 0, [76, 112, 49, 145, 14, 134, 131, 104], 13013906949833049677)),
]

# The same with STAGNATION_LIMIT = 40, so restarts happen.
ANNEAL_RESTART_PINS = [
    ((8, 3, 4, 0, None, False),
     (1011, 23, 0, [152, 176, 88, 37, 7, 10, 132, 67], 615430896856959735)),
    ((8, 3, 4, 5, None, False),
     (282, 5, 0, [6, 73, 161, 162, 96, 28, 146, 76], 7465739004123589195)),
    ((7, 3, 4, 2, None, False),
     (162, 3, 0, [72, 12, 66, 19, 40, 80, 37], 17524961124136824321)),
    ((6, 3, 3, 1, AnnealConfig(max_total_steps=3000), False),
     (3000, 74, 2, None, 10692123265143291565)),
]


def replayed(n, s, t, seed, cfg, debug):
    rng = SplitMix64(seed)
    out = anneal(n, s, t, cfg, rng, debug=debug)
    return out.steps, out.restarts_used, out.best_energy, \
        out.graph.adj if out.found else None, rng.state


@pytest.mark.parametrize("args, pinned", ANNEAL_PINS)
def test_anneal_replays_pinned_runs(args, pinned):
    assert replayed(*args) == pinned


@pytest.mark.parametrize("args, pinned", ANNEAL_RESTART_PINS)
def test_anneal_replays_pinned_restarts(args, pinned, monkeypatch):
    monkeypatch.setattr(ramsey, "STAGNATION_LIMIT", 40)
    assert replayed(*args) == pinned


def test_anneal_validates_config():
    with pytest.raises(ValueError):
        anneal(5, 3, 3, AnnealConfig(cooling=1.5), SplitMix64(0))
    with pytest.raises(ValueError):
        anneal(5, 3, 3, AnnealConfig(initial_temperature=-1.0), SplitMix64(0))
    with pytest.raises(ValueError):
        anneal(5, 3, 3, AnnealConfig(max_total_steps=0), SplitMix64(0))


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
        g = GraphColoring(n)
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                g.set_edge(u, v, True)
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
    relabeled = GraphColoring.from_edges(5, [(2, 4), (4, 1), (1, 3), (3, 0), (0, 2)])
    assert canonical_form(g) == canonical_form(relabeled)


def test_canonical_form_complement_pairing():
    g = cycle5()  # self-complementary
    assert canonical_form(g) == canonical_form(g.complement())
    # complement pairing also holds for non-self-complementary graphs
    path = GraphColoring.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert canonical_form(path) == canonical_form(path.complement())


def test_canonical_form_separates_nonisomorphic():
    p3 = GraphColoring.from_edges(3, [(0, 1), (1, 2)])
    k3 = complete(3)
    assert canonical_form(p3) != canonical_form(k3)


def relabeled(g, perm):
    return GraphColoring.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


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
            forms.add(canonical_form(GraphColoring.from_edges(
                n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])))
        counts.append(len(forms))
    assert counts == [1, 1, 2, 6, 18, 78]


def test_canonical_form_invariant_on_random_graphs():
    rng = SplitMix64(44)
    for n in (6, 8, 17):
        for _ in range(10):
            g = GraphColoring.random(n, rng)
            form = canonical_form(g)
            assert canonical_form(relabeled(g, shuffled(n, rng))) == form
            assert canonical_form(g.complement()) == form


def cycles(*lengths):
    edges, base = [], 0
    for k in lengths:
        edges += [(base + i, base + (i + 1) % k) for i in range(k)]
        base += k
    return GraphColoring.from_edges(base, edges)


def test_canonical_form_regular_graphs_that_refinement_cannot_split():
    # Every vertex has the same degree, so refinement leaves one cell, yet
    # the vertices are not all alike: the form must not depend on which
    # vertex the search happens to individualize first.
    frucht = GraphColoring.from_edges(12, [(i, (i + 1) % 12) for i in range(12)] + [
        (0, 7), (1, 11), (2, 10), (3, 5), (4, 9), (6, 8)])  # cubic, no symmetry
    rng = SplitMix64(45)
    for g in (cycles(3, 4), cycles(3, 5), cycles(4, 5), cycles(3, 3, 4), cycles(3, 4, 5, 6), frucht):
        form = canonical_form(g)
        for _ in range(10):
            assert canonical_form(relabeled(g, shuffled(g.n, rng))) == form
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
        g = GraphColoring.from_edges(24, edges)
        form = canonical_form(g)
        assert canonical_form(g.complement()) == form
        assert canonical_form(relabeled(g, affine)) == form


def test_canonical_form_vertex_limit():
    canonical_form(GraphColoring(24))
    with pytest.raises(ValueError, match="at most 24 vertices"):
        canonical_form(GraphColoring(25))


def test_graph_text_round_trip():
    g = cycle5()
    assert graph_from_text(graph_to_text(g)) == g
    with pytest.raises(ValueError):
        graph_from_text("")
