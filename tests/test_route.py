import hashlib
from collections import Counter

import pytest

from randlab.rng import SplitMix64, derive_stream
from randlab.route import (
    RunStats,
    bit_reversal,
    run_oblivious,
    run_valiant,
)


def hamming(a, b):
    return bin(a ^ b).count("1")


def leading_bit_path(src, dst):
    """Reference definition of a greedy route: the vertices visited when
    always flipping the highest differing bit, as ``route._simulate`` does
    hop by hop."""
    path = [src]
    cur = src
    while cur != dst:
        cur ^= 1 << (cur ^ dst).bit_length() - 1
        path.append(cur)
    return path


def test_bit_reversal_examples():
    assert bit_reversal(3)[0b100] == 0b001
    assert bit_reversal(8)[0b01001001] == 0b10010010
    perm = bit_reversal(6)
    assert all(perm[perm[v]] == v for v in range(64))  # involution
    assert sorted(perm) == list(range(64))


def test_bit_reversal_matches_bitwise_definition():
    for d in range(1, 13):
        assert bit_reversal(d) == [int(format(v, "0%db" % d)[::-1], 2)
                                   for v in range(1 << d)]


def test_bit_reversal_rejects_bad_dimension():
    with pytest.raises(ValueError):
        bit_reversal(0)


def test_leading_bit_path_trivial():
    assert leading_bit_path(5, 5) == [5]


def test_leading_bit_path_highest_bit_first():
    assert leading_bit_path(0b000, 0b111) == [0b000, 0b100, 0b110, 0b111]


def test_leading_bit_path_eight_bit_example():
    # 01001001 -> 10010010 flips differing bits left to right, 6 traversals.
    path = leading_bit_path(0b01001001, 0b10010010)
    assert len(path) == 7
    assert path == [0b01001001, 0b11001001, 0b10001001, 0b10011001,
                    0b10010001, 0b10010011, 0b10010010]


def test_leading_bit_path_length_is_hamming_distance():
    rng = SplitMix64(8)
    for _ in range(500):
        src = rng.uniform_below(1 << 10)
        dst = rng.uniform_below(1 << 10)
        path = leading_bit_path(src, dst)
        assert len(path) == hamming(src, dst) + 1
        # pure function: identical on re-evaluation
        assert path == leading_bit_path(src, dst)
        for a, b in zip(path, path[1:]):
            assert hamming(a, b) == 1  # hypercube edges only


def test_identity_permutation_zero_steps():
    for d in (1, 3, 6):
        stats = run_oblivious(d, list(range(1 << d)))
        assert stats.total_steps == 0
        assert all(lat == 0 for lat in stats.per_packet_latency)


def test_perm_must_be_bijective():
    with pytest.raises(ValueError):
        run_oblivious(2, [0, 0, 1, 2])
    with pytest.raises(ValueError):
        run_oblivious(0, [])


def test_bit_reversal_congestion_at_vertex_zero():
    # Packets from sources with >= d/2 trailing zeros all funnel through
    # vertex 0: exactly 2^(d/2) of them.
    for d in (4, 6, 8):
        stats = run_oblivious(d, bit_reversal(d))
        vertex, count = stats.max_vertex_throughput
        assert vertex == 0
        assert count >= 2 ** (d // 2)


def test_bit_reversal_d10_regression():
    stats = run_oblivious(10, bit_reversal(10))
    assert stats.max_vertex_throughput == (0, 32)
    # With one FIFO per directed edge the 32 hot packets leave vertex 0 over
    # d/2 distinct edges, so the run finishes well before 32 steps.
    assert stats.total_steps == 21


def test_latency_floor_is_hamming_distance():
    d = 6
    perm = bit_reversal(d)
    stats = run_oblivious(d, perm)
    for j, latency in enumerate(stats.per_packet_latency):
        assert latency >= hamming(j, perm[j])
    assert stats.total_steps == max(stats.per_packet_latency)


def test_oblivious_deterministic():
    d = 6
    a = run_oblivious(d, bit_reversal(d))
    b = run_oblivious(d, bit_reversal(d))
    assert a == b


def test_valiant_degenerate_control_case():
    d = 4
    identity = list(range(1 << d))
    stats = run_valiant(d, identity, SplitMix64(0), sigma=identity)
    assert stats.total_steps == 0


def test_valiant_delivers_everything():
    d = 6
    perm = bit_reversal(d)
    stats = run_valiant(d, perm, SplitMix64(3))
    assert len(stats.per_packet_latency) == 1 << d
    assert stats.total_steps <= (1 << d) * d
    assert stats.phase1_steps is not None
    assert stats.phase1_steps <= stats.total_steps


def test_valiant_latency_floor_via_sigma():
    d = 5
    perm = bit_reversal(d)
    rng = SplitMix64(17)
    sigma = [rng.uniform_below(1 << d) for _ in range(1 << d)]
    stats = run_valiant(d, perm, SplitMix64(0), sigma=sigma)
    for j, latency in enumerate(stats.per_packet_latency):
        assert latency >= hamming(j, sigma[j]) + hamming(sigma[j], perm[j])


def test_valiant_deterministic_replay():
    d = 6
    a = run_valiant(d, bit_reversal(d), SplitMix64(12))
    b = run_valiant(d, bit_reversal(d), SplitMix64(12))
    assert a == b


def test_valiant_phase_barrier_mode():
    d = 5
    perm = bit_reversal(d)
    stats = run_valiant(d, perm, SplitMix64(2), phase_barrier=True)
    assert stats.phase1_steps is not None
    assert stats.total_steps >= stats.phase1_steps
    assert max(stats.per_packet_latency) == stats.total_steps


def test_valiant_sigma_validation():
    with pytest.raises(ValueError):
        run_valiant(2, [0, 1, 2, 3], SplitMix64(0), sigma=[0, 1])
    with pytest.raises(ValueError):
        run_valiant(2, [0, 1, 2, 3], SplitMix64(0), sigma=[0, 1, 2, 9])


def test_valiant_14d_bound_sampled():
    # Smaller-scale pre-check of the acceptance criterion: 50 seeds at d = 6.
    d = 6
    perm = bit_reversal(d)
    steps = [run_valiant(d, perm, derive_stream(seed, 0)).total_steps
             for seed in range(50)]
    assert sum(1 for s in steps if s <= 14 * d) >= 49
    assert sum(steps) / len(steps) < 15 * d


def edge_uses(routes):
    return Counter(e for route in routes for e in zip(route, route[1:]))


@pytest.mark.parametrize("d", [4, 6, 8])
def test_no_edge_carries_more_packets_than_steps(d):
    # Each directed edge carries at most one packet per step, so no edge is on
    # more routes than the run has steps.
    N = 1 << d
    perm = bit_reversal(d)
    greedy = [leading_bit_path(j, perm[j]) for j in range(N)]
    stats = run_oblivious(d, perm)
    assert max(edge_uses(greedy).values()) <= stats.total_steps
    rng = SplitMix64(d)
    sigma = [rng.uniform_below(N) for _ in range(N)]
    phase1 = [leading_bit_path(j, sigma[j]) for j in range(N)]
    phase2 = [leading_bit_path(sigma[j], perm[j]) for j in range(N)]
    stats = run_valiant(d, perm, SplitMix64(0), sigma=sigma)
    two_phase = [a + b[1:] for a, b in zip(phase1, phase2)]
    assert max(edge_uses(two_phase).values()) <= stats.total_steps
    stats = run_valiant(d, perm, SplitMix64(0), sigma=sigma, phase_barrier=True)
    assert max(edge_uses(phase1).values()) <= stats.phase1_steps
    assert max(edge_uses(phase2).values()) <= stats.total_steps - stats.phase1_steps


def shuffled(d, rng):
    perm = list(range(1 << d))
    for i in range(len(perm) - 1, 0, -1):
        j = rng.uniform_below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


# Replayed runs: (algo, d, perm, seed) and the RunStats they must give, as
# (total_steps, max_vertex_throughput, max_queue_depth, phase1_steps, first 16
# hex digits of the sha256 of the comma-joined per_packet_latency).  A random
# perm is a Fisher-Yates shuffle on SplitMix64(seed), and the two-phase runs
# draw sigma from the same stream after it.
PINNED_RUNS = [
    (('greedy', 2, 'bitrev', 0), (2, (0, 2), 1, None, 'f979eca8fa6b2049')),
    (('greedy', 2, 'random', 1), (1, (0, 2), 1, None, 'd82c48a43f941242')),
    (('greedy', 2, 'random', 2), (1, (2, 2), 1, None, 'e66e15b928fde993')),
    (('greedy', 3, 'bitrev', 0), (2, (0, 2), 1, None, 'cac782f1744abd3d')),
    (('greedy', 3, 'random', 1), (2, (3, 3), 1, None, '993a888e09d0ce41')),
    (('greedy', 3, 'random', 2), (3, (0, 3), 1, None, 'e3b82a78f185465d')),
    (('greedy', 4, 'bitrev', 0), (4, (0, 4), 1, None, '4746e2c5f3db2234')),
    (('greedy', 4, 'random', 1), (4, (1, 4), 1, None, '8972d5c23d941cc5')),
    (('greedy', 4, 'random', 2), (3, (3, 4), 1, None, '3fdb4ff7705327b3')),
    (('greedy', 5, 'bitrev', 0), (4, (0, 4), 1, None, '9891e3bf921267fb')),
    (('greedy', 5, 'random', 1), (4, (7, 7), 2, None, '4bc517fc82273579')),
    (('greedy', 5, 'random', 2), (5, (10, 6), 2, None, '2393bbd5fc701f67')),
    (('greedy', 6, 'bitrev', 0), (7, (0, 8), 2, None, '37b589d064f0d6d4')),
    (('greedy', 6, 'random', 1), (6, (28, 8), 2, None, '0f397f8de0e94e91')),
    (('greedy', 6, 'random', 2), (5, (5, 6), 2, None, 'a41f0da3cc881e08')),
    (('greedy', 7, 'bitrev', 0), (7, (0, 8), 2, None, 'ad543ed7b7c989d7')),
    (('greedy', 7, 'random', 1), (7, (79, 8), 2, None, '6c38256917a47b4f')),
    (('greedy', 7, 'random', 2), (7, (123, 8), 2, None, 'e69820b9faa0adfa')),
    (('greedy', 8, 'bitrev', 0), (12, (0, 16), 4, None, '1fd507f99810d728')),
    (('greedy', 8, 'random', 1), (8, (31, 8), 2, None, '112a35ae29a57fa6')),
    (('greedy', 8, 'random', 2), (8, (128, 9), 3, None, 'e0748b861c8919a6')),
    (('valiant', 2, 'bitrev', 1), (2, (1, 3), 1, 1, 'dfd550d724e9a897')),
    (('valiant', 2, 'bitrev', 2), (4, (2, 4), 1, 2, '1f46d1634666843b')),
    (('valiant', 2, 'random', 1), (3, (0, 3), 1, 2, '9294fe362835ae59')),
    (('valiant', 2, 'random', 2), (1, (2, 2), 1, 1, 'e66e15b928fde993')),
    (('valiant', 3, 'bitrev', 1), (5, (1, 5), 2, 3, 'f4461cfa0f4ad72a')),
    (('valiant', 3, 'bitrev', 2), (4, (3, 6), 1, 3, '024515fa7b6b990f')),
    (('valiant', 3, 'random', 1), (4, (0, 5), 1, 3, '2b5b183bcc22022f')),
    (('valiant', 3, 'random', 2), (5, (3, 6), 2, 2, '984741c525d19eda')),
    (('valiant', 4, 'bitrev', 1), (9, (1, 7), 2, 5, 'e7246c16181561fa')),
    (('valiant', 4, 'bitrev', 2), (7, (3, 9), 2, 4, '02438c660fad7bcd')),
    (('valiant', 4, 'random', 1), (6, (7, 8), 2, 4, 'f9f78e6af7f3b7bf')),
    (('valiant', 4, 'random', 2), (7, (2, 7), 2, 4, '9afac83d280614cc')),
    (('valiant', 5, 'bitrev', 1), (9, (9, 8), 2, 5, '3745303b1c184c4f')),
    (('valiant', 5, 'bitrev', 2), (10, (18, 9), 2, 5, '464886f28a952e28')),
    (('valiant', 5, 'random', 1), (9, (4, 8), 2, 5, 'c220521320b59d24')),
    (('valiant', 5, 'random', 2), (8, (7, 9), 2, 5, '4bdcf11e5c16c75c')),
    (('valiant', 6, 'bitrev', 1), (11, (60, 12), 2, 6, '32de824d811c8892')),
    (('valiant', 6, 'bitrev', 2), (11, (17, 12), 2, 6, '526a246a5bfdcd49')),
    (('valiant', 6, 'random', 1), (9, (18, 12), 2, 6, 'e30bf31aa4f1443e')),
    (('valiant', 6, 'random', 2), (11, (11, 10), 2, 6, 'c634ee4551141fff')),
    (('valiant', 7, 'bitrev', 1), (12, (98, 14), 2, 7, '4deb083f7303882d')),
    (('valiant', 7, 'bitrev', 2), (13, (33, 16), 2, 7, 'b1c5e9235fc43ed4')),
    (('valiant', 7, 'random', 1), (12, (70, 13), 3, 7, 'dbac01d384a911d2')),
    (('valiant', 7, 'random', 2), (14, (8, 14), 3, 8, 'ef581d8fad682432')),
    (('valiant', 8, 'bitrev', 1), (14, (128, 18), 2, 7, 'a4e22c944810a2e1')),
    (('valiant', 8, 'bitrev', 2), (14, (209, 19), 2, 8, 'd0684787998e3c39')),
    (('valiant', 8, 'random', 1), (13, (28, 15), 3, 8, '0329dbeab263dc07')),
    (('valiant', 8, 'random', 2), (14, (173, 15), 2, 9, 'b7d2ab4dd45c2f14')),
    (('barrier', 2, 'bitrev', 1), (3, (0, 2), 1, 1, 'a1861170d62aacc1')),
    (('barrier', 2, 'bitrev', 2), (4, (2, 3), 1, 2, '1b24e48d867b1b9f')),
    (('barrier', 2, 'random', 1), (4, (0, 2), 1, 2, '4766b082e628d318')),
    (('barrier', 2, 'random', 2), (1, (2, 2), 1, 1, 'd82c48a43f941242')),
    (('barrier', 3, 'bitrev', 1), (4, (1, 4), 1, 2, '7af1bbf77dd74836')),
    (('barrier', 3, 'bitrev', 2), (6, (2, 4), 2, 3, '52194433c0c12f8c')),
    (('barrier', 3, 'random', 1), (5, (0, 4), 1, 3, '0dc99955a282f862')),
    (('barrier', 3, 'random', 2), (5, (3, 5), 2, 2, '07934717191cdab5')),
    (('barrier', 4, 'bitrev', 1), (9, (0, 5), 2, 4, 'fd1d710147d209ac')),
    (('barrier', 4, 'bitrev', 2), (8, (3, 6), 2, 4, 'b4241352c2ce40ba')),
    (('barrier', 4, 'random', 1), (9, (7, 6), 2, 4, '8f3f5a48a3183c81')),
    (('barrier', 4, 'random', 2), (7, (2, 6), 2, 3, '01f59c817fdf4ef1')),
    (('barrier', 5, 'bitrev', 1), (10, (4, 6), 2, 5, 'a9c5bc0e0397416a')),
    (('barrier', 5, 'bitrev', 2), (10, (2, 7), 2, 5, '419395c78e0af405')),
    (('barrier', 5, 'random', 1), (11, (4, 6), 3, 5, '1c5b2d138b7a3b0b')),
    (('barrier', 5, 'random', 2), (10, (23, 7), 2, 5, '5f0a5c9faec4edd7')),
    (('barrier', 6, 'bitrev', 1), (12, (60, 8), 2, 6, '2b4cb937f64bcb15')),
    (('barrier', 6, 'bitrev', 2), (12, (51, 8), 3, 6, '4d4202152288ad03')),
    (('barrier', 6, 'random', 1), (11, (27, 9), 2, 5, 'ae4b9a5710b6f2c2')),
    (('barrier', 6, 'random', 2), (12, (11, 8), 3, 6, '0cc96be58e60b6e4')),
    (('barrier', 7, 'bitrev', 1), (13, (1, 9), 3, 6, '8a9afef2f1e74d2d')),
    (('barrier', 7, 'bitrev', 2), (13, (33, 11), 3, 6, 'e68652d5ca2da052')),
    (('barrier', 7, 'random', 1), (15, (107, 10), 3, 7, 'eb058027df3b000e')),
    (('barrier', 7, 'random', 2), (15, (98, 10), 4, 8, '237befa4b0d18bd0')),
    (('barrier', 8, 'bitrev', 1), (17, (112, 10), 4, 7, 'fdeb1bcc8279cb93')),
    (('barrier', 8, 'bitrev', 2), (17, (140, 12), 3, 8, '47a89dd497d126e8')),
    (('barrier', 8, 'random', 1), (16, (29, 10), 4, 8, 'f68828f5bfd782d4')),
    (('barrier', 8, 'random', 2), (16, (87, 10), 4, 8, '17068125a9dc2176')),
]


# Larger runs, pinned the same way from the queue-based simulator that
# reference_run below writes out.
PINNED_LARGE_RUNS = [
    (('greedy', 12, 'bitrev', 0), (38, (0, 64), 16, None, '1a6dcc97e39a8ea2')),
    (('valiant', 11, 'random', 3), (19, (1520, 23), 3, 12, '69ba80861de6f2ae')),
    (('barrier', 10, 'bitrev', 4), (20, (485, 16), 5, 9, '1c95d951ebcca813')),
]


@pytest.mark.parametrize("case, expected", PINNED_RUNS + PINNED_LARGE_RUNS,
                         ids=["-".join(map(str, case))
                              for case, _ in PINNED_RUNS + PINNED_LARGE_RUNS])
def test_pinned_run_stats(case, expected):
    algo, d, kind, seed = case
    rng = SplitMix64(seed)
    perm = bit_reversal(d) if kind == "bitrev" else shuffled(d, rng)
    if algo == "greedy":
        stats = run_oblivious(d, perm)
    else:
        stats = run_valiant(d, perm, rng, phase_barrier=algo == "barrier")
    latency = ",".join(map(str, stats.per_packet_latency)).encode()
    assert (stats.total_steps, stats.max_vertex_throughput, stats.max_queue_depth,
            stats.phase1_steps, hashlib.sha256(latency).hexdigest()[:16]) == expected


# A reference model: the queueing simulator written the direct way, over
# fixed leading-bit routes, with one FIFO list per directed edge popped every
# step, arrivals queued in packet-id order, and vertex throughput counted
# from the set of vertices on each route.  run_oblivious and run_valiant
# must give exactly its RunStats.

def reference_simulate(routes, checkpoints=None):
    delivered = [0] * len(routes)
    position = [0] * len(routes)
    queues = {}
    max_depth = 0
    checkpoint_step = 0
    step = 0
    arrivals = range(len(routes))
    while True:
        for j in arrivals:
            route = routes[j]
            here = position[j]
            if checkpoints is not None and here == checkpoints[j]:
                checkpoint_step = step
            if here == len(route) - 1:
                delivered[j] = step
            else:
                queue = queues.setdefault((route[here], route[here + 1]), [])
                queue.append(j)
                max_depth = max(max_depth, len(queue))
        if not queues:
            return step, tuple(delivered), max_depth, checkpoint_step
        step += 1
        arrivals = []
        for edge, queue in list(queues.items()):
            arrivals.append(queue.pop(0))
            if not queue:
                del queues[edge]
        for j in arrivals:
            position[j] += 1
        arrivals.sort()


def reference_busiest(N, routes):
    counts = [0] * N
    for route in routes:
        for v in set(route):
            counts[v] += 1
    most = max(counts)
    return counts.index(most), most


def reference_run(d, perm, sigma=None, phase_barrier=False):
    N = 1 << d
    if sigma is None:
        routes = [leading_bit_path(j, perm[j]) for j in range(N)]
        steps, latency, depth, _ = reference_simulate(routes)
        return RunStats(steps, latency, reference_busiest(N, routes), depth)
    phase1 = [leading_bit_path(j, sigma[j]) for j in range(N)]
    phase2 = [leading_bit_path(sigma[j], perm[j]) for j in range(N)]
    if phase_barrier:
        s1, _, depth1, _ = reference_simulate(phase1)
        s2, lat2, depth2, _ = reference_simulate(phase2)
        busiest = max(reference_busiest(N, phase1), reference_busiest(N, phase2),
                      key=lambda t: (t[1], -t[0]))
        return RunStats(s1 + s2, tuple(a + s1 for a in lat2), busiest,
                        max(depth1, depth2), phase1_steps=s1)
    routes = [a + b[1:] for a, b in zip(phase1, phase2)]
    steps, latency, depth, phase1_steps = reference_simulate(
        routes, checkpoints=[len(a) - 1 for a in phase1])
    return RunStats(steps, latency, reference_busiest(N, routes), depth,
                    phase1_steps=phase1_steps)


def sigmas(d, perm, rng):
    """Intermediate vertices to test against: drawn (with collisions), the
    identity, the destination itself, and everything piled on two vertices."""
    N = 1 << d
    drawn = [rng.uniform_below(N) for _ in range(N)]
    assert len(set(drawn)) < N or d == 1  # collisions
    return {"drawn": drawn, "identity": list(range(N)), "perm": list(perm),
            "two": [j % 2 * (N - 1) for j in range(N)]}


@pytest.mark.parametrize("d", range(1, 10))
def test_runs_match_reference_model(d):
    for seed in range(3):
        rng = SplitMix64(1000 * d + seed)
        for perm in (shuffled(d, rng), bit_reversal(d)):
            assert run_oblivious(d, perm) == reference_run(d, perm)
            for name, sigma in sigmas(d, perm, rng).items():
                for barrier in (False, True):
                    assert (run_valiant(d, perm, rng, sigma=sigma, phase_barrier=barrier)
                            == reference_run(d, perm, sigma, barrier)), (seed, name, barrier)


def test_second_leg_reentering_first_leg_counts_packet_once():
    # Packet 0 walks 0 -> 2 -> 3 to sigma = 3, then back to 2, its
    # destination: it passes vertex 2 on both legs but counts there once.
    # Packet 2 goes 2 -> 0 directly; packets 1 and 3 stay put.
    perm, sigma = [2, 1, 0, 3], [3, 1, 2, 3]
    stats = run_valiant(2, perm, SplitMix64(0), sigma=sigma)
    assert stats == RunStats(3, (3, 0, 1, 0), (0, 2), 1, phase1_steps=2)
    assert stats == reference_run(2, perm, sigma)
