"""Synchronous hypercube permutation-routing simulator.

Vertices of the d-cube are integers 0..2^d-1; an edge joins labels differing
in one bit.  Every vertex starts with one packet, packet j bound for
perm[j].  Greedy ("leading bit") routing repeatedly flips the highest-order
bit where the current and destination labels differ.  Each directed edge
carries at most one packet per time step; waiting packets sit in one FIFO
queue per directed edge, and simultaneous arrivals enter a queue in packet-id
order, which makes every run bit-for-bit reproducible.  No route or queue is
stored: each packet computes its next hop as it arrives, and each queue is
kept as the step at which its edge is next free, which gives a joining
packet's leave step at once.  ``_simulate`` walks each packet's route hop by
hop.

Greedy routing is fast on average but has bad permutations: under
bit-reversal, every packet whose source has at least d/2 trailing zeros is
funnelled through vertex 0.  Two-phase randomized routing (route to a random
intermediate vertex first, then to the real destination) removes all such
hot spots with high probability at the cost of roughly doubling the path
length.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from .rng import SplitMix64

# Largest cube dimension: a run holds 2**d packets and d * 2**d edges.
MAX_DIMENSION = 16
# Most trials in one `route sim` call: its document keeps a row per trial.
MAX_TRIALS = 1000


class RunStats(NamedTuple):
    total_steps: int
    per_packet_latency: tuple
    max_vertex_throughput: tuple  # (vertex, distinct packets through it)
    max_queue_depth: int
    phase1_steps: int | None = None  # two-phase runs only


def check_dimension(d: int) -> None:
    """Refuse a cube dimension outside [1, MAX_DIMENSION]."""
    if not 1 <= d <= MAX_DIMENSION:
        raise ValueError("d must be in [1, %d]" % MAX_DIMENSION)


def bit_reversal(d: int) -> list[int]:
    """The permutation sending each d-bit label to its reversal."""
    check_dimension(d)
    out = [0]
    for _ in range(d):
        # Each pass gives every label a new top bit, which its reversal
        # takes as its new lowest bit.
        out = [2 * r for r in out] + [2 * r + 1 for r in out]
    return out


def _check_permutation(d: int, perm) -> list[int]:
    check_dimension(d)
    N = 1 << d
    perm = list(perm)
    if sorted(perm) != list(range(N)):
        raise ValueError("perm must be a bijection on [0, %d)" % N)
    return perm


def _simulate(N: int, d: int, start: Sequence[int], goal: list[int],
              then: list[int] | None = None) -> RunStats:
    """Run the synchronous queueing model, each packet walking greedily.

    Packet j starts at start[j] and walks its leading-bit path to goal[j],
    then, when ``then`` is given, on to then[j].  Returns the run's
    ``RunStats``; its ``phase1_steps`` is the step at which the last packet
    reached goal[j] when ``then`` is given, else None.

    No queue is stored.  A queue pops its head every step while it holds
    anything, so a packet that joins edge e at step t leaves at
    max(t + 1, free[e]), and e can next pop one step after that; the queue
    it joined held leave - t packets, itself included.  Arrivals are taken
    step by step in packet-id order, so FIFO order and id tie-breaks are
    those of a step-by-step queue model.  The edge from u flipping bit b is
    keyed u*d + b.  The busiest vertex is the one most packets pass, lowest
    on a tie; a packet counts once at a vertex both its legs pass.
    """
    n = len(start)
    here = list(start)
    target = list(goal)
    second = [False] * n  # packet j is on its leg toward then[j]
    passes = [0] * N
    latency = [0] * n
    free = [0] * (N * d)  # edge key -> first step it can pop a newcomer
    later: dict[int, list[int]] = {}  # step -> packets arriving then, past the next step
    depth = goal_step = step = 0
    arrivals = list(range(n))
    while True:
        soon = step + 1
        nxt = []  # packets arriving at step soon
        for j in arrivals:
            u = here[j]
            t = target[j]
            if second[j]:
                # The first leg passed w iff w has goal[j]'s bits from the
                # lowest bit where w and start[j] differ upward: x is 0 or
                # w ^ goal[j] lies wholly below x's lowest set bit.
                x = u ^ start[j]
                if x and (u ^ goal[j]) >= x & -x:
                    passes[u] += 1
            else:
                passes[u] += 1
                if u == t:
                    goal_step = step
                    if then is not None:
                        second[j] = True
                        t = target[j] = then[j]
            x = u ^ t
            if not x:
                latency[j] = step
                continue
            b = x.bit_length() - 1
            here[j] = u ^ (1 << b)
            e = u * d + b
            leave = free[e]
            if leave <= soon:  # no packet ahead of j on e
                free[e] = soon + 1
                nxt.append(j)
            else:
                free[e] = leave + 1
                depth = max(depth, leave - step)
                later.setdefault(leave, []).append(j)
        if soon in later:
            nxt += later.pop(soon)
            nxt.sort()
        elif not nxt:
            if step:  # a packet that moved met a queue of at least itself
                depth = max(depth, 1)
            busiest = max(passes)
            return RunStats(step, tuple(latency), (passes.index(busiest), busiest), depth,
                            goal_step if then is not None else None)
        step = soon
        arrivals = nxt


def run_oblivious(d: int, perm) -> RunStats:
    """Route permutation ``perm`` greedily; returns timing and congestion."""
    perm = _check_permutation(d, perm)
    N = 1 << d
    return _simulate(N, d, range(N), perm)


def run_valiant(d: int, perm, rng: SplitMix64, sigma: list[int] | None = None,
                phase_barrier: bool = False) -> RunStats:
    """Two-phase randomized routing: j -> sigma(j) -> perm(j), both greedy.

    sigma is drawn as N independent uniform vertex choices (collisions
    allowed); pass it explicitly to pin a mapping in tests.  By default each
    packet starts its second phase as soon as it reaches sigma(j); with
    ``phase_barrier`` every packet instead waits for the slowest phase-1
    packet, which is the easier variant to analyse but a little slower.
    """
    perm = _check_permutation(d, perm)
    N = 1 << d
    if sigma is None:
        vertex = rng.sampler(N)
        sigma = [vertex() for _ in range(N)]
    elif len(sigma) != N or any(not 0 <= v < N for v in sigma):
        raise ValueError("sigma must assign a vertex to each of %d packets" % N)

    if not phase_barrier:
        return _simulate(N, d, range(N), sigma, perm)
    one = _simulate(N, d, range(N), sigma)
    two = _simulate(N, d, sigma, perm)
    s1 = one.total_steps
    # Throughput maxima are per-phase; report the larger hot spot.
    throughput = max(one.max_vertex_throughput, two.max_vertex_throughput,
                     key=lambda t: (t[1], -t[0]))
    return RunStats(s1 + two.total_steps, tuple(a + s1 for a in two.per_packet_latency),
                    throughput, max(one.max_queue_depth, two.max_queue_depth), phase1_steps=s1)
