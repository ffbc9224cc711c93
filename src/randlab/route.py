"""Synchronous hypercube permutation-routing simulator.

Vertices of the d-cube are integers 0..2^d-1; an edge joins labels differing
in one bit.  Every vertex starts with one packet, packet j bound for
perm[j].  Greedy ("leading bit") routing repeatedly flips the highest-order
bit where the current and destination labels differ.  Each directed edge
carries at most one packet per time step; waiting packets sit in one FIFO
queue per directed edge, and simultaneous arrivals enter a queue in packet-id
order, which makes every run bit-for-bit reproducible.

Greedy routing is fast on average but has bad permutations: under
bit-reversal, every packet whose source has at least d/2 trailing zeros is
funnelled through vertex 0.  Two-phase randomized routing (route to a random
intermediate vertex first, then to the real destination) removes all such
hot spots with high probability at the cost of roughly doubling the path
length.
"""

from __future__ import annotations

from dataclasses import dataclass
from .rng import SplitMix64

# Largest cube dimension: a run holds 2**d packets and their routes.
MAX_DIMENSION = 16
# Most trials in one `route sim` call: its document keeps a row per trial.
MAX_TRIALS = 1000


@dataclass(frozen=True)
class RunStats:
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
    out = []
    for v in range(1 << d):
        r = 0
        for i in range(d):
            r |= ((v >> i) & 1) << (d - 1 - i)
        out.append(r)
    return out


def leading_bit_path(src: int, dst: int) -> list[int]:
    """Vertices visited when always flipping the highest differing bit."""
    if src < 0 or dst < 0:
        raise ValueError("vertex labels must be non-negative")
    path = [src]
    cur = src
    while cur != dst:
        bit = (cur ^ dst).bit_length() - 1
        cur ^= 1 << bit
        path.append(cur)
    return path


def _check_permutation(d: int, perm) -> list[int]:
    check_dimension(d)
    N = 1 << d
    perm = list(perm)
    if sorted(perm) != list(range(N)):
        raise ValueError("perm must be a bijection on [0, %d)" % N)
    return perm


def _simulate(N: int, d: int, routes: list[list[int]], debug: bool = False,
              checkpoints: list[int] | None = None):
    """Run the synchronous queueing model over fixed per-packet routes.

    Returns (total_steps, latencies, throughput (vertex, count), max queue
    depth, latest checkpoint-crossing step).  ``checkpoints`` gives a route
    position per packet whose arrival step is tracked (phase boundaries).
    Aborts if delivery exceeds N*d steps, which the leading-bit discipline
    never approaches.
    """
    delivered = [0] * len(routes)
    position = [0] * len(routes)
    through = [set() for _ in range(N)]
    queues: dict[tuple[int, int], list[int]] = {}
    max_depth = 0
    checkpoint_step = 0
    for j, route in enumerate(routes):  # ascending id: initial tie-break order
        through[route[0]].add(j)
        if len(route) > 1:
            queues.setdefault((route[0], route[1]), []).append(j)
    if queues:
        max_depth = max(len(q) for q in queues.values())
    step = 0
    while queues:
        step += 1
        if step > N * d:
            raise RuntimeError("internal error: no delivery after %d steps" % (N * d))
        arrivals = []
        used_edges = set()
        for edge, queue in list(queues.items()):
            packet = queue.pop(0)
            if debug:
                if edge in used_edges:
                    raise RuntimeError("internal error: edge %r carried two packets" % (edge,))
                used_edges.add(edge)
            if not queue:
                del queues[edge]
            arrivals.append(packet)
        arrivals.sort()
        for j in arrivals:
            route = routes[j]
            position[j] += 1
            here = route[position[j]]
            through[here].add(j)
            if checkpoints is not None and position[j] == checkpoints[j]:
                checkpoint_step = step
            if position[j] == len(route) - 1:
                delivered[j] = step
            else:
                queues.setdefault((here, route[position[j] + 1]), []).append(j)
        if queues:
            depth = max(len(q) for q in queues.values())
            if depth > max_depth:
                max_depth = depth
    counts = [len(s) for s in through]
    busiest = max(range(N), key=lambda v: (counts[v], -v))
    return step, tuple(delivered), (busiest, counts[busiest]), max_depth, checkpoint_step


def run_oblivious(d: int, perm, debug: bool = False) -> RunStats:
    """Route permutation ``perm`` greedily; returns timing and congestion."""
    perm = _check_permutation(d, perm)
    N = 1 << d
    routes = [leading_bit_path(j, perm[j]) for j in range(N)]
    steps, latency, throughput, depth, _ = _simulate(N, d, routes, debug)
    return RunStats(steps, latency, throughput, depth)


def run_valiant(d: int, perm, rng: SplitMix64, sigma: list[int] | None = None,
                phase_barrier: bool = False, debug: bool = False) -> RunStats:
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
        sigma = [rng.uniform_below(N) for _ in range(N)]
    elif len(sigma) != N or any(not 0 <= v < N for v in sigma):
        raise ValueError("sigma must assign a vertex to each of %d packets" % N)

    if phase_barrier:
        phase1 = [leading_bit_path(j, sigma[j]) for j in range(N)]
        s1, lat1, thr1, depth1, _ = _simulate(N, d, phase1, debug)
        phase2 = [leading_bit_path(sigma[j], perm[j]) for j in range(N)]
        s2, lat2, thr2, depth2, _ = _simulate(N, d, phase2, debug)
        latency = tuple(a + s1 for a in lat2) if s1 else lat2
        # Throughput maxima are per-phase; report the larger hot spot.
        throughput = max(thr1, thr2, key=lambda t: (t[1], -t[0]))
        return RunStats(s1 + s2, latency, throughput, max(depth1, depth2), phase1_steps=s1)

    routes = []
    boundaries = []
    for j in range(N):
        first = leading_bit_path(j, sigma[j])
        routes.append(first + leading_bit_path(sigma[j], perm[j])[1:])
        boundaries.append(len(first) - 1)
    steps, latency, throughput, depth, phase1_steps = _simulate(
        N, d, routes, debug, checkpoints=boundaries
    )
    return RunStats(steps, latency, throughput, depth, phase1_steps=phase1_steps)
