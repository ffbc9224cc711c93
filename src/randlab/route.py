"""Synchronous hypercube permutation-routing simulator.

Vertices of the d-cube are integers 0..2^d-1; an edge joins labels differing
in one bit.  Every vertex starts with one packet, packet j bound for
perm[j].  Greedy ("leading bit") routing repeatedly flips the highest-order
bit where the current and destination labels differ.  Each directed edge
carries at most one packet per time step; waiting packets sit in one FIFO
queue per directed edge, and simultaneous arrivals enter a queue in packet-id
order, which makes every run bit-for-bit reproducible.  The step loop only
moves packets: which packets pass a vertex is fixed by the routes, so vertex
throughput is counted from them, and queue depth is read as packets join.

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


def _simulate(N: int, d: int, routes: list[list[int]],
              checkpoints: list[int] | None = None):
    """Run the synchronous queueing model over fixed per-packet routes.

    Returns (total_steps, latencies, max queue depth, latest
    checkpoint-crossing step).  ``checkpoints`` gives a route position per
    packet whose arrival step is tracked (phase boundaries).  A queue is
    longest right after its arrivals, since each step pops every queue
    before anything joins one, so depth is read as packets join.  Aborts if
    delivery exceeds N*d steps, which the leading-bit discipline never
    approaches.
    """
    delivered = [0] * len(routes)
    position = [0] * len(routes)
    queues: dict[tuple[int, int], list[int]] = {}
    max_depth = 0
    checkpoint_step = 0
    step = 0
    # Every packet "arrives" at its source at step 0.  Arrivals join their
    # next queue in ascending id order, which breaks ties reproducibly.
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
                if len(queue) > max_depth:
                    max_depth = len(queue)
        if not queues:
            return step, tuple(delivered), max_depth, checkpoint_step
        step += 1
        if step > N * d:
            raise RuntimeError("internal error: no delivery after %d steps" % (N * d))
        arrivals = []
        for edge, queue in list(queues.items()):
            j = queue.pop(0)
            if not queue:
                del queues[edge]
            position[j] += 1
            arrivals.append(j)
        arrivals.sort()


def _busiest(N: int, routes: list[list[int]]) -> tuple[int, int]:
    """(vertex, packets) for the vertex on the most routes, lowest on a tie;
    a packet counts once however often its route revisits a vertex."""
    counts = [0] * N
    for route in routes:
        for v in set(route):
            counts[v] += 1
    most = max(counts)
    return counts.index(most), most


def run_oblivious(d: int, perm) -> RunStats:
    """Route permutation ``perm`` greedily; returns timing and congestion."""
    perm = _check_permutation(d, perm)
    N = 1 << d
    routes = [leading_bit_path(j, perm[j]) for j in range(N)]
    steps, latency, depth, _ = _simulate(N, d, routes)
    return RunStats(steps, latency, _busiest(N, routes), depth)


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
    phase1 = [leading_bit_path(j, sigma[j]) for j in range(N)]
    phase2 = [leading_bit_path(sigma[j], perm[j]) for j in range(N)]

    if phase_barrier:
        s1, _, depth1, _ = _simulate(N, d, phase1)
        s2, lat2, depth2, _ = _simulate(N, d, phase2)
        # Throughput maxima are per-phase; report the larger hot spot.
        throughput = max(_busiest(N, phase1), _busiest(N, phase2), key=lambda t: (t[1], -t[0]))
        return RunStats(s1 + s2, tuple(a + s1 for a in lat2), throughput,
                        max(depth1, depth2), phase1_steps=s1)

    routes = [a + b[1:] for a, b in zip(phase1, phase2)]
    steps, latency, depth, phase1_steps = _simulate(
        N, d, routes, checkpoints=[len(a) - 1 for a in phase1])
    return RunStats(steps, latency, _busiest(N, routes), depth, phase1_steps=phase1_steps)
