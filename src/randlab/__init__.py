"""randlab: a workbench of classic randomized algorithms.

Modules: rng (seedable SplitMix64 streams), natnum (the 2-power split of
n - 1, number parsing), primality (probabilistic primality testing),
fingerprint (remote document comparison by residues mod random primes),
factor (Pollard p-1, and elliptic-curve stage 1, whose success event is
gcd(Z, N) of an inversion-free Jacobian point after each prime power), mphf
(ordered minimal perfect hashing via random acyclic graphs), route
(hypercube permutation-routing simulator), and ramsey (annealing search for
clique/independent-set-free graphs).

Everything randomized takes an explicit generator, so any result can be
replayed bit-for-bit from its seed.

Expected failures are typed: ValueError for bad input, OSError for I/O
(fingerprint.TransportError among them), SearchExhausted for a Las Vegas
search that ran out; any other RuntimeError is a broken invariant.
"""

__version__ = "0.6.0"

from .rng import SplitMix64, derive_stream


class SearchExhausted(RuntimeError):
    """A Las Vegas search ran out with no answer: not a wrong one, not a bug."""


__all__ = ["SearchExhausted", "SplitMix64", "derive_stream", "__version__"]
