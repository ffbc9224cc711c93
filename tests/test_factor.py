import math

import pytest

from randlab import factor
from randlab.factor import (
    _add,
    _double,
    _multiply,
    _prime_powers,
    ecm_stage1,
    is_perfect_power,
    pollard_pm1,
    smooth_exponent,
)
from randlab.rng import SplitMix64


def small_primes(limit):
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    i = 2
    while i * i < limit:
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
        i += 1
    return [i for i in range(limit) if flags[i]]


def multiplicative_order(base, p):
    order = 1
    value = base % p
    while value != 1:
        value = value * base % p
        order += 1
    return order


# Affine reference group law over a prime p: points are (x, y) pairs and
# None is the point at infinity.
def enumerate_curve_points(p, a, b):
    pts = [None]
    for x in range(p):
        rhs = (x * x * x + a * x + b) % p
        for y in range(p):
            if y * y % p == rhs:
                pts.append((x, y))
    return pts


def reference_add(P, Q, a, p):
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P == Q:
        slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def jacobian(P, z, p):
    """Affine P as Jacobian (x z^2, y z^3, z), so Z need not be 1."""
    x, y = P
    return x * z * z % p, y * z * z * z % p, z


def affine(J, p):
    """Normalise Jacobian J to Z = 1; None when Z = 0 mod p."""
    X, Y, Z = J
    if Z % p == 0:
        return None
    zi = pow(Z, -1, p)
    return X * zi * zi % p, Y * zi * zi * zi % p


def nonsingular_curves(primes):
    for p in primes:
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b * b) % p:
                    yield p, a, b


def test_smooth_exponent_small():
    assert _prime_powers(10) == [8, 9, 5, 7]
    assert smooth_exponent(5) == 60  # 2^2 * 3 * 5
    assert smooth_exponent(2) == 2
    assert smooth_exponent(10) == 2520
    with pytest.raises(ValueError):
        smooth_exponent(1)


def test_is_perfect_power():
    assert is_perfect_power(4)
    assert is_perfect_power(27)
    assert is_perfect_power(36)
    assert is_perfect_power(2**30)
    assert is_perfect_power(1373**3)
    for n in (2, 3, 6, 15, 187, 2**2048 + 1):
        assert not is_perfect_power(n)


def test_pollard_pm1_examples():
    out = pollard_pm1(187, 5)
    assert out.divisor == 11
    assert out.trials == 1  # base 2 suffices
    # F5: every prime factor has ord_2 = 64, so base 2 collapses and the
    # next base separates them.
    out = pollard_pm1(4294967297, 128)
    assert out.divisor == 641
    assert out.trials == 2


def test_pollard_pm1_exhausted_when_bound_too_small():
    # 2813 = 29 * 97: 29-1 = 4*7, 97-1 = 32*3; bound 3 misses both orders.
    out = pollard_pm1(2813, 3)
    assert out.divisor is None


def test_pollard_pm1_validates_input():
    with pytest.raises(ValueError):
        pollard_pm1(188, 5)  # even
    with pytest.raises(ValueError):
        pollard_pm1(3, 5)  # too small
    with pytest.raises(ValueError):
        pollard_pm1(97, 5)  # prime
    with pytest.raises(ValueError):
        pollard_pm1(121, 5)  # perfect power
    with pytest.raises(ValueError):
        pollard_pm1(187, 1)  # bound too small


def test_pollard_pm1_success_predictor_exhaustive():
    # For every odd semiprime p*q < 10^4: if ord_p(2) divides the smooth
    # exponent while ord_q(2) does not, base 2 must find p (and vice versa).
    bound = 20
    M = smooth_exponent(bound)
    primes = [p for p in small_primes(100) if p % 2 == 1]
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            N = p * q
            if N >= 10**4:
                break
            p_hits = M % multiplicative_order(2, p) == 0
            q_hits = M % multiplicative_order(2, q) == 0
            out = pollard_pm1(N, bound)
            if p_hits and not q_hits:
                assert out.divisor is not None and out.divisor % p == 0 and out.divisor % q != 0
            elif q_hits and not p_hits:
                assert out.divisor is not None and out.divisor % q == 0 and out.divisor % p != 0
            if out.divisor is not None:
                assert 1 < out.divisor < N and N % out.divisor == 0


def test_add_and_double_match_affine_reference():
    # Over a prime modulus, normalising Z to 1 must give the affine sum,
    # and Z = 0 exactly where the affine sum is infinity: P + (-P), and 2P
    # for a 2-torsion point (y = 0).  Inputs carry Z = 2 and Z = 3.
    for p, a, b in nonsingular_curves((5, 7, 11)):
        pts = enumerate_curve_points(p, a, b)[1:]
        for P in pts:
            assert affine(_double(jacobian(P, 2, p), a, p), p) == reference_add(P, P, a, p)
            for Q in pts:
                if Q != P:
                    got = _add(jacobian(P, 2, p), jacobian(Q, 3, p), p)
                    assert affine(got, p) == reference_add(P, Q, a, p)


def test_curve_add_identity_and_inverse():
    # P + (-P) has Z = 0 mod N, in any scaling of either point; the identity
    # Z = 0 absorbs, so later sums and doubles keep Z = 0.
    N, a = 187, 3
    P = (5, 11, 1)
    neg = (5, N - 11, 1)
    assert _add(P, neg, N)[2] == 0
    assert _add(jacobian((5, 11), 2, N), jacobian((5, N - 11), 3, N), N)[2] == 0
    identity = _add(P, neg, N)
    assert _add(identity, P, N)[2] == 0
    assert _add(P, identity, N)[2] == 0
    assert _double(identity, a, N)[2] == 0


def test_curve_add_two_torsion_doubles_to_infinity():
    # y = 0 points are their own inverse: doubling gives Z = 0, and so does
    # adding the point to itself written with a different Z.
    P = (3, 0)
    assert _double(jacobian(P, 1, 11), 1, 11)[2] == 0
    assert _double(jacobian(P, 5, 11), 1, 11)[2] == 0
    assert _add(jacobian(P, 2, 11), jacobian(P, 3, 11), 11)[2] % 11 == 0


def test_curve_add_closure_against_enumeration():
    # Pseudo-group oracle: over a prime modulus the sum of any two points is
    # a point of the same curve (or infinity), whatever Z the inputs carry.
    for p, a, b in nonsingular_curves((5, 7)):
        pts = enumerate_curve_points(p, a, b)
        on_curve = set(pts)
        for P in pts[1:]:
            assert affine(_double(jacobian(P, 3, p), a, p), p) in on_curve
            for Q in pts[1:]:
                if Q != P:
                    got = _add(jacobian(P, 2, p), jacobian(Q, 4, p), p)
                    assert affine(got, p) in on_curve


def test_multiply_matches_affine_reference_up_to_the_point_order():
    # kP for k below the point's order is the affine multiple; Z = 0 first
    # at k = order, and that order divides the group size.  The chain
    # starts from a base point with Z != 1, as every prime power after the
    # first one does in ecm_stage1.
    for p, a, b in nonsingular_curves((5, 7, 11)):
        pts = enumerate_curve_points(p, a, b)
        size = len(pts)
        for P in pts[1:]:
            base = jacobian(P, 3, p)
            multiple = P
            for k in range(1, size + 1):
                got = _multiply(base, k, a, p)
                if multiple is None:
                    assert got[2] % p == 0
                    assert size % k == 0
                    break
                assert affine(got, p) == multiple
                multiple = reference_add(multiple, P, a, p)
            else:
                raise AssertionError("no multiple of %r vanished" % (P,))


def test_point_orders_divide_group_order_mod_7():
    # a = 1 curves mod 7; group orders land in the printed window (0.7, 11.3).
    # Repeated general addition walks the subgroup of P with Z growing, and
    # reaches Z = 0 at an order dividing the group size.
    p, a = 7, 1
    for b in range(p):
        if (4 * a**3 + 27 * b * b) % p == 0:
            continue
        pts = enumerate_curve_points(p, a, b)
        size = len(pts)
        assert p - 1 - 2 * math.sqrt(p) < size < p - 1 + 2 * math.sqrt(p)
        for P in pts[1:]:
            base = jacobian(P, 1, p)
            order = 2
            Q = _double(base, a, p)
            while Q[2] % p:
                Q = _add(Q, base, p)
                order += 1
            assert size % order == 0


def test_hasse_window_exhaustive():
    for p in (5, 7, 11, 13):
        lo = p - 1 - 2 * math.sqrt(p)
        hi = p + 1 + 2 * math.sqrt(p)
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b * b) % p == 0:
                    continue
                size = len(enumerate_curve_points(p, a, b))
                assert lo < size < hi


def test_ecm_small_semiprime():
    out = ecm_stage1(2761103, 100, 200, SplitMix64(7))  # 1373 * 2011
    assert out.divisor in (1373, 2011)


def test_ecm_tiny_case():
    out = ecm_stage1(187, 30, 50, SplitMix64(0))
    assert out.divisor in (11, 17)


def test_ecm_found_divisor_always_divides():
    rng = SplitMix64(99)
    for _ in range(10):
        p = 1009
        q = 2003
        out = ecm_stage1(p * q, 50, 300, rng)
        if out.divisor is not None:
            assert 1 < out.divisor < p * q
            assert (p * q) % out.divisor == 0


def test_ecm_modulus_beyond_64_bits():
    p, q = 2003, 2305843009213693951  # q = 2^61 - 1
    out = ecm_stage1(p * q, 1000, 200, SplitMix64(3))
    assert out.divisor == p


def test_ecm_deterministic_replay():
    a = ecm_stage1(2761103, 100, 200, SplitMix64(3))
    b = ecm_stage1(2761103, 100, 200, SplitMix64(3))
    assert a == b


def test_ecm_validates_input():
    with pytest.raises(ValueError):
        ecm_stage1(15, 10, 5, SplitMix64(0))  # divisible by 3
    with pytest.raises(ValueError):
        ecm_stage1(97, 10, 5, SplitMix64(0))  # prime
    with pytest.raises(ValueError):
        ecm_stage1(35, 1, 5, SplitMix64(0))  # b1 too small
    with pytest.raises(ValueError):
        ecm_stage1(35, 10, 0, SplitMix64(0))  # no curves


def test_targets_below_2_64_are_decided_exactly_with_no_generator(monkeypatch):
    # Below 2**64 the fixed bases settle N: no seeded rounds, no generator.
    monkeypatch.setattr(factor, "SplitMix64", None)
    for prime in (97, 4759123129, 2**61 - 1, 2**64 - 59):
        with pytest.raises(ValueError, match="nothing to factor"):
            pollard_pm1(prime, 5)
    # Strong pseudoprimes to 2, 7, 61 and to the first nine prime bases.
    for composite in (4759123141, 3825123056546413051):
        factor._check_target(composite, require_coprime_6=True)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="nothing to factor"):
        pollard_pm1(2**89 - 1, 5)  # from 2**64 up, the seeded rounds decide


def test_not_invertible_is_the_factoring_channel():
    # Adding points whose x agree mod one factor only gives a Z that is not
    # invertible mod N: gcd(Z, N) is that factor.
    N = 35  # 5 * 7
    # x-coordinates congruent mod 5 (both 1) but not mod N
    _, _, Z = _add((1, 2, 1), (21, 3, 1), N)
    assert math.gcd(Z, N) == 5
