import pytest

from randlab.natnum import decompose_two_power, parse_natural


def test_decompose_two_power_examples():
    assert decompose_two_power(561) == (4, 35)
    assert decompose_two_power(7) == (1, 3)
    assert decompose_two_power(17) == (4, 1)


def test_decompose_two_power_reconstructs_every_odd_n():
    for n in range(3, 4001, 2):
        k, q = decompose_two_power(n)
        assert k >= 1 and q % 2 == 1
        assert 2**k * q + 1 == n


def halving_decomposition(n):
    q, k = n - 1, 0
    while q % 2 == 0:
        q //= 2
        k += 1
    return k, q


def test_decompose_two_power_matches_halving_loop():
    for n in list(range(3, 10**5, 2)) + [2**64 + 1, 2**200 + 1]:
        assert decompose_two_power(n) == halving_decomposition(n), n


def test_decompose_two_power_rejects_bad_input():
    for n in (0, 1, 2, 4, 100):
        with pytest.raises(ValueError):
            decompose_two_power(n)


def test_string_round_trips():
    big = 2**2048 + 1
    assert parse_natural(str(big)) == big
    assert parse_natural(hex(big)) == big
    assert parse_natural("0xFF") == 255
    assert parse_natural("  123 ") == 123
    with pytest.raises(ValueError):
        parse_natural("-5")
    with pytest.raises(ValueError):
        parse_natural("zz")
