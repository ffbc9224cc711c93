import random

import pytest

from randlab.rng import SplitMix64, derive_stream

# First two outputs of the published recurrence for seed 0, cross-checked
# against two independent evaluations of the mixing steps.
SEED0_FIRST = 0xE220A8397B1DCDAF
SEED0_SECOND = 0x6E789E6AA1B965F4


def test_reference_outputs_seed0():
    rng = SplitMix64(0)
    assert rng.next_u64() == SEED0_FIRST
    assert rng.next_u64() == SEED0_SECOND


def test_determinism_first_1000_outputs():
    for seed in (0, 1, 42, 2**64 - 1):
        a = SplitMix64(seed)
        b = SplitMix64(seed)
        assert [a.next_u64() for _ in range(1000)] == [b.next_u64() for _ in range(1000)]


def test_clone_is_independent():
    a = SplitMix64(7)
    a.next_u64()
    b = a.clone()
    assert a.next_u64() == b.next_u64()
    a.next_u64()  # advancing one does not move the other
    assert a.state != b.state


def test_uniform_below_one_is_always_zero():
    rng = SplitMix64(3)
    assert all(rng.uniform_below(1) == 0 for _ in range(100))


def test_uniform_below_rejects_zero_bound():
    with pytest.raises(ValueError):
        SplitMix64(0).uniform_below(0)


def test_uniform_below_always_in_range():
    rng = SplitMix64(5)
    big = 2**64 - 1
    for _ in range(200):
        assert rng.uniform_below(big) < big


def test_uniform_below_die_frequencies_within_5_sigma():
    # 60000 rolls of a fair die: sigma = sqrt(60000 * (1/6)(5/6)) ~ 91
    rng = SplitMix64(12345)
    counts = [0] * 6
    for _ in range(60000):
        counts[rng.uniform_below(6)] += 1
    sigma = (60000 * (1 / 6) * (5 / 6)) ** 0.5
    for c in counts:
        assert abs(c - 10000) < 5 * sigma


def test_uniform_below_exact_uniformity_small_bounds():
    # Rejection sampling leaves every residue hit by the same number of
    # accepted 64-bit words; verify the acceptance-set counting for small n.
    for bound in (3, 5, 6, 7, 12):
        limit = (1 << 64) - ((1 << 64) % bound)
        per_value = limit // bound
        assert per_value * bound == limit  # each value equally many preimages


def test_uniform_natural_in_single_element():
    rng = SplitMix64(0)
    assert all(rng.uniform_natural_in(1, 3) == 2 for _ in range(50))


def test_uniform_natural_in_rejects_empty_interval():
    rng = SplitMix64(0)
    with pytest.raises(ValueError):
        rng.uniform_natural_in(5, 6)
    with pytest.raises(ValueError):
        rng.uniform_natural_in(5, 5)


def test_uniform_natural_in_strictly_inside_wide_interval():
    rng = SplitMix64(9)
    lo, hi = 10**9, 2 * 10**9
    for _ in range(10**4):
        v = rng.uniform_natural_in(lo, hi)
        assert lo < v < hi


def test_uniform_natural_in_mean_within_3_sigma():
    # Uniform on 1..9: mean 5, variance (9^2 - 1)/12; mean-of-n sigma shrinks.
    rng = SplitMix64(77)
    n = 10**5
    total = sum(rng.uniform_natural_in(0, 10) for _ in range(n))
    mean = total / n
    sigma_mean = ((9**2 - 1) / 12) ** 0.5 / n**0.5
    assert abs(mean - 5.0) < 3 * sigma_mean


def test_uniform_below_bound_beyond_64_bits():
    rng = SplitMix64(1)
    big = (1 << 80) + 12345
    vals = [rng.uniform_below(big) for _ in range(500)]
    assert all(0 <= v < big for v in vals)
    assert any(v >> 64 for v in vals)


def test_uniform_natural_in_handles_huge_bounds():
    rng = SplitMix64(4)
    lo = 10**300
    hi = lo + 10**4
    for _ in range(100):
        assert lo < rng.uniform_natural_in(lo, hi) < hi


def reference_modulo_below(rng, bound):
    """The single-word modulo rejection rule, written out as ``uniform_below``
    read up to 0.3.0, for 1 <= bound <= 2**64: re-draw words at or past the
    largest multiple of bound that fits in 2**64, return the rest mod bound."""
    limit = (1 << 64) - ((1 << 64) % bound)
    while True:
        r = rng.next_u64()
        if r < limit:
            return r % bound


@pytest.mark.parametrize("span", [1, 2, 3, 136, 10**9, 2**32 + 1, 2**63, 2**63 + 1,
                                  2**64 - 1, 2**64])
def test_spans_up_to_64_bits_keep_the_modulo_rule(span):
    for seed in range(20):
        ref, new, below = SplitMix64(seed), SplitMix64(seed), SplitMix64(seed)
        draw = new.sampler(span)
        for _ in range(5):
            expected = reference_modulo_below(ref, span)
            assert draw() == expected
            assert below.uniform_below(span) == expected
        assert new.state == ref.state == below.state


def reference_words_below(rng, span):
    """Uniform in [0, span) by modulo rejection on the fewest 64-bit words
    (at least one) whose range covers the span, low word first: the draw
    ``sampler`` must reproduce word for word."""
    words = 1
    while 2 ** (64 * words) < span:
        words += 1
    top = 2 ** (64 * words)
    while True:
        r = sum(rng.next_u64() << (64 * i) for i in range(words))
        if r < top - top % span:
            return r % span


# 2**127 + 1 re-draws about half its two-word tries.
@pytest.mark.parametrize("span", [1, 2, 3, 10**9, 2**63, 2**63 + 1, 2**64 - 1, 2**64,
                                  2**64 + 1, 2**127 + 1, 2**128 - 1, 2**128, 3**100])
def test_sampler_matches_reference_draw(span):
    for seed in range(20):
        ref, new, natural = SplitMix64(seed), SplitMix64(seed), SplitMix64(seed)
        draw = new.sampler(span)
        for _ in range(5):
            expected = reference_words_below(ref, span)
            assert draw() == expected
            assert natural.uniform_natural_in(-1, span) == expected
        assert new.state == ref.state == natural.state


def test_sampler_rejects_empty_span():
    with pytest.raises(ValueError):
        SplitMix64(0).sampler(0)


def test_derive_stream_deterministic_and_decorrelated():
    assert derive_stream(10, 3).next_u64() == derive_stream(10, 3).next_u64()
    seed_rng = SplitMix64(999)
    differing = 0
    for _ in range(1000):
        s = seed_rng.next_u64()
        if derive_stream(s, 0).next_u64() != derive_stream(s, 1).next_u64():
            differing += 1
    assert differing >= 999


def test_derive_stream_rejects_negative_index():
    with pytest.raises(ValueError):
        derive_stream(0, -1)


def test_uniform_natural_in_names_a_wide_bound_by_its_width():
    rng = SplitMix64(0)
    with pytest.raises(ValueError, match=r"^open interval \(a 16000-bit lo, 100\) is empty$"):
        rng.uniform_natural_in(int("f" * 4000, 16), 100)
    with pytest.raises(ValueError, match=r"^open interval \(a 16000-bit lo, a 16000-bit hi\) is empty$"):
        rng.uniform_natural_in(2**15999 + 1, 2**15999)
    with pytest.raises(ValueError, match=r"^open interval \(%d, %d\) is empty$" % (2**256, 2**256)):
        rng.uniform_natural_in(2**256, 2**256)
    assert rng.state == 0


# The generator computes its outputs a block of 64 at a time; these tests hold
# it to the scalar recurrence at every position, across refills and the 2**64
# wrap of the state.

GAMMA = 0x9E3779B97F4A7C15


def reference_outputs(seed, count):
    """The first ``count`` SplitMix64 outputs of ``seed``, by the scalar
    recurrence written out (no use of the class)."""
    state = seed % 2**64
    out = []
    for _ in range(count):
        state = (state + GAMMA) % 2**64
        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        out.append(z ^ (z >> 31))
    return out


# Seeds whose state is 0, 1 or 2**64 - 1 after k draws, for k on both sides
# of the first two refills.
NEAR_WRAP = [(d - k * GAMMA) % 2**64 for k in (1, 2, 63, 64, 65, 128) for d in (-1, 0, 1)]
SEEDS = [0, 1, 42, 2**63, 2**64 - 1] + NEAR_WRAP


def test_reference_recurrence_gives_the_published_outputs():
    assert reference_outputs(0, 2) == [SEED0_FIRST, SEED0_SECOND]


@pytest.mark.parametrize("seed", SEEDS)
def test_first_300_outputs_match_the_scalar_recurrence(seed):
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(300)] == reference_outputs(seed, 300)


@pytest.mark.parametrize("seed", SEEDS)
def test_state_counts_the_draws(seed):
    rng = SplitMix64(seed)
    for k in range(131):
        assert rng.state == (seed + k * GAMMA) % 2**64
        rng.next_u64()


def test_seed_is_taken_mod_2_64():
    assert SplitMix64(2**64 + 5).state == 5
    assert SplitMix64(-1).state == 2**64 - 1
    assert SplitMix64(-1).next_u64() == reference_outputs(2**64 - 1, 1)[0]


def test_state_is_read_only():
    rng = SplitMix64(3)
    with pytest.raises(AttributeError):
        rng.state = 4


@pytest.mark.parametrize("drawn", [63, 64, 65])
def test_clone_across_a_refill_continues_then_moves_independently(drawn):
    expected = reference_outputs(11, drawn + 150)
    a = SplitMix64(11)
    for _ in range(drawn):
        a.next_u64()
    b = a.clone()
    assert b.state == a.state
    assert [b.next_u64() for _ in range(100)] == expected[drawn:drawn + 100]
    assert [a.next_u64() for _ in range(100)] == expected[drawn:drawn + 100]
    for _ in range(7):
        a.next_u64()
    assert b.state == (11 + (drawn + 100) * GAMMA) % 2**64
    assert [b.next_u64() for _ in range(50)] == expected[drawn + 100:]


def test_two_word_draw_spanning_a_refill_matches_reference():
    rng, ref = SplitMix64(23), SplitMix64(23)
    for _ in range(63):
        rng.next_u64()
        ref.next_u64()
    draw = rng.sampler(2**128)
    expected = reference_words_below(ref, 2**128)
    assert draw() == expected
    low, high = reference_outputs(23, 65)[63:]
    assert expected == low | high << 64
    assert rng.state == ref.state == (23 + 65 * GAMMA) % 2**64


def test_derive_stream_is_one_output_of_the_mixed_seed():
    # derive_stream mixes its one word itself; a generator started at the
    # mixed seed gives the same word as its first output.
    gen = random.Random(20)
    for _ in range(20000):
        seed = gen.getrandbits(64)
        index = gen.choice((gen.getrandbits(16), gen.getrandbits(64), gen.getrandbits(80)))
        mixed = (seed ^ (index * GAMMA % 2**64)) % 2**64
        assert derive_stream(seed, index).state == SplitMix64(mixed).next_u64(), (seed, index)


def test_derive_stream_pinned_values():
    rng = derive_stream(10, 3)
    assert rng.state == 0x5B4B601073A7A84A
    assert [rng.next_u64(), rng.next_u64()] == [0xEEC362B9C564CA01, 0x0460E27699FEF9F2]
    rng = derive_stream(2**64 - 1, 0)
    assert rng.state == 0xE4D971771B652C20
    assert [rng.next_u64(), rng.next_u64()] == [0x5DC20AA7B2A27137, 0xBDA5668A01D7049C]
