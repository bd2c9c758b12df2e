"""Tests for substitution combinatorics."""

from __future__ import annotations

import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspectral.errors import (
    BudgetExceeded,
    ConfigError,
    NotInLanguage,
    NotPrimitive,
)
from subspectral.substitution import (
    AperiodicityVerdict,
    Substitution,
    abelianization,
    as_word,
    char_poly,
    find_return_word,
    fixed_point_letter,
    fixed_point_prefix,
    format_word,
    is_aperiodic_heuristic,
    is_primitive,
    iterate_word,
    lengths_at,
    parse_word,
    perron_data,
    prefix_suffix_decomposition,
    substitution_matrix,
    tiling_length,
)

CUBIC = Substitution.from_images(["1222", "1"])
FIB = Substitution.from_images(["12", "1"])
TM = Substitution.from_images(["12", "21"])
SYMM = Substitution.from_images(["1112", "1222"])


# ---------------------------------------------------------------------------
# words and construction


def test_parse_format_roundtrip():
    assert parse_word("1222") == (1, 2, 2, 2)
    assert parse_word("1,12,3") == (1, 12, 3)
    assert parse_word("") == ()
    assert format_word((1, 2, 2, 2)) == "1222"
    assert format_word((1, 12, 3)) == "1,12,3"
    assert as_word([1, 2]) == (1, 2)


def test_substitution_validation():
    with pytest.raises(ConfigError):
        Substitution(2, ((1, 2), ()))  # empty image
    with pytest.raises(ConfigError):
        Substitution(2, ((1, 3), (1,)))  # letter out of range
    with pytest.raises(ConfigError):
        Substitution(0, ())
    with pytest.raises(ConfigError):
        Substitution.from_config({"alphabet": 2, "images": "1222"})
    z = Substitution.from_config({"alphabet": 2, "images": ["1222", "1"]})
    assert z == CUBIC


def test_apply_and_power():
    assert CUBIC.apply("12") == (1, 2, 2, 2, 1)
    z2 = CUBIC.power(2)
    assert z2.images[0] == iterate_word(CUBIC, 1, 2)
    assert z2.images[1] == (1, 2, 2, 2)


@pytest.mark.parametrize("word", [(0,), (-1, 2), (3,), (1, 2, 3), (2, -5)])
def test_apply_refuses_letters_outside_the_alphabet(word):
    bad = next(a for a in word if not 1 <= a <= 2)
    with pytest.raises(ValueError, match=f"^letter {bad} outside 1..2$"):
        CUBIC.apply(word)
    # the same message as iterate_word's
    with pytest.raises(ValueError, match=f"^letter {bad} outside 1..2$"):
        iterate_word(CUBIC, bad, 1)


def test_apply_accepts_the_empty_word_and_strings():
    assert CUBIC.apply(()) == ()
    assert CUBIC.apply("") == ()
    assert SYMM.apply("21") == (1, 2, 2, 2, 1, 1, 1, 2)


# ---------------------------------------------------------------------------
# matrix, primitivity


def test_substitution_matrix_examples():
    assert substitution_matrix(CUBIC) == ((1, 1), (3, 0))
    ident = Substitution.from_images(["1", "2", "3"])
    assert substitution_matrix(ident) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert substitution_matrix(FIB) == ((1, 1), (1, 0))
    assert substitution_matrix(SYMM) == ((3, 1), (1, 3))


def test_char_poly():
    assert char_poly(((1, 1), (3, 0))) == (-3, -1, 1)
    assert char_poly(((3, 1), (1, 3))) == (8, -6, 1)
    assert char_poly(((2,),)) == (-2, 1)


def test_is_primitive():
    assert is_primitive(((1, 1), (3, 0))) == (True, 2)
    assert is_primitive(((1, 0), (0, 1))) == (False, None)
    assert is_primitive(((0, 1), (1, 0))) == (False, None)
    assert is_primitive(((3, 1), (1, 3))) == (True, 1)
    assert is_primitive(((1, 1), (1, 0))) == (True, 2)


# ---------------------------------------------------------------------------
# expansion and lengths


def test_iterate_word_examples():
    assert iterate_word(CUBIC, 1, 2) == parse_word("1222111")
    assert iterate_word(CUBIC, 2, 0) == (2,)
    assert iterate_word(FIB, 1, 3) == parse_word("12112")


def test_iterate_word_budget():
    with pytest.raises(BudgetExceeded):
        iterate_word(CUBIC, 1, 40, max_len=10**5)


def test_lengths_at_examples():
    assert lengths_at(CUBIC, 2) == (7, 4)
    assert lengths_at(CUBIC, 0) == (1, 1)
    assert lengths_at(FIB, 5) == (13, 8)


@pytest.mark.parametrize("zeta", [CUBIC, FIB, TM, SYMM])
def test_lengths_match_expansion(zeta):
    n = 0
    while max(lengths_at(zeta, n)) <= 10**5:
        lens = lengths_at(zeta, n)
        for b in range(1, zeta.m + 1):
            assert lens[b - 1] == len(iterate_word(zeta, b, n, max_len=10**5))
        n += 1


# ---------------------------------------------------------------------------
# populations


def test_abelianization_examples():
    assert abelianization("1222", 2) == (1, 3)
    assert abelianization("", 2) == (0, 0)
    assert abelianization(iterate_word(CUBIC, 1, 2), 2) == (4, 3)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=2), max_size=40))
def test_abelianization_is_matrix_homomorphism(letters):
    for zeta in (CUBIC, FIB):
        S = substitution_matrix(zeta)
        before = abelianization(letters, 2)
        after = abelianization(zeta.apply(letters), 2)
        expected = tuple(
            sum(S[i][j] * before[j] for j in range(2)) for i in range(2)
        )
        assert after == expected


def test_tiling_length():
    assert tiling_length("12", (1, 1)) == 2
    assert tiling_length("1222", (2, 1)) == 5
    assert tiling_length("", (1, 1)) == 0
    exact = tiling_length("1222", (Fraction(1, 3), Fraction(1, 7)))
    assert exact == Fraction(1, 3) + 3 * Fraction(1, 7)
    with pytest.raises(ValueError):
        tiling_length("1", (0, 1))


# ---------------------------------------------------------------------------
# Perron-Frobenius data


@pytest.mark.parametrize("bits", [32, 64, 128, 256])
def test_perron_data_cubic(bits):
    pd = perron_data(((1, 1), (3, 0)), bits)
    lo, hi = pd.theta_interval
    assert hi - lo <= Fraction(1, 2**bits)
    # the dominant root of x^2 - x - 3 is (1 + sqrt(13))/2: check exactly
    # that lo <= (1+sqrt(13))/2 <= hi via (2x-1)^2 vs 13
    assert (2 * lo - 1) > 0 and (2 * lo - 1) ** 2 <= 13
    assert (2 * hi - 1) ** 2 >= 13
    assert abs(sum(pd.r_vec) - 1) < 1e-15
    assert abs(sum(r * l for r, l in zip(pd.r_vec, pd.l_vec)) - 1) < 1e-15
    assert pd.residual < mp.mpf(2) ** -(bits - 4)


def test_perron_data_symmetric():
    pd = perron_data(((3, 1), (1, 3)), 64)
    assert abs(pd.theta - 4) < 1e-18
    assert all(abs(r - 0.5) < 1e-18 for r in pd.r_vec)
    assert all(abs(l - 1) < 1e-18 for l in pd.l_vec)


def test_perron_data_one_letter():
    pd = perron_data(((2,),), 64)
    assert pd.theta == 2
    assert pd.r_vec == (1,) and pd.l_vec == (1,)


def test_perron_data_rejects_imprimitive():
    with pytest.raises(NotPrimitive):
        perron_data(((1, 0), (0, 1)), 64)


# ---------------------------------------------------------------------------
# return words


def test_return_word_cubic():
    rw = find_return_word(CUBIC)
    assert rw.v == (1,) and rw.c == 1 and rw.power == 3


def test_return_word_fibonacci():
    # "11" occurs in the Fibonacci word (e.g. inside 12112), so the shortest
    # return word for letter 1 is "1" itself; depth 4 is the first power whose
    # every letter expansion contains "11".
    rw = find_return_word(FIB)
    assert rw.v == (1,) and rw.c == 1 and rw.power == 4


@pytest.mark.parametrize("zeta", [CUBIC, FIB, TM, SYMM])
def test_return_word_contract(zeta):
    rw = find_return_word(zeta)
    assert rw.v[0] == rw.c
    assert rw.c not in rw.v[1:]
    vc = rw.v + (rw.c,)
    for b in range(1, zeta.m + 1):
        w = iterate_word(zeta, b, rw.power, max_len=10**7)
        assert any(
            w[i : i + len(vc)] == vc for i in range(len(w) - len(vc) + 1)
        )
    if rw.power > 1:
        # minimality of the witnessing power for this v: one letter short
        def contains(w):
            return any(
                w[i : i + len(vc)] == vc for i in range(len(w) - len(vc) + 1)
            )

        shallower = [
            iterate_word(zeta, b, rw.power - 1, max_len=10**7)
            for b in range(1, zeta.m + 1)
        ]
        assert not all(contains(w) for w in shallower)


# ---------------------------------------------------------------------------
# prefix-suffix numeration


def test_decomposition_single_letter():
    d = prefix_suffix_decomposition(CUBIC, "1")
    assert d.n == 0
    assert d.prefixes == ((),)
    assert d.suffixes == ((1,),)


def test_decomposition_exact_block():
    x7 = fixed_point_prefix(CUBIC, 7)
    d = prefix_suffix_decomposition(CUBIC, x7)
    assert d.n == 2
    assert d.prefixes == ((), (), ())
    assert d.suffixes == ((), (), (1,))
    assert d.reconstruct(CUBIC) == x7


def _assert_valid_decomposition(zeta, word):
    d = prefix_suffix_decomposition(zeta, word)
    assert d.reconstruct(zeta) == word
    prefixes_pool = {im[:k] for im in zeta.images for k in range(len(im))}
    suffixes_pool = {im[k:] for im in zeta.images for k in range(1, len(im) + 1)}
    pool = prefixes_pool | suffixes_pool
    for piece in d.prefixes + d.suffixes:
        assert piece in pool
    assert d.prefixes[d.n] != () or d.suffixes[d.n] != ()
    return d


@pytest.mark.parametrize("zeta", [CUBIC, FIB, TM])
def test_decomposition_fixed_point_dense(zeta):
    x = fixed_point_prefix(zeta, 700)
    for N in range(1, 601):
        _assert_valid_decomposition(zeta, x[:N])


def test_decomposition_fixed_point_sampled_to_1e4():
    x = fixed_point_prefix(CUBIC, 10**4)
    rng = random.Random(20260823)
    for N in rng.sample(range(601, 10**4 + 1), 200):
        _assert_valid_decomposition(CUBIC, x[:N])


def test_decomposition_interior_window():
    # windows anchored away from position 0 exercise the ragged left chain
    x = fixed_point_prefix(CUBIC, 400)
    for start in (1, 2, 3, 5, 11, 23):
        for N in (1, 2, 7, 19, 57):
            word = x[start : start + N]
            _assert_valid_decomposition(CUBIC, word)


def test_decomposition_rejects_foreign_word():
    with pytest.raises(NotInLanguage):
        prefix_suffix_decomposition(CUBIC, (2, 2, 2, 2))
    with pytest.raises(NotInLanguage):
        prefix_suffix_decomposition(CUBIC, (1, 3))


# ---------------------------------------------------------------------------
# fixed points and aperiodicity


def test_fixed_point_letter():
    assert fixed_point_letter(CUBIC) == (1, 1)
    swapped = Substitution.from_images(["21", "12"])
    a, k = fixed_point_letter(swapped)
    assert (a, k) == (1, 2)
    assert swapped.power(k).images[a - 1][0] == a


def test_fixed_point_prefix_is_invariant():
    x = fixed_point_prefix(CUBIC, 300)
    assert CUBIC.apply(x)[:300] == x
    assert x[:7] == parse_word("1222111")


def test_aperiodicity_verdicts():
    assert is_aperiodic_heuristic(Substitution.from_images(["11"])) == \
        AperiodicityVerdict("PeriodicWitness", 1)
    assert is_aperiodic_heuristic(Substitution.from_images(["12", "12"])) == \
        AperiodicityVerdict("PeriodicWitness", 2)
    assert is_aperiodic_heuristic(FIB).kind == "Aperiodic"
    assert is_aperiodic_heuristic(CUBIC).kind == "Aperiodic"
