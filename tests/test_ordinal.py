from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cep.ordinal import (
    BOT,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalParseError,
    TropicalWeight,
    ord_add,
    trop_oplus,
    trop_otimes,
)


def cnf_add_oracle(a: list[tuple[int, int]], b: list[tuple[int, int]]):
    # Textbook recurrence on term lists, written independently of ord_add:
    # adding a single term w^e*c to a drops a's tail below e, then either
    # merges with an exponent-e term or appends; a full sum folds terms of
    # b from the left.
    result = list(a)
    for exp, coeff in b:
        head = [t for t in result if t[0] > exp]
        same = [t for t in result if t[0] == exp]
        if same:
            head.append((exp, same[0][1] + coeff))
        else:
            head.append((exp, coeff))
        result = head
    return result


ordinals = st.lists(
    st.tuples(st.integers(0, 4), st.integers(1, 5)), max_size=4
).map(
    lambda ts: Ordinal(
        tuple(sorted({e: c for e, c in ts}.items(), reverse=True))
    )
)


class TestOrdAdd:
    def test_absorption(self):
        assert ord_add(ONE, OMEGA) == OMEGA

    def test_append(self):
        assert ord_add(OMEGA, ONE) == Ordinal(((1, 1), (0, 1)))

    def test_cnf_merge_against_oracle(self):
        # (w*2 + 3) + (w + 1) = w*3 + 1, frozen from the term-list oracle.
        a = Ordinal(((1, 2), (0, 3)))
        b = Ordinal(((1, 1), (0, 1)))
        expected = cnf_add_oracle(list(a.terms), list(b.terms))
        assert expected == [(1, 3), (0, 1)]
        assert ord_add(a, b) == Ordinal(tuple(expected))

    def test_not_commutative_witness(self):
        assert ord_add(ONE, OMEGA) != ord_add(OMEGA, ONE)

    @given(ordinals, ordinals)
    def test_matches_oracle(self, a, b):
        expected = Ordinal(tuple(cnf_add_oracle(list(a.terms), list(b.terms))))
        assert ord_add(a, b) == expected

    @given(ordinals, ordinals, ordinals)
    def test_associative(self, a, b, c):
        assert ord_add(ord_add(a, b), c) == ord_add(a, ord_add(b, c))

    @given(ordinals, ordinals, ordinals)
    def test_monotone(self, a, b, c):
        # Strict in the right argument, weak in the left.
        if b < c:
            assert ord_add(a, b) < ord_add(a, c)
            assert ord_add(b, a) <= ord_add(c, a)

    @given(ordinals)
    def test_zero_identity(self, a):
        assert ord_add(a, ZERO) == a
        assert ord_add(ZERO, a) == a


class TestOrder:
    def test_total_order_examples(self):
        chain = [
            ZERO,
            ONE,
            Ordinal.from_int(7),
            OMEGA,
            Ordinal(((1, 1), (0, 3))),
            Ordinal(((1, 2),)),
            Ordinal(((2, 1),)),
        ]
        for i, a in enumerate(chain):
            for j, b in enumerate(chain):
                assert (a < b) == (i < j)
                assert (a == b) == (i == j)

    @given(ordinals, ordinals)
    def test_totality(self, a, b):
        assert (a < b) + (a == b) + (b < a) == 1


class TestParseRender:
    @pytest.mark.parametrize(
        "text, terms",
        [
            ("0", ()),
            ("5", ((0, 5),)),
            ("w", ((1, 1),)),
            ("w*3", ((1, 3),)),
            ("w*2+3", ((1, 2), (0, 3))),
            ("w^2*3+w+1", ((2, 3), (1, 1), (0, 1))),
            ("w*1+0", ((1, 1),)),
        ],
    )
    def test_parse(self, text, terms):
        assert Ordinal.parse(text) == Ordinal(terms)

    def test_parse_int(self):
        assert Ordinal.parse(4) == Ordinal.from_int(4)

    @pytest.mark.parametrize(
        "bad", ["w^w", "-1", "3+w", "w+w", "", "x", "w^", 1.5, True, None, [1], "\u0663"]
    )
    def test_rejects(self, bad):
        with pytest.raises(OrdinalParseError):
            Ordinal.parse(bad)

    @given(ordinals)
    def test_round_trip(self, a):
        assert Ordinal.parse(str(a)) == a

    def test_rendering_fixed(self):
        assert str(Ordinal(((2, 3), (1, 1), (0, 4)))) == "w^2*3+w+4"
        assert str(ZERO) == "0"

    def test_finite(self):
        assert Ordinal.from_int(9).to_int() == 9
        assert ZERO.is_finite() and ZERO.to_int() == 0
        assert not OMEGA.is_finite()
        with pytest.raises(ValueError):
            OMEGA.to_int()


tropicals = st.one_of(st.just(BOT), ordinals.map(TropicalWeight))


class TestTropical:
    def test_otimes_reversed(self):
        assert trop_otimes(TropicalWeight(OMEGA), TropicalWeight(ONE)) == (
            TropicalWeight(OMEGA)
        )
        assert trop_otimes(TropicalWeight(ONE), TropicalWeight(OMEGA)) == (
            TropicalWeight(Ordinal(((1, 1), (0, 1))))
        )

    def test_bot_absorbs(self):
        assert trop_otimes(BOT, TropicalWeight.finite(5)) == BOT
        assert trop_otimes(TropicalWeight.finite(5), BOT) == BOT

    def test_oplus_examples(self):
        assert trop_oplus(TropicalWeight.finite(3), TropicalWeight(OMEGA)) == (
            TropicalWeight(OMEGA)
        )
        assert trop_oplus(BOT, TropicalWeight(ZERO)) == TropicalWeight(ZERO)
        assert trop_oplus(BOT, BOT) == BOT

    def test_bot_is_least(self):
        assert BOT < TropicalWeight(ZERO)
        assert not BOT < BOT

    def test_str(self):
        assert str(BOT) == "⊥"
        assert str(TropicalWeight(OMEGA)) == "w"

    @given(tropicals, tropicals, tropicals)
    @settings(max_examples=200)
    def test_semiring_laws(self, a, b, c):
        assert trop_oplus(a, b) == trop_oplus(b, a)
        assert trop_oplus(trop_oplus(a, b), c) == trop_oplus(a, trop_oplus(b, c))
        assert trop_otimes(trop_otimes(a, b), c) == trop_otimes(a, trop_otimes(b, c))
        assert trop_oplus(a, BOT) == a
        assert trop_otimes(a, TropicalWeight(ZERO)) == a
        assert trop_otimes(TropicalWeight(ZERO), a) == a
        # Distribution of the product over the max, on both sides.
        assert trop_otimes(a, trop_oplus(b, c)) == trop_oplus(
            trop_otimes(a, b), trop_otimes(a, c)
        )
        assert trop_otimes(trop_oplus(a, b), c) == trop_oplus(
            trop_otimes(a, c), trop_otimes(b, c)
        )
