import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wakimoto.scalars import MAX_CHI_INDEX
from wakimoto import (
    ChiParseError,
    ChiSeries,
    ell_of,
    format_rational,
    parse_chi,
    parse_rational,
    pole_order,
)

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=60
)


class TestParseRational:
    @pytest.mark.parametrize(
        "text, value",
        [
            ("0", Fraction(0)),
            ("7", Fraction(7)),
            ("-3", Fraction(-3)),
            ("+5", Fraction(5)),
            ("2/3", Fraction(2, 3)),
            ("-10/4", Fraction(-5, 2)),
            ("  9/3 ", Fraction(3)),
        ],
    )
    def test_accepts_integer_and_fraction_literals(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("bad", ["", "x", "1.5", "1/2/3", "1/-2", "2 / 3", "--1"])
    def test_rejects_non_rational_literals(self, bad):
        with pytest.raises(ChiParseError) as err:
            parse_rational(bad, field="coeffs[3].value")
        assert "coeffs[3].value" in str(err.value)

    def test_rejects_zero_denominator(self):
        with pytest.raises(ChiParseError, match="zero denominator"):
            parse_rational("1/0")

    def test_rejects_non_string(self):
        with pytest.raises(ChiParseError, match="expected a string"):
            parse_rational(1.5)  # type: ignore[arg-type]

    @given(rationals)
    def test_round_trips_exactly(self, q):
        assert parse_rational(format_rational(q)) == q

    def test_format_is_lowest_terms(self):
        assert format_rational(Fraction(4, 8)) == "1/2"
        assert format_rational(Fraction(-6, 3)) == "-2"

    def test_format_refuses_more_than_4300_digits(self):
        # Python's default int -> str cap, held whatever the interpreter's
        longest = 10**4300 - 1
        assert format_rational(-longest) == "-" + "9" * 4300
        assert format_rational(Fraction(1, longest)) == "1/" + "9" * 4300
        for q in (10**4300, -(10**4300), Fraction(3, 10**4300)):
            with pytest.raises(ChiParseError, match="^output: "):
                format_rational(q)


class TestChiSeries:
    def test_drops_zero_coefficients(self):
        chi = ChiSeries({2: Fraction(0), 1: Fraction(1, 3)})
        assert chi.support == (1,)
        assert chi.coeff(2) == 0
        assert chi.coeff(1) == Fraction(1, 3)

    def test_equality_and_hash_by_support(self):
        a = ChiSeries({1: Fraction(2), 0: Fraction(0)})
        b = ChiSeries([(1, 2)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != ChiSeries({1: Fraction(2), 0: Fraction(1)})

    def test_rejects_duplicate_and_non_integer_indices(self):
        with pytest.raises(ChiParseError, match="duplicate"):
            ChiSeries([(1, 1), (1, 2)])
        with pytest.raises(ChiParseError, match="integer"):
            ChiSeries([(True, 1)])
        with pytest.raises(ChiParseError, match="integer"):
            ChiSeries([("1", 1)])

    def test_zero_series(self):
        assert ChiSeries().is_zero()
        assert ChiSeries({3: 0}).is_zero()
        assert not ChiSeries({0: 1}).is_zero()

    def test_common_denominator(self):
        chi = ChiSeries({2: Fraction(1, 6), 0: Fraction(-3, 4), -5: 7})
        assert chi.denominator == 12
        assert dict(chi.numerators) == {-5: 84, 0: -9, 2: 2}
        for m, num in chi.numerators.items():
            assert Fraction(num, chi.denominator) == chi.coeff(m)
        assert ChiSeries().denominator == 1 and dict(ChiSeries().numerators) == {}

    def test_json_obj_sorted_by_index(self):
        chi = ChiSeries({1: Fraction(1, 2), -2: Fraction(3), 0: Fraction(-1)})
        assert chi.to_json_obj() == {
            "coeffs": [
                {"m": -2, "value": "3"},
                {"m": 0, "value": "-1"},
                {"m": 1, "value": "1/2"},
            ]
        }


class TestPoleAndEll:
    @pytest.mark.parametrize(
        "coeffs, p",
        [
            ({}, 0),
            ({0: 2, -5: 1}, 0),
            ({1: 1}, 1),
            ({3: Fraction(1, 7), 1: 2, -1: 4}, 3),
        ],
    )
    def test_pole_order(self, coeffs, p):
        assert pole_order(ChiSeries(coeffs)) == p

    @pytest.mark.parametrize(
        "coeffs, ell",
        [
            ({}, -1),
            ({0: 1}, 0),
            ({0: 2}, 1),
            ({0: 4, -3: Fraction(5, 2)}, 3),
            ({0: -3}, -4),
            ({0: Fraction(1, 2)}, None),
            ({1: 1, 0: 2}, None),
            ({2: Fraction(-1, 3)}, None),
        ],
    )
    def test_ell_of(self, coeffs, ell):
        assert ell_of(ChiSeries(coeffs)) == ell


class TestParseChi:
    def test_parses_document_text(self):
        doc = '{"coeffs": [{"m": 1, "value": "2"}, {"m": -1, "value": "-3/4"}]}'
        chi = parse_chi(doc)
        assert chi == ChiSeries({1: Fraction(2), -1: Fraction(-3, 4)})

    def test_parses_decoded_mapping(self):
        chi = parse_chi({"coeffs": [{"m": 0, "value": "5/5"}]})
        assert chi == ChiSeries({0: 1})

    def test_empty_coeffs_is_zero_series(self):
        assert parse_chi({"coeffs": []}).is_zero()

    @pytest.mark.parametrize(
        "doc, fragment",
        [
            ("{not json", "malformed JSON"),
            ("[]", "document"),
            ('{"coeffs": 3}', "coeffs:"),
            ('{"coeffs": [5]}', "coeffs[0]:"),
            ('{"coeffs": [{"value": "1"}]}', "coeffs[0].m: missing"),
            ('{"coeffs": [{"m": "x", "value": "1"}]}', "coeffs[0].m"),
            ('{"coeffs": [{"m": 1}]}', "coeffs[0].value: missing"),
            ('{"coeffs": [{"m": 1, "value": "bogus"}]}', "coeffs[0].value"),
            ('{"coeffs": [{"m": 1, "value": "1/0"}]}', "coeffs[0].value"),
            (
                '{"coeffs": [{"m": 1, "value": "1"}, {"m": 1, "value": "2"}]}',
                "coeffs[1].m: duplicate",
            ),
            ('{"coeffs": [{"m": 1001, "value": "1"}]}', "coeffs[0].m: index 1001 exceeds"),
            (
                '{"coeffs": [{"m": 0, "value": "2"}, {"m": -1000000000, "value": "1"}]}',
                "coeffs[1].m: index -1000000000 exceeds",
            ),
        ],
    )
    def test_errors_name_the_offending_field(self, doc, fragment):
        with pytest.raises(ChiParseError) as err:
            parse_chi(doc)
        assert fragment in str(err.value)

    def test_index_cap_admits_its_bound(self):
        assert MAX_CHI_INDEX >= 1000
        doc = {"coeffs": [{"m": -MAX_CHI_INDEX, "value": "1"}, {"m": MAX_CHI_INDEX, "value": "2"}]}
        assert parse_chi(doc).support == (-MAX_CHI_INDEX, MAX_CHI_INDEX)
        doc["coeffs"][1]["m"] = MAX_CHI_INDEX + 1
        with pytest.raises(ChiParseError, match=r"coeffs\[1\]\.m"):
            parse_chi(doc)

    @given(
        st.dictionaries(
            st.integers(min_value=-6, max_value=6), rationals, max_size=6
        )
    )
    def test_json_round_trip(self, coeffs):
        chi = ChiSeries(coeffs)
        again = parse_chi(json.dumps(chi.to_json_obj()))
        assert again == chi
        assert again.to_json_obj() == chi.to_json_obj()
