import pytest
from hypothesis import given, strategies as st

from torfan.polyparse import ParseError, Polynomial, parse_polynomial


def test_parse_basic_three_terms():
    p = parse_polynomial("y^3 + x*z^2 - x^4")
    assert dict(p) == {(0, 3, 0): 1, (1, 0, 2): 1, (4, 0, 0): -1}


def test_parse_double_star_and_juxtaposition():
    p = parse_polynomial("z**3+y^3z+x^2y^2")
    assert dict(p) == {(0, 0, 3): 1, (0, 3, 1): 1, (2, 2, 0): 1}


def test_parse_trailing_equals_zero():
    p = parse_polynomial("x^7*z - x^2*y^2 - y^2*z = 0")
    assert p.support() == {(7, 0, 1), (2, 2, 0), (0, 2, 1)}


def test_parse_coefficients_combine():
    p = parse_polynomial("2*x + 3*x - x")
    assert dict(p) == {(1, 0, 0): 4}


def test_parse_leading_sign_and_constants():
    p = parse_polynomial("-x + 5")
    assert dict(p) == {(1, 0, 0): -1, (0, 0, 0): 5}


def test_cancellation_is_an_error():
    with pytest.raises(ParseError):
        parse_polynomial("x^2 - x^2")


def test_empty_input_is_an_error():
    with pytest.raises(ParseError):
        parse_polynomial("   ")


def test_unknown_variable_rejected_with_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + w^2")
    assert err.value.pos == 4


def test_negative_exponent_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("x^-2")


def test_zero_exponent_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("x^0 + y")


def test_malformed_operator_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("x + * y")


def test_support_function():
    p = parse_polynomial("y^3+x*z^2-x^4")
    assert p.support() == {(0, 3, 0), (1, 0, 2), (4, 0, 0)}
    assert parse_polynomial("x").support() == {(1, 0, 0)}


def test_support_b_odd_instance():
    p = parse_polynomial("x^7z-x^2y^2-y^2z")
    assert p.support() == {(7, 0, 1), (2, 2, 0), (0, 2, 1)}


def test_canonical_printing_graded_lex():
    p = parse_polynomial("y^3 + x*z^2 - x^4")
    assert str(p) == "-x^4+x*z^2+y^3"


def test_unit_coefficients_and_exponents_omitted():
    assert str(parse_polynomial("1*x^1*y^1 - 1*z^1")) == "x*y-z"


def test_print_parse_round_trip_examples():
    for text in ["z^3+y^3*z+x^2*y^2", "x^5*y-x^7*z+y^2*z", "-2*x+y-7"]:
        p = parse_polynomial(text)
        assert parse_polynomial(str(p)) == p


exponents = st.tuples(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
)
coefficients = st.integers(min_value=-9, max_value=9).filter(lambda c: c != 0)


@given(st.dictionaries(exponents, coefficients, min_size=1, max_size=6), st.data())
def test_round_trip_property(terms, data):
    """The printed form and a random valid spelling both parse back to p."""
    p = Polynomial.from_dict(terms)
    assert parse_polynomial(str(p)) == p
    assert len(p.support()) == len(p)

    def pick(*options):
        return data.draw(st.sampled_from(options))

    def blank():
        return pick("", " ", "  ", "\t")

    text = blank()
    for k, (exponent, coeff) in enumerate(p):
        factors = [
            name if power == 1 and pick(True, False)
            else name + blank() + pick("^", "**") + blank() + str(power)
            for name, power in zip("xyz", exponent)
            if power
        ]
        words = [str(abs(coeff))] if abs(coeff) != 1 or not factors or pick(True, False) else []
        body = ""
        for word in words + factors:
            body += (blank() + pick("*", "") + blank() if body else "") + word
        if coeff < 0:
            text += pick("-", "\u2212")
        elif k > 0 or pick(True, False):
            text += "+"
        text += blank() + body + blank()
    text += pick("", "= 0", "=0 ")
    assert parse_polynomial(text) == p


@pytest.mark.parametrize(
    "text, pos",
    [
        ("x + * y", 4),
        ("   ", 3),
        ("2*", 2),
        ("--x", 1),
        ("1 2", 2),
        ("x2", 1),
        ("x*2", 2),
        ("2*x*3", 4),
        ("x^", 2),
        ("x^-2", 2),
        ("x^0 + y", 2),
        ("y^3 + $", 6),
        ("x + w^2", 4),
        ("x^2²", 3),
        pytest.param("x^" + "9" * 5000, 2, id="x^9*5000-2"),
        pytest.param("9" * 5000 + "*x", 0, id="9*5000*x-0"),
    ],
)
def test_refusal_positions(text, pos):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text)
    assert err.value.pos == pos


def test_unicode_decimal_digits_are_integers():
    assert parse_polynomial("٣x+y") == parse_polynomial("3x+y")


@pytest.mark.parametrize(
    "terms",
    [{(1, 0, 0): 1.5, (0, 2, 0): 1}, {(1.7, 0, 0): 1}, {(1, 0, 0): "3"},
     {(1, 0, 0): True}, {(True, 0, 0): 1}, {(1, 0): 1}, {(0, -1, 0): 1}],
)
def test_from_dict_refuses_non_int_terms(terms):
    with pytest.raises(ValueError, match="bad term"):
        Polynomial.from_dict(terms)
