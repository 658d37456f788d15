import json

import pytest
from hypothesis import given, strategies as st

from knotfield.errors import KnotfieldError
from knotfield.laurent import LaurentPolynomial

coeffs = st.dictionaries(st.integers(-10, 10), st.integers(-50, 50), max_size=6)


def test_basic_arithmetic():
    p = LaurentPolynomial({1: 1, -1: 1})
    q = LaurentPolynomial({0: 2})
    assert (p + q).coeffs == {1: 1, -1: 1, 0: 2}
    assert (p * q).coeffs == {1: 2, -1: 2}
    assert (p - p) == LaurentPolynomial.zero()
    assert p * LaurentPolynomial.one() == p


def test_monomial_and_mirror():
    m = LaurentPolynomial.monomial(-3, 2)
    assert m.coeffs == {-3: 2}
    assert m.mirror().coeffs == {3: 2}


def test_evaluate():
    p = LaurentPolynomial({2: 1, 0: -1, -2: 1})
    assert p.evaluate(2.0) == 4 - 1 + 0.25
    assert p.evaluate(-1.0) == 1.0


def test_json_roundtrip():
    # the form `mosaic jones` and `field verify` print: exponent keys ascending
    p = LaurentPolynomial({-2: 1, -8: -1, -6: 1})
    obj = p.to_json("t^(1/2)")
    assert json.dumps(obj) == '{"variable": "t^(1/2)", "terms": {"-8": -1, "-6": 1, "-2": 1}}'
    assert LaurentPolynomial({int(e): c for e, c in obj["terms"].items()}) == p


def test_negative_power_and_evaluation_at_zero_rejected():
    p = LaurentPolynomial({-1: 1, 1: 1})
    with pytest.raises(KnotfieldError, match="^negative powers of a polynomial are not defined here$"):
        p ** -1
    with pytest.raises(KnotfieldError, match="^cannot evaluate at 0: negative exponents present$"):
        p.evaluate(0)


def test_operands_are_polynomials_and_unhashable():
    one = LaurentPolynomial.one()
    assert one != 1
    with pytest.raises(TypeError):
        hash(one)


def test_pretty_readable():
    p = LaurentPolynomial({-8: -1, -6: 1, -2: 1})
    assert p.pretty("s") == "-s^-8 + s^-6 + s^-2"
    assert LaurentPolynomial.one().pretty("s") == "1"
    assert LaurentPolynomial.zero().pretty("s") == "0"
    assert repr(p) == "LaurentPolynomial(-x^-8 + x^-6 + x^-2)"


@given(coeffs, coeffs)
def test_mul_commutes(a, b):
    p, q = LaurentPolynomial(a), LaurentPolynomial(b)
    assert p * q == q * p


@given(coeffs, coeffs, coeffs)
def test_mul_distributes(a, b, c):
    p, q, r = LaurentPolynomial(a), LaurentPolynomial(b), LaurentPolynomial(c)
    assert p * (q + r) == p * q + p * r
