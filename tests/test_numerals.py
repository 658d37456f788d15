"""The number grammar of text inputs: mosaic headers, field specs and CLI flags."""

import math

import pytest
from hypothesis import given, strategies as st

from knotfield.numerals import read_float, read_int


@given(st.integers(-10 ** 30, 10 ** 30))
def test_read_int_reads_what_str_writes(k):
    assert read_int(str(k)) == k
    if k >= 0:
        assert read_int(str(k), signed=False) == k


@pytest.mark.parametrize("text,value", [
    ("016", 16), ("0", 0), ("-0", 0), ("-5", -5), ("9" * 4300, int("9" * 4300)),
])
def test_read_int_accepts(text, value):
    assert read_int(text) == value


@pytest.mark.parametrize("text", [
    "", "-", "--5", "+5", "1_0", " 5", "5 ", "5.0", "٥", "５", "-٥",
    "1" * 4301, "-" + "1" * 4301,
])
def test_read_int_refuses(text):
    with pytest.raises(ValueError):
        read_int(text)


def test_unsigned_read_int_refuses_a_sign():
    with pytest.raises(ValueError):
        read_int("-5", signed=False)


@pytest.mark.parametrize("text,value", [
    ("0.5", 0.5), ("+0.5", 0.5), ("-1e3", -1000.0), (" 2.5e-1 ", 0.25), ("inf", math.inf),
])
def test_read_float_accepts(text, value):
    assert read_float(text) == value


@pytest.mark.parametrize("text", ["0_5", "1_0.5", "٠.٥", "０.5", "x", ""])
def test_read_float_refuses(text):
    with pytest.raises(ValueError):
        read_float(text)


def test_read_float_takes_complex_syntax_under_the_same_rule():
    assert read_float("-0.2-0.7j", complex) == complex(-0.2, -0.7)
    for text in ("1_0", "٥j"):
        with pytest.raises(ValueError):
            read_float(text, complex)


def test_readers_are_named_as_argparse_reports_them():
    # argparse prints "invalid <__name__> value: '...'" for a flag it cannot read
    assert (read_int.__name__, read_float.__name__) == ("int", "float")
