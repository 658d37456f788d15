"""Complex fields on C^2 whose zero sets, cut with a 3-sphere, are knots.

The library fields are polynomial (or semi-analytic in z, zbar) maps
f: C^2 -> C.  Restricted to the sphere |z|^2 + |w|^2 = r^2 their zero sets
give the unknot, torus knots and links, and the figure-eight knot.
Evaluators are vectorized over numpy arrays.

Integer powers are taken by repeated multiplication (`_ipow`), not `**`.
On a complex array numpy's `**` calls a complex power function for every
element, several times the cost of the two or three multiplies that
square-and-multiply needs for the small exponents here; the values
differ only by rounding.  On a Python complex, CPython's `**` itself
multiplies for integer exponents up to 100, in the same order, so scalar
values such as `field eval` prints keep their bits; above 100 `**` turns
to a polar formula, and the last digits can differ.  Where a power
overflows, `**` raises on a scalar; `_ipow` gives inf, as on arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import KnotfieldError, UndefinedPhaseError

PHASE_TOL = 1e-12


@dataclass(frozen=True)
class ComplexField:
    """A named evaluator C^2 -> C, cut with the sphere |z|^2 + |w|^2 = r^2."""

    name: str
    evaluator: object  # callable (z, w) -> complex, numpy-vectorized

    def __call__(self, z, w):
        return self.evaluator(z, w)


def _ipow(x, n):
    """x to the integer power n >= 1, by square-and-multiply from the low bit.

    These are the products of CPython's complex `**` for integer
    exponents up to 100, including its first, 1 * x, which can change the
    sign of a zero component; that product is skipped on arrays, where
    `**` never gave those bits.
    """
    result = None
    while True:
        if n & 1:
            if result is None:
                result = x if isinstance(x, np.ndarray) else 1 * x
            else:
                result = result * x
        n >>= 1
        if not n:
            return result
        x = x * x


def _milnor(p, q):
    def f(z, w):
        return _ipow(z, p) + _ipow(w, q)
    return f


def _rudolph_F(z, w):
    # w^3 - 3 zbar (1 + z + zbar) w - 2 (z + zbar)
    # The zbar (rather than |z|^2) coefficient keeps the cubic's
    # discriminant nonzero on small circles around z = 0, so the three
    # roots never collide and the zero set is an embedded curve.
    # Cut it with |z|^2 + |w|^2 = r^2 for r <= 0.5 only: at larger radii the
    # cut leaves the conical regime.
    zb = np.conjugate(z)
    return _ipow(w, 3) - 3 * zb * (1 + z + zb) * w - 2 * (z + zb)


def _rudolph_G(z, w):
    return _rudolph_F(_ipow(z, 2), w)


def field_library(name: str, params=()) -> ComplexField:
    """Look up a field by name.

    Names: "unknot"; "milnor" with params (p, q), p, q >= 2 (coprime for a
    knot; otherwise a torus link); "rudolph_F"; "rudolph_G" (its
    link is the figure-eight knot).
    """
    params = tuple(int(v) for v in params)
    if name == "unknot":
        return ComplexField("unknot", lambda z, w: z + 0 * w)
    if name == "milnor":
        if len(params) != 2:
            raise KnotfieldError("milnor requires two parameters (p, q)")
        p, q = params
        if p < 2 or q < 2:
            raise KnotfieldError(f"milnor exponents must be >= 2, got ({p}, {q})")
        return ComplexField(f"milnor({p},{q})", _milnor(p, q))
    if name == "rudolph_F":
        if params:
            raise KnotfieldError("rudolph_F takes no parameters")
        return ComplexField("rudolph_F", _rudolph_F)
    if name == "rudolph_G":
        if params:
            raise KnotfieldError("rudolph_G takes no parameters")
        return ComplexField("rudolph_G", _rudolph_G)
    raise KnotfieldError(f"unknown field {name!r}")


def parse_field_spec(spec: str) -> ComplexField:
    """Parse CLI-style "name" or "name:p,q" field selectors.  Each parameter
    is ASCII digits (leading zeros allowed): an empty item, a sign, an
    underscore or a non-ASCII digit raises."""
    name, colon, rest = spec.partition(":")
    params = rest.split(",") if colon else ()
    if not all(v.isascii() and v.isdigit() and len(v) <= 4300 for v in params):  # int()'s limit
        raise KnotfieldError(f"bad field parameters in {spec!r}: expected integers like 2,3")
    return field_library(name, params)


def phase(f: ComplexField, z, w) -> float:
    """Argument of f at a point, folded into [0, 2*pi).

    Undefined on (or numerically near) the nodal set: where |f| <= PHASE_TOL.
    """
    v = complex(f(z, w))
    if abs(v) <= PHASE_TOL:
        raise UndefinedPhaseError(
            f"|f| = {abs(v):.3e} <= {PHASE_TOL:.1e} at ({z}, {w}); "
            "phase undefined on the nodal set")
    return math.atan2(v.imag, v.real) % (2 * math.pi)
