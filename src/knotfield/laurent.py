"""Exact integer-coefficient Laurent polynomials in one variable."""

from __future__ import annotations

from .errors import KnotfieldError


class LaurentPolynomial:
    """Map from integer exponent to nonzero integer coefficient.

    The variable is anonymous; callers track whether exponents count powers
    of A or of t^(1/2).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        cleaned = {}
        if coeffs:
            for e, c in coeffs.items():
                if c != 0:
                    cleaned[int(e)] = int(c)
        self.coeffs = cleaned

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def monomial(cls, exp, coeff=1):
        return cls({exp: coeff})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial({0: other})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial({0: other})
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial({0: other})
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial({0: other})
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise KnotfieldError("negative powers of a polynomial are not defined here")
        out = LaurentPolynomial.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def mirror(self):
        """Substitute x -> x^-1 (negate every exponent)."""
        return LaurentPolynomial({-e: c for e, c in self.coeffs.items()})

    def scale_exponents(self, k):
        """Substitute x -> x^k for integer k (or divide exponents for 1/k)."""
        return LaurentPolynomial({e * k: c for e, c in self.coeffs.items()})

    def evaluate(self, x):
        """Evaluate at a real (or complex) x; x=0 rejected with negative exponents."""
        if x == 0 and any(e < 0 for e in self.coeffs):
            raise KnotfieldError("cannot evaluate at 0: negative exponents present")
        return sum(c * x ** e for e, c in sorted(self.coeffs.items()))

    def terms(self):
        return sorted(self.coeffs.items())

    def to_json(self, variable):
        return {"variable": variable,
                "terms": [{"exp": e, "coeff": c} for e, c in self.terms()]}

    @classmethod
    def from_json(cls, obj):
        return cls({t["exp"]: t["coeff"] for t in obj["terms"]})

    def pretty(self, var="x"):
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in self.terms():
            if e == 0:
                parts.append(f"{c}")
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                sgn = "-" if c < 0 else ""
                parts.append(f"{sgn}{mag}{var}^{e}")
        out = " + ".join(parts).replace("+ -", "- ")
        return out

    def __repr__(self):
        return f"LaurentPolynomial({self.pretty()})"
