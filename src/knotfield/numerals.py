"""How numbers are spelled in text: one reader per kind, ASCII only."""


def read_int(s: str, signed: bool = True) -> int:
    """1 to 4,300 ASCII digits (int()'s limit; leading zeros allowed), after one '-' if signed."""
    digits = s[1:] if signed and s[:1] == "-" else s
    if not (digits.isascii() and digits.isdigit()) or len(digits) > 4300:
        raise ValueError(f"not an integer: {s!r}")
    return int(s)


def read_float(s: str, parse=float):
    """parse(s), float() by default, on ASCII text without '_'."""
    if not s.isascii() or "_" in s:
        raise ValueError(f"not a number: {s!r}")
    return parse(s)


read_int.__name__, read_float.__name__ = "int", "float"  # argparse's "invalid int value"
