"""Exact-rational rendering helpers.

All report formats carry rationals twice: as a canonical "num/den" string
(or bare integer when the denominator is 1) and as a fixed 4-place decimal.
The decimal is display-only; rounding is half-away-from-zero, done in
integer arithmetic so no float ever enters a report.
"""

from fractions import Fraction

DECIMAL_PLACES = 4


def rat_str(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def dec_str(q: Fraction) -> str:
    q = Fraction(q)
    scale = 10 ** DECIMAL_PLACES
    units = (abs(q.numerator) * scale + q.denominator // 2) // q.denominator
    sign = "-" if q < 0 and units else ""
    return f"{sign}{units // scale}.{units % scale:0{DECIMAL_PLACES}d}"


def rat_json(q: Fraction) -> dict:
    q = Fraction(q)
    return {"num": q.numerator, "den": q.denominator, "decimal": dec_str(q)}
