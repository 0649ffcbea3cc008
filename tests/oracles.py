"""Exact oracles for the numerical engines.

A float is a dyadic rational, so ``Fraction(x)`` holds it exactly, and
polynomial arithmetic over such copies of the engine's own coefficients has
no rounding at all. `RootCounter` counts the distinct real roots of a
polynomial in an open interval with a Sturm sequence (Sturm, 1829; see
Basu, Pollack & Roy, "Algorithms in Real Algebraic Geometry", ch. 2), a
count that is exact whatever the conditioning of the roots. Polynomials are
coefficient lists, low order first.
"""

from fractions import Fraction


def _trim(p):
    """Drop zero top coefficients in place; the zero polynomial is ``[]``."""
    while p and p[-1] == 0:
        p.pop()
    return p


def _unit_lead(p):
    """``p`` divided by its leading coefficient's absolute value: a positive
    factor, so every sign the Sturm count reads is kept."""
    lead = abs(p[-1])
    return [coef / lead for coef in p]


def _remainder(p, q):
    """Remainder of ``p`` divided by ``q``, exactly."""
    p = list(p)
    while len(p) >= len(q):
        factor, shift = p[-1] / q[-1], len(p) - len(q)
        for j, coef in enumerate(q):
            p[shift + j] -= factor * coef
        p.pop()
        _trim(p)
    return p


def sturm_sequence(p):
    """The Sturm sequence ``p, p', -rem(p, p'), ...`` of the nonzero
    polynomial ``p`` (fractions), each member scaled by a positive factor.
    It ends at ``gcd(p, p')``, so a multiple root counts once."""
    seq = [_unit_lead(p)]
    derivative = _trim([j * coef for j, coef in enumerate(p)][1:])
    if derivative:
        seq.append(_unit_lead(derivative))
    while len(seq[-1]) > 1:
        rest = _remainder(seq[-2], seq[-1])
        if not rest:
            break
        seq.append([-coef for coef in _unit_lead(rest)])
    return seq


def _value(p, x):
    out = Fraction(0)
    for coef in reversed(p):
        out = out * x + coef
    return out


def _deflate(p, x):
    """``p`` with every factor ``(X - x)`` divided out (synthetic division)."""
    while len(p) > 1 and _value(p, x) == 0:
        quotient = [p[-1]]
        for coef in reversed(p[1:-1]):
            quotient.append(coef + x * quotient[-1])
        p = quotient[::-1]
    return p


def _variations(seq, x):
    signs = [value > 0 for value in (_value(p, x) for p in seq) if value != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


class RootCounter:
    """Exact counts of the distinct real roots of one polynomial with float
    coefficients ``coefs``, taken as fractions; its Sturm sequence is built
    once and serves every interval."""

    def __init__(self, coefs):
        self.poly = _trim([Fraction(coef) for coef in coefs])
        if not self.poly:
            raise ValueError("the zero polynomial has a root everywhere")
        self.sequence = sturm_sequence(self.poly)

    def count(self, lo, hi):
        """Distinct real roots in the open interval ``(lo, hi)``, ``lo <
        hi``; the ends are floats or fractions, taken exactly. An end that
        is itself a root is divided out first, so it is never counted."""
        lo, hi = Fraction(lo), Fraction(hi)
        seq = self.sequence
        if _value(self.poly, lo) == 0 or _value(self.poly, hi) == 0:
            seq = sturm_sequence(_deflate(_deflate(self.poly, lo), hi))
        return _variations(seq, lo) - _variations(seq, hi)
