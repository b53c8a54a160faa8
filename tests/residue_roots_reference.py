"""Frozen copy of the rational residue root search by divisor enumeration,
kept as an oracle.

Before rational roots were found by l-adic lifting, ``hqe.poly.residue_roots``
answered over laurent-q by trying every +-num/den with num | a_0 and
den | a_d.  It factored both coefficients by trial division up to
TRIAL_DIVISION_BOUND and accepted a larger cofactor only when it was a proven
prime, else raised PreconditionViolated.  This module keeps that search
unchanged so that tests can check that the lifting finds the same roots.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from hqe.errors import PreconditionViolated
from hqe.field import PRIME_BOUND, _is_prime

TRIAL_DIVISION_BOUND = 1 << 20


def residue_roots(coeffs):
    """The rational roots, sorted, of sum coeffs[i] x^i (Fractions)."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero residue polynomial")
    roots = set()
    while cs and cs[0] == 0:
        roots.add(Fraction(0))
        cs.pop(0)
    if len(cs) > 1:
        mult = lcm(*[c.denominator for c in cs])
        ics = [c.numerator * (mult // c.denominator) for c in cs]
        g = gcd(*ics)
        ics = [c // g for c in ics]
        dens = divisors(abs(ics[-1]))
        for num in divisors(abs(ics[0])):
            for den in dens:
                if gcd(num, den) != 1:
                    continue  # the same candidate in lower terms
                for n in (num, -num):
                    # den^d * g(n/den), by Horner on integers
                    acc, scale = ics[-1], 1
                    for c in reversed(ics[:-1]):
                        scale *= den
                        acc = acc * n + c * scale
                    if acc == 0:
                        roots.add(Fraction(n, den))
    return sorted(roots)


def divisors(n: int):
    """The positive divisors of n, sorted (none for 0), from n's factors.

    Trial division of the shrinking cofactor stops at TRIAL_DIVISION_BOUND,
    so every n below TRIAL_DIVISION_BOUND^2 = 2^40 factors; a larger
    cofactor is accepted only when ``field._is_prime`` proves it prime, else
    PreconditionViolated."""
    if n == 0:
        return []
    out = [1]
    d = 2
    while d * d <= n:
        if d > TRIAL_DIVISION_BOUND:
            if n >= PRIME_BOUND or not _is_prime(n):
                raise PreconditionViolated(
                    f"rational root search cannot factor a {n.bit_length()}-bit cofactor: "
                    f"no factor up to {TRIAL_DIVISION_BOUND} and not a proven prime"
                )
            break
        e = 0
        while not n % d:
            n //= d
            e += 1
        if e:
            out = [a * d**i for a in out for i in range(e + 1)]
        d += 1 if d == 2 else 2
    if n > 1:
        out += [a * n for a in out]
    return sorted(out)
