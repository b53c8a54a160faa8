"""Frozen copy of ``Poly.__call__`` and ``taylor_shift`` as they were
before they ran on integer forms: every Horner step and every step of the
synthetic division is a ``FieldElem`` product and sum.  The differential
test in ``test_poly.py`` checks the integer kernel against it; do not
optimise this file."""

from __future__ import annotations


def evaluate(f, x):
    acc = f.field.zero()
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def taylor_shift(f, alpha):
    b = list(f.coeffs)
    d = len(b) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            b[j] = b[j] + alpha * b[j + 1]
    return tuple(b) if b else (f.field.zero(),)
