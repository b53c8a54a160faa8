"""Frozen copy of the full-precision Newton lift, kept as an oracle.

Before precision doubling, ``hqe.hensel.newton_lift`` carried every iterate
at the full length ``cap`` from the first step on, and divided exact values
at the whole working precision.  This module keeps that iteration unchanged
so that tests can check the current lift against it: the same root (digits
and ``rel``), the same separation and the same errors.
"""

from __future__ import annotations

from hqe.errors import PrecisionExhausted, PreconditionViolated
from hqe.hensel import _MAX_NEWTON_STEPS, LiftCertificate
from hqe.poly import Poly, derivative
from hqe.valq import INF, as_value


def newton_lift(P: Poly, a, delta=0, target=None) -> LiftCertificate:
    delta = as_value(delta)
    field = P.field
    for c in P.coeffs:
        if not (c.is_zero or c.val_lb() >= 0):
            raise PreconditionViolated("polynomial must have coefficients in O")
    if not (a.is_zero or a.val_lb() >= 0):
        raise PreconditionViolated("starting point must lie in O")
    dP = derivative(P)
    fa = P(a)
    if fa.is_zero:
        return LiftCertificate(a, 0, INF)
    va = fa.val_lb()
    va_d = dP(a)
    if va_d.is_zero or va_d.is_small:
        raise PreconditionViolated("P'(a) is (indistinguishable from) zero")
    vd = va_d.val()
    if not va > vd * 2 + delta:
        raise PreconditionViolated(
            f"henselian bound fails: v(P(a)) = {va} <= 2*{vd} + {delta}"
        )
    separation = va - vd
    vd_int = vd if vd != INF else 0
    if target is None:
        target = field.prec
    base_target = target
    target = max(target, field.prec + vd)
    margin = 10 * max(0, vd_int) + 16
    work = field.with_prec(field.prec + 2 * vd_int + margin)
    cap = min(work.prec, (target if target != INF else field.prec) + margin)
    P = Poly(work, [c.with_field(work) for c in P.coeffs])
    dP = Poly(work, [c.with_field(work) for c in dP.coeffs])
    x = a.with_field(work)
    fx = P(x)
    vfx = fx.val_lb()
    steps = 0
    dfx = None
    while vfx < target:
        if fx.is_small:
            if fx.rel >= base_target:
                break
            raise PrecisionExhausted(
                f"root certified only modulo pi^{fx.rel}, target {base_target}"
            )
        if steps >= _MAX_NEWTON_STEPS:
            raise PrecisionExhausted("iteration budget exhausted before certification")
        dfx = dP(x)
        if dfx.is_zero or dfx.is_small:
            raise PrecisionExhausted("derivative lost to precision during iteration")
        x = (x - fx / dfx).truncate_rel(cap)
        steps += 1
        fx = P(x)
        if fx.is_zero or fx.is_small:
            vfx = fx.val_lb()
            continue
        new_vfx = fx.val()
        if not new_vfx > vfx:
            raise PrecisionExhausted(
                f"v(P(x)) failed to increase ({new_vfx} after {vfx})"
            )
        vfx = new_vfx
    if not fx.is_zero:
        last_vd = dfx.val() if dfx is not None and not (dfx.is_zero or dfx.is_small) else vd
        accuracy = vfx - last_vd
        if accuracy != INF and not x.is_zero and not x.is_small:
            x = x.truncate_abs(accuracy)
    root = x.truncate_rel(field.prec).with_field(field)
    return LiftCertificate(root, steps, separation)
