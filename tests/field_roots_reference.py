"""Frozen copy of the root search that lifts every simple root to full
precision, kept as an oracle.

Before an exact root was tried first from a short lift,
``hqe.hensel._field_roots`` lifted each root that Newton's method reaches
to the working precision and only then replaced it by an exact one, when
a short exact candidate read from its digits verified.  This module keeps
``_field_roots``, ``_roots_in_O`` and ``_descend`` as they were, with the
exact-root snap of ``snap_reference`` (the same element as the screened
snap), so that tests can check that trying exact roots first never
changes the roots returned, their precision, their order or an error.
It has no memo: every call searches again.
"""

from __future__ import annotations

from hqe.errors import PrecisionExhausted, PreconditionViolated
from hqe.hensel import _integer_slopes, _scale_to_radius, elem_sort_key, newton_lift
from hqe.poly import (
    Poly,
    _strip_content,
    annulus_residue_poly,
    coeff_vals,
    count_roots_val_at_least,
    residue_roots,
    squarefree_part,
    taylor_shift,
)

from snap_reference import snap_exact


def field_roots(g: Poly) -> list:
    if g.is_zero:
        raise PreconditionViolated("root search on the zero polynomial")
    if g.degree == 0:
        return []
    return list(_field_roots(g.field, g.coeffs))


def _field_roots(field, coeffs) -> tuple:
    g = squarefree_part(Poly(field, coeffs))
    roots = []
    low = next((i for i, c in enumerate(g.coeffs) if not c.is_zero), 0)
    if low > 0:
        roots.append(field.zero())
        g = Poly(field, g.coeffs[low:])
    if g.degree >= 1:
        pairs = coeff_vals(g)
        if g.degree == 1:
            roots.append(-g.coeffs[0] / g.coeffs[1])
        else:
            for s in _integer_slopes(pairs):
                G = _scale_to_radius(g, pairs, s)
                pi_s = field.monomial(1, s)
                for u in _roots_in_O(G, 0, only_units=True):
                    roots.append(snap_exact(g, pi_s * u))
    roots.sort(key=elem_sort_key)
    return tuple(roots)


def _roots_in_O(H: Poly, depth: int, only_units: bool = False) -> list:
    field = H.field
    if depth > field.prec + 16:
        raise PrecisionExhausted("root descent exceeded the precision budget")
    H = _strip_content(H)
    if H.degree is None or H.degree == 0:
        return []
    out = []
    pairs = coeff_vals(H)
    if count_roots_val_at_least(pairs, 0) == 0:
        return out
    respoly = annulus_residue_poly(H.coeffs, pairs, 0)
    for c in residue_roots(field, respoly):
        if only_units and c == 0:
            continue
        chat = field.from_rational(c)
        Hc = Poly(field, taylor_shift(H, chat))
        if Hc.coeffs and Hc.coeffs[0].is_zero:
            out.append(chat)
            rest = Poly(field, Hc.coeffs[1:])
            out.extend(chat + w for w in _descend(rest, depth))
            continue
        inner = count_roots_val_at_least(coeff_vals(Hc), 1)
        if inner == 0:
            continue
        if inner == 1:
            va = Hc.coeffs[0].val_lb()
            vd = Hc.coeffs[1].val() if len(Hc.coeffs) > 1 and not Hc.coeffs[1].is_zero else None
            if vd is not None and va > vd * 2:
                cert = newton_lift(H, chat, 0)
                out.append(cert.root)
                continue
        out.extend(chat + w for w in _descend(Hc, depth))
    return out


def _descend(Hc: Poly, depth: int) -> list:
    field = Hc.field
    pi = field.uniformizer()
    K = Poly(field, [c.shift(i) if not c.is_zero else c for i, c in enumerate(Hc.coeffs)])
    return [pi * w for w in _roots_in_O(K, depth + 1)]
