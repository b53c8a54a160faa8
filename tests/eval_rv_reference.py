"""Frozen copy of ``Piece.eval_v``, ``Piece.eval_rv`` and
``Piece._depth_guard`` as they were before pieces were compiled to their
linearization: every term a_j d^j is formed as a field product, its class
is taken with ``rv`` and read back as its canonical representative, and the
representatives are added in the field.  The differential test in
``test_decomp.py`` checks the compiled methods against it; do not optimise
this file."""

from __future__ import annotations

from math import factorial

from hqe.decomp import coeff_unresolved
from hqe.errors import NotInPiece, PrecisionExhausted
from hqe.field import LAURENT
from hqe.hensel import resolution_horizon
from hqe.rv import RVElem, rv
from hqe.valq import INF, as_order


def _int_val(field, q: int) -> int:
    if field.backend == LAURENT:
        return 0
    v = 0
    while q % field.p == 0:
        q //= field.p
        v += 1
    return v


def piece_q(piece) -> int:
    """The integer q a piece stored before it kept only v(q): m!^(2^m) on
    a piece with slack, 1 elsewhere."""
    return factorial(piece.m) ** (2**piece.m) if piece.severity_bound else 1


def piece_vq(piece) -> int:
    """v(q), divided out of q one p at a time."""
    return _int_val(piece.center.field, piece_q(piece))


def depth_guard(piece, r):
    field = piece.center.field
    if r >= resolution_horizon(field) and not (
        piece.center.is_exact and all(c.is_exact or c.is_zero for c in piece.coeffs)
    ):
        raise PrecisionExhausted("point lies deeper than the center is known")


def eval_v(piece, x):
    if not piece.contains(x):
        raise NotInPiece(f"{x} is not in {piece.cheese}")
    a_m = piece.coeffs[piece.m]
    if piece.m == 0:
        return INF if a_m.is_zero else a_m.val()
    r = (x - piece.center).val() if not (x - piece.center).is_zero else INF
    if r == INF:
        return INF
    depth_guard(piece, r)
    return a_m.val() + r * piece.m


def eval_rv(piece, x, delta) -> RVElem:
    if not piece.contains(x):
        raise NotInPiece(f"{x} is not in {piece.cheese}")
    delta = as_order(delta)
    field = piece.center.field
    vq = piece_vq(piece)
    gamma = delta + vq
    reps = []
    ignored = INF  # lower bound on terms dropped as zero-at-precision
    d = x - piece.center
    if not d.is_zero:
        depth_guard(piece, d.val_lb())
    # only gamma + 1 unit digits of each factor survive into the class
    if not (d.is_zero or d.is_small):
        d = d.truncate_rel(gamma + 1)
    for j, a in enumerate(piece.coeffs):
        if a.is_zero:
            continue
        if coeff_unresolved(field, a):
            if j > 0 and d.is_zero:
                continue  # the whole term vanishes exactly
            lb = a.rel if a.is_small else a.val()
            if j > 0:
                lb = lb + d.val_lb() * j
            ignored = min(ignored, lb)
            continue
        if not a.is_small:
            a = a.truncate_rel(gamma + 1)
        term = a * d**j
        if term.is_zero:
            continue
        if term.is_small:
            ignored = min(ignored, term.rel)
            continue
        reps.append(rv(term, gamma).rep())
    if not reps:
        return RVElem.inf(field, delta)
    total = field.zero()
    for r in reps:
        total = total + r
    if ignored < INF and not total.is_zero and total.val() + gamma >= ignored:
        raise PrecisionExhausted("dropped term could affect the leading term")
    return rv(total, delta)
