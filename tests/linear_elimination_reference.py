"""Frozen reference: the linear ball-intersection elimination on dict balls.

``hqe.qe.eliminate_linear_exists`` as it was when each constraint's ball
was a dict of its centre, radius and defining data, membership was a
hand-written test, and v(c_1 - c_2) and the case-4 criterion were read
from ``val_lb()``.  Where the known digits do not decide, this version
answers False; the library now raises ``PrecisionExhausted``.  On exact
inputs the two agree, verdict and ``case_log`` alike, and tests compare
them there.
"""

from hqe.errors import PrecisionExhausted, PreconditionViolated
from hqe.field import Field, val_diff
from hqe.hensel import resolution_horizon
from hqe.rv import rv
from hqe.valq import as_order


def eliminate_linear_exists(constraints, field: Field, case_log=None) -> bool:
    """Decide EX x. /\\ rv[d_i](z_i) = rv[d_i](a_i x - b_i) with a_i != 0.

    Each constraint is the open ball around (b_i + z~_i)/a_i of radius
    v(z_i/a_i) + d_i; the pairwise analysis runs through the four cases of
    the ball intersection elimination (logged in case_log when given), and
    finitely many pairwise intersecting balls share a point.
    """
    balls = []
    singles = []
    for z, a, b, delta in constraints:
        delta = as_order(delta)
        if a.is_zero or a.is_small:
            raise PreconditionViolated("the coefficient of x must be nonzero")
        if z.is_small:
            raise PrecisionExhausted("leading term of a constraint side unknown")
        center = b / a
        if z.is_zero:
            singles.append((center, delta))
            continue
        zs = z / a
        rep = rv(zs, delta).rep()
        balls.append(
            {
                "center": center + rep,
                "radius": zs.val() + delta,
                "z": zs,
                "c": center,
                "delta": delta,
            }
        )
    # singletons force the witness
    for x0, _ in singles:
        for other, _ in singles:
            # the same point: equal on all known digits, known to the horizon
            known = min(x0.abs_prec, other.abs_prec)
            if known < resolution_horizon(x0.field) or val_diff(x0, other, known) != known:
                return False
        for B in balls:
            if not _in_open_ball(x0, B):
                return False
        return True
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            if not _pair_intersects(balls[i], balls[j], case_log):
                return False
    return True


def _in_open_ball(x, B) -> bool:
    r = B["radius"] + 1
    return val_diff(x, B["center"], r) == r


def _pair_intersects(B1, B2, case_log) -> bool:
    if B1["radius"] > B2["radius"]:
        B1, B2 = B2, B1
    vz1, vz2 = B1["z"].val(), B2["z"].val()
    dcc = B1["c"] - B2["c"]
    vcc = dcc.val_lb()
    if vcc < vz1:
        case = 4
    elif vz2 < vz1:
        case = 3
    elif B1["delta"] <= B2["delta"]:
        case = 1
    else:
        case = 2
    if case_log is not None:
        case_log.add(case)
    if case == 3:
        # the difference of the defining data has the smaller value outright
        return False
    if case == 4:
        # B1 is the larger ball, so the two meet iff z_1 + (c_1 - c_2) lies
        # within its radius v(z_1) + delta_1 of z_2; comparing rv at the lower
        # order is coarser than that when v(z_2) < v(z_1)
        return (B1["z"] + dcc - B2["z"]).val_lb() > B1["radius"]
    # cases 1 and 2: the severity criterion on z_1 - z_2 + (c_1 - c_2)
    return _in_open_ball(B2["center"], B1)
