"""Field traces and the exact decision procedure for dist(theta^n x, Z) -> 0.

For Pisot theta the distance from theta^n x to the integers tends to zero
exactly when the rational trace sequence t_n = Tr(theta^n x) is eventually
integer: the non-identity embeddings contract, and t_n differs from
theta^n x by the sum of conjugate terms.  The t_n satisfy the integer
recurrence of the minimal polynomial, so D*t_n mod D walks a finite state
space of s consecutive residues and is eventually periodic; the answer is
read off the cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import UndecidedError
from .field import QThetaElem

DEFAULT_STATE_BUDGET = 10**6
_DIST_PRECISION = Fraction(1, 10**25)


def trace(x: QThetaElem) -> Fraction:
    """Tr_{Q(theta)/Q}(x): power-sum traces contracted with coordinates."""
    p = x.field.power_traces(x.field.degree - 1)
    return Fraction(sum(c * p[k] for k, c in enumerate(x.nums)), x.den)


@dataclass(frozen=True)
class TraceSequenceReport:
    """Outcome of the residue-cycle analysis of t_n = Tr(theta^n x)."""

    x: QThetaElem
    denominator: int
    preperiod: int
    period: int
    eventually_integer: bool

    def as_dict(self):
        return {
            "x": self.x.serialize(),
            "denominator": self.denominator,
            "preperiod": self.preperiod,
            "period": self.period,
            "eventually_integer": self.eventually_integer,
        }


def dist_to_int_limit(x: QThetaElem, budget: int = DEFAULT_STATE_BUDGET) -> TraceSequenceReport:
    """Decide whether dist(theta^n x, Z) -> 0; exact, for Pisot theta.

    The caller is responsible for theta being Pisot; the residue cycle is
    computed either way, but only under Pisot-ness does the eventually-
    integer criterion decide the limit.  Raises UndecidedError when the
    residue state space D^s would exceed `budget`.
    """
    field = x.field
    s = field.degree
    powers = field.power_traces(2 * s - 2)
    # t_n = Tr(theta^n x) = t[n] / den
    den = x.den
    t = [sum(c * powers[n + k] for k, c in enumerate(x.nums)) for n in range(s)]
    g = gcd(den, *t)
    denom = den // g
    if denom**s > budget:
        raise UndecidedError(
            f"residue state space {denom}^{s} exceeds budget {budget}",
            denominator=denom,
            budget=budget,
        )
    if denom == 1:
        # All traces are rational integers from the start.
        return TraceSequenceReport(x, 1, 0, 1, True)

    # integer sequence v_n = D * t_n obeys the minimal-polynomial recurrence
    rec = [-c for c in field.minpoly.coeffs[:-1]]  # v_{n+s} = sum rec[j] v_{n+j}
    state = tuple(v // g % denom for v in t)  # D * t_n = t[n] / g
    seen = {state: 0}
    order = [state]
    while True:
        nxt = sum(rec[j] * state[j] for j in range(s)) % denom
        state = state[1:] + (nxt,)
        if state in seen:
            first = seen[state]
            period = len(order) - first
            break
        seen[state] = len(order)
        order.append(state)
    zero = (0,) * s
    on_cycle_zero = all(st == zero for st in order[first:])
    if on_cycle_zero:
        # report the first index where the residues vanish for good
        pre = first
        while pre > 0 and order[pre - 1] == zero:
            pre -= 1
    else:
        pre = first
    return TraceSequenceReport(x, denom, pre, period, on_cycle_zero)


def dist_to_int(x: QThetaElem) -> Fraction:
    """dist(x, Z) as a rational approximation with error below 1e-25.

    Exact power-basis coordinates plus interval refinement of theta; never
    floating powers (theta^n overflows doubles long before diagnostics end).
    """
    if x.is_rational():
        frac = Fraction(x.nums[0] % x.den, x.den)
        return min(frac, 1 - frac)
    lo, hi = x.interval(_DIST_PRECISION)
    mid = (lo + hi) / 2
    nearest = Fraction(round(mid))
    return abs(mid - nearest)
