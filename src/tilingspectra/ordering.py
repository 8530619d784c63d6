"""The one exact value order of Q(theta) vectors.

Vectors are ordered in their integer form (see `intlattice`): rows of
integer power-basis coordinates over one positive denominator, which
does not change the order.  Vectors compare lexicographically, entry by
entry, and entries by `NumberField.sign` of their difference.  Degree 1
sorts the integers themselves.  Higher degrees sort by float64 keys,
row @ (theta^k), with theta^k taken from a frozen isolating interval of
theta, and each key carries a sound bound on its distance from the
exact value: the interval's width plus float rounding of the
conversions, products and sums.  The sorted order is verified on
adjacent items: entries with equal coefficients are equal, a gap larger
than the summed bounds certifies strict order, anything tighter falls
back to one exact sign.  The first snapshot of theta is narrower than
2^-60, which separates the keys of most inputs; an inversion found there
takes a second snapshot, narrower than 1e-30, and an inversion found at
that width (adversarial coefficients only) rebuilds the whole order
with exact comparisons.  At most _FEW rows are
sorted by exact comparisons alone: their few signs cost less than the
float keys and the refinement of theta.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .field import QThetaElem
from .intlattice import embed
from .polys import iv_mul

_COARSE_WIDTH = Fraction(1, 2**60)  # the first snapshot of theta
_SNAPSHOT_WIDTH = Fraction(1, 10**30)  # the snapshot after an inversion
_FEW = 8  # rows sorted by exact comparisons alone
_U = 2.0**-53  # unit roundoff of float64


def sorted_by_value(items, vec_of, pre_key=None):
    """Sort items by exact vector value order, optionally grouped first by
    a plain orderable pre-key such as a prototile id."""
    items = list(items)
    if len(items) <= 1:
        return items
    vecs = [vec_of(it) for it in items]
    coords, den = embed(vecs)
    groups = None
    if pre_key:
        keys = [pre_key(it) for it in items]
        rank = {k: r for r, k in enumerate(sorted(set(keys)))}
        groups = np.array([rank[k] for k in keys], dtype=np.int64)
    perm = value_order(vecs[0].field, coords, den, groups)
    return [items[i] for i in perm.tolist()]


def value_order(field, coords, den, groups=None):
    """Index array of the rows of coords / den in exact (group, value)
    order; stable for equal vectors."""
    n, width = coords.shape
    if groups is None:
        groups = np.zeros(n, dtype=np.int64)

    def sorted_by(key):
        group = groups.tolist()
        return np.array(sorted(range(n), key=lambda i: (group[i], key(i))), dtype=np.intp)

    def exact_order():  # entries compare by the sign of their difference
        rows, s = coords.tolist(), field.degree
        if s == 1:  # the integers themselves
            return sorted_by(rows.__getitem__)
        return sorted_by(lambda i: [QThetaElem(field, rows[i][k : k + s]) for k in range(0, width, s)])

    if n <= _FEW or field.degree == 1 and coords.dtype == object:
        return exact_order()
    if field.degree == 1:
        return np.lexsort([*coords.T[::-1], groups])

    perm = _certified_order(field, coords, groups, _COARSE_WIDTH)
    if perm is None and field.theta.width() >= _SNAPSHOT_WIDTH:
        perm = _certified_order(field, coords, groups, _SNAPSHOT_WIDTH)
    return exact_order() if perm is None else perm


def _certified_order(field, coords, groups, width):
    """The (group, value) order of the rows by float keys from a snapshot
    of theta narrower than `width`, or None when the keys do not fit
    float64 or the check of adjacent rows finds an inversion."""
    keys = _float_keys(field, coords, width)
    if keys is None:
        return None
    approx, bound = keys
    perm = np.lexsort([*approx.T[::-1], groups])
    a, b = perm[:-1], perm[1:]
    d = approx.shape[1]
    differs = (coords[a] != coords[b]).reshape(len(a), d, -1).any(axis=2)
    pairs = np.nonzero((groups[a] == groups[b]) & differs.any(axis=1))[0]
    entry = differs[pairs].argmax(axis=1)
    a, b = a[pairs], b[pairs]
    gap = approx[b, entry] - approx[a, entry]
    tol = (bound[a, entry] + bound[b, entry]) * (1 + 1e-6)
    if (gap < -tol).any():
        return None
    s = field.degree
    for k in np.nonzero(gap <= tol)[0].tolist():
        i, j, e = int(a[k]), int(b[k]), int(entry[k]) * s
        if field.sign((coords[i, e : e + s] - coords[j, e : e + s]).tolist()) > 0:
            return None
    return perm


def _float_keys(field, coords, width):
    """(approx, bound), each (n, d): approx[i, k] is a float64 value of
    entry k of row i (times the denominator) and |approx - exact| <=
    bound, from a snapshot of theta narrower than `width`.  None when the
    rows do not fit float64."""
    s = field.degree
    theta = field.theta
    if theta.width() >= width:
        theta.refine_below(width)
    iv = theta.scaled_interval  # one snapshot, read once: (a/m, b/m)
    power, scale = (1, 1), 1  # theta^k lies in power / scale
    t, err = [], []
    for _ in range(s):
        mid = (power[0] + power[1]) / (2 * scale)  # int division rounds correctly
        p, q = mid.as_integer_ratio()
        t.append(mid)
        # rounded up past float conversion of the rational distance
        dist = max(power[1] * q - p * scale, p * scale - power[0] * q)
        err.append(dist / (q * scale) * (1 + 4 * _U))
        power, scale = iv_mul(power, iv[:2]), scale * iv[2]
    t = np.array(t)
    # |fl(x) - x| <= u|x| per coordinate, and a float dot product of s
    # terms errs by at most s*u times the sum of the absolute terms
    weight = np.array(err) + (2 * s + 4) * _U * np.abs(t)
    try:
        x = coords.astype(np.float64)
    except OverflowError:
        return None
    if not np.isfinite(x).all():
        return None
    x = x.reshape(len(coords), -1, s)
    approx = x @ t
    bound = (np.abs(x) @ weight) * (1 + 1e-6)
    if not (np.isfinite(approx).all() and np.isfinite(bound).all()):
        return None
    return approx, bound
