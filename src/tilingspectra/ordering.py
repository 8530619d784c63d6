"""Fast exact value-ordering of Q(theta) vectors.

Sorting thousands of tiles with one interval refinement per comparison is
painful; instead each element gets a rational approximation at a frozen
theta interval together with a sound error bound.  Sorting by the
approximations is verified on adjacent items: coordinates with equal
power-basis coefficients are equal, a gap larger than the summed error
bounds certifies strict order, anything tighter falls back to one exact
sign computation, and a certified inversion (adversarial coefficients
only) rebuilds the whole order with exact comparisons.
"""

from __future__ import annotations

from fractions import Fraction

_SNAPSHOT_WIDTH = Fraction(1, 10**30)


def _approx_and_bound(elem, mid, width, mpow):
    """(rational approximation at mid, sound |value - approx| bound)."""
    coeffs = elem.coeffs
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * mid + c
    err = Fraction(0)
    for k in range(1, len(coeffs)):
        c = coeffs[k]
        if c:
            err += k * abs(c) * mpow[k - 1]
    return acc, err * width


def _certified_cmp(va, ea, vb, eb) -> int:
    """Exact lexicographic comparison using the certificates where they
    suffice and exact signs where they do not."""
    for i in range(va.dim):
        xa, xb = va.entries[i], vb.entries[i]
        if xa.coeffs == xb.coeffs:
            continue
        (aa, ra), (ab, rb) = ea[i], eb[i]
        if ab - aa > ra + rb:
            return -1
        if aa - ab > ra + rb:
            return 1
        c = xa.cmp(xb)
        if c:
            return c
    return 0


def sorted_by_value(items, vec_of, pre_key=None):
    """Sort items by exact vector value order, optionally grouped first by
    a plain orderable pre-key such as a prototile id."""
    items = list(items)
    if len(items) <= 1:
        return items
    field = vec_of(items[0]).field
    if field.degree == 1:

        def key(it):
            k = tuple(e.coeffs[0] for e in vec_of(it).entries)
            return (pre_key(it), k) if pre_key else k

        return sorted(items, key=key)

    theta = field.theta
    if theta.width() > _SNAPSHOT_WIDTH:
        theta.refine_below(_SNAPSHOT_WIDTH)
    lo, hi = theta.interval
    mid = (lo + hi) / 2
    width = hi - lo
    m = max(abs(lo), abs(hi))
    mpow = [Fraction(1)]
    for _ in range(field.degree - 1):
        mpow.append(mpow[-1] * m)

    decorated = []
    for it in items:
        v = vec_of(it)
        certs = [_approx_and_bound(e, mid, width, mpow) for e in v.entries]
        decorated.append((it, v, certs))

    def sort_key(rec):
        approx = tuple(a for a, _ in rec[2])
        return (pre_key(rec[0]), approx) if pre_key else approx

    decorated.sort(key=sort_key)

    for (ia, va, ea), (ib, vb, eb) in zip(decorated, decorated[1:]):
        if pre_key and pre_key(ia) != pre_key(ib):
            continue
        if _certified_cmp(va, ea, vb, eb) > 0:
            return sorted(items, key=lambda it: (pre_key(it), vec_of(it)) if pre_key else vec_of(it))
    return [rec[0] for rec in decorated]
