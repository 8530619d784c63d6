"""Integer-lattice and small exact linear algebra utilities.

Row-style Hermite normal form over Z gives canonical bases for the
finitely generated groups sampled from tilings; one fraction-free
elimination over Q on integer rows gives every rank, solution and
inverse, those over Q(theta) included (`NumberField.solve` embeds a
Q(theta) system into its integer rows);
Faddeev-LeVerrier produces exact characteristic polynomials of small
integer matrices.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import TilingError
from .polys import IntPoly


def hnf(rows):
    """Canonical row Hermite normal form of an integer row lattice.

    Returns the list of nonzero basis rows: echelon shape, positive
    pivots, entries above each pivot reduced into [0, pivot).
    """
    mat = [list(map(int, r)) for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    if any(len(r) != ncols for r in mat):
        raise TilingError("ragged matrix")
    top = 0
    for col in range(ncols):
        # zero out the column below `top` with euclidean row operations
        while True:
            nz = [i for i in range(top, len(mat)) if mat[i][col] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(mat[i][col]))
            mat[top], mat[piv] = mat[piv], mat[top]
            done = True
            for i in range(top + 1, len(mat)):
                if mat[i][col] != 0:
                    q = mat[i][col] // mat[top][col]
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
                    if mat[i][col] != 0:
                        done = False
            if done:
                break
        if top < len(mat) and mat[top][col] != 0:
            if mat[top][col] < 0:
                mat[top] = [-a for a in mat[top]]
            for i in range(top):
                q = mat[i][col] // mat[top][col]
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
            top += 1
    return [r for r in mat[:top]]


class Solution(NamedTuple):
    """What `field_solve` finds: every solution entry is an integer
    numerator over the one positive denominator `det`."""

    rank: int
    pivots: tuple  # pivot column of each of the first `rank` rows
    det: int  # > 0
    columns: list  # per right-hand side: x's numerators (free unknowns 0), or None if inconsistent


def field_solve(rows, rhs=()) -> Solution:
    """Solve rows @ x = b over Q for each column b of `rhs`, exactly.

    `rows` is a list of n integer rows of equal length m, each column of
    `rhs` a list of n integers.  Fraction-free Gauss-Jordan elimination
    (Bareiss): a step with pivot p replaces every other row r by
    (p * r - r[c] * pivot row) / (previous pivot), an exact division
    because every entry stays a minor of the augmented matrix.  At the
    end each pivot row holds the last pivot at its pivot column, zeros at
    the others, and the numerators of its unknown on the right.  Systems
    over Q(theta) reach it only through `NumberField.solve`, which
    builds their integer rows.
    """
    n = len(rows)
    m = len(rows[0]) if rows else 0
    aug = [list(map(int, r)) + [int(b[i]) for b in rhs] for i, r in enumerate(rows)]
    det, pivots = 1, []
    for c in range(m):
        r = len(pivots)
        p = next((i for i in range(r, n) if aug[i][c]), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        top = aug[r]
        for i in range(n):
            if i != r:
                f = aug[i][c]
                aug[i] = [(top[c] * x - f * y) // det for x, y in zip(aug[i], top)]
        det = top[c]
        pivots.append(c)
    rank, sign = len(pivots), (1 if det > 0 else -1)
    columns = []
    for k in range(m, m + len(rhs)):
        if any(aug[i][k] for i in range(rank, n)):
            columns.append(None)
            continue
        x = [0] * m
        for i, c in enumerate(pivots):
            x[c] = sign * aug[i][k]
        columns.append(x)
    return Solution(rank, tuple(pivots), abs(det), columns)


# ---------------------------------------------------------------------------


def charpoly(mat) -> IntPoly:
    """Characteristic polynomial of a square integer matrix, monic,
    ascending coefficients, by the Faddeev-LeVerrier recursion.  Its
    matrices stay integral and each trace it divides by k is a multiple
    of k, since the coefficients of an integer matrix are integers."""
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise TilingError("characteristic polynomial needs a square matrix")
    m = [list(map(int, row)) for row in mat]
    coeffs = [1]  # leading first while building
    mk = _identity(n)
    for k in range(1, n + 1):
        mk = _matmul(m, mk)
        tr = sum(mk[i][i] for i in range(n))
        if tr % k:
            raise TilingError("non-integer characteristic coefficient (defect)")
        coeffs.append(-tr // k)
        for i in range(n):
            mk[i][i] += coeffs[-1]
    return IntPoly(coeffs[::-1])


def _identity(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _matmul(a, b, cap=None):
    """The integer product a @ b, with every entry replaced by min(cap,
    entry) when `cap` is given.  For nonnegative matrices that is exactly
    min(cap, .) of the uncapped product: an entry at the cap times a
    positive entry keeps the sum at the cap or above."""
    cols = list(zip(*b))
    out = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
    if cap is not None:
        out = [[min(cap, v) for v in row] for row in out]
    return out


def int_matrix_power(mat, n: int, cap=None):
    """mat ** n by repeated squaring.  With `cap`, for a nonnegative
    matrix, every entry is min(cap, entry), and the O(log n) products
    stay on numbers below size * cap**2 whatever n is."""
    out = _identity(len(mat))
    base = [list(map(int, r)) for r in mat]
    while n:
        if n & 1:
            out = _matmul(out, base, cap)
        n >>= 1
        if n:
            base = _matmul(base, base, cap)
    return out
