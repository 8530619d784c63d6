"""Integer-lattice and small exact linear algebra utilities.

Row-style Hermite normal form over Z gives canonical bases for the
finitely generated groups sampled from tilings; rational Gaussian
elimination and a generic field solver (used with Fraction or Q(theta)
entries alike) handle the change-of-basis computations; Faddeev-LeVerrier
produces exact characteristic polynomials of small integer matrices.
"""

from __future__ import annotations

from fractions import Fraction

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


def _rational_row_solve(basis, target):
    """Solve sum c_i * basis_i = target over Q; None if inconsistent."""
    rows = [[Fraction(v) for v in r] for r in basis]
    t = [Fraction(v) for v in target]
    if not rows:
        return None if any(v != 0 for v in t) else []
    ncols = len(rows[0])
    # augmented transpose system: columns are basis vectors
    aug = [[rows[i][j] for i in range(len(rows))] + [t[j]] for j in range(ncols)]
    n, m = len(aug), len(rows)
    piv_cols = []
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [v / aug[r][c] for v in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, n):
        if aug[i][m] != 0:
            return None
    out = [Fraction(0)] * m
    for row_idx, c in enumerate(piv_cols):
        out[c] = aug[row_idx][m]
    return out


# ---------------------------------------------------------------------------
# generic exact field solver: works for Fraction and QThetaElem entries


def field_solve(matrix, rhs_columns, zero, one):
    """Solve A X = B exactly over a field by Gauss-Jordan elimination.

    `matrix` is a list of rows, `rhs_columns` a list of right-hand-side
    column vectors.  Entries need +, -, *, /, and an is-zero test via
    `_is_zero`.  Returns the list of solution columns; raises on a
    singular matrix.
    """
    n = len(matrix)
    aug = [list(matrix[i]) + [col[i] for col in rhs_columns] for i in range(n)]
    width = n + len(rhs_columns)
    for c in range(n):
        piv = next((i for i in range(c, n) if not _is_zero(aug[i][c])), None)
        if piv is None:
            raise TilingError("singular matrix in exact solve")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = one / aug[c][c]
        aug[c] = [v * inv for v in aug[c]]
        for i in range(n):
            if i != c and not _is_zero(aug[i][c]):
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return [[aug[i][n + k] for i in range(n)] for k in range(len(rhs_columns))]


def _is_zero(v) -> bool:
    if isinstance(v, Fraction) or isinstance(v, int):
        return v == 0
    return v.is_zero()


def field_rank(rows, zero, one) -> int:
    mat = [list(r) for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if not _is_zero(mat[i][c])), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = one / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and not _is_zero(mat[i][c]):
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


# ---------------------------------------------------------------------------


def charpoly(mat) -> IntPoly:
    """Characteristic polynomial of a square integer matrix, monic,
    ascending coefficients, by the Faddeev-LeVerrier recursion."""
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise TilingError("characteristic polynomial needs a square matrix")
    m = [[Fraction(v) for v in row] for row in mat]
    coeffs = [Fraction(1)]  # leading first while building
    mk = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        mk[i][i] = Fraction(1)
    prod = None
    for k in range(1, n + 1):
        prod = _matmul(m, mk)
        tr = sum(prod[i][i] for i in range(n))
        ck = -tr / k
        coeffs.append(ck)
        mk = [row[:] for row in prod]
        for i in range(n):
            mk[i][i] += ck
    ints = []
    for c in reversed(coeffs):
        if c.denominator != 1:
            raise TilingError("non-integer characteristic coefficient (defect)")
        ints.append(int(c))
    return IntPoly(ints)


def _matmul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def int_matrix_power(mat, n: int):
    size = len(mat)
    out = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    base = [list(map(int, r)) for r in mat]
    while n:
        if n & 1:
            out = [
                [sum(out[i][k] * base[k][j] for k in range(size)) for j in range(size)]
                for i in range(size)
            ]
        base = [
            [sum(base[i][k] * base[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)
        ]
        n >>= 1
    return out
