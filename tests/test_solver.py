"""The one exact solver (fraction-free elimination on integer rows, Q(theta)
systems through their one integer embedding, `NumberField.solve`) against
the Fraction and
Q(theta) Gauss-Jordan eliminations it replaced, kept here as the
reference: the same rank, the same solution (free unknowns 0) or the
same inconsistency, and the same inverse, over Q, Q(golden) and a cubic
field, for singular, rank-deficient and overdetermined systems with
entries up to 2^70."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tilingspectra import IntPoly, NumberField, TilingError, make_algebraic
from tilingspectra.intlattice import embed_rows
from tilingspectra.lattice import field_solve
from tilingspectra.spectra import dual_basis

FIELDS = {
    "Q": NumberField(make_algebraic(IntPoly([-2, 1]), Fraction(2))),
    "Q(golden)": NumberField(make_algebraic(IntPoly([-1, -1, 1]), Fraction(16, 10))),
    "Q(plastic)": NumberField(make_algebraic(IntPoly([-1, -1, 0, 1]), Fraction(133, 100))),
}

# ---------------------------------------------------------------------------
# reference: Gauss-Jordan over Fraction or QThetaElem entries


def _is_zero(v) -> bool:
    if isinstance(v, (Fraction, int)):
        return v == 0
    return v.is_zero()


def ref_field_solve(matrix, rhs_columns, one):
    """A X = B over a field for a square nonsingular A; raises otherwise."""
    n = len(matrix)
    aug = [list(matrix[i]) + [col[i] for col in rhs_columns] for i in range(n)]
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


def ref_field_rank(rows, one) -> int:
    mat = [list(r) for r in rows]
    r = 0
    for c in range(len(mat[0])):
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


def ref_row_solve(basis, target):
    """sum c_i * basis_i = target over Q, free unknowns 0; None if inconsistent."""
    rows = [[Fraction(v) for v in r] for r in basis]
    t = [Fraction(v) for v in target]
    ncols = len(rows[0])
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
# systems


coefficient = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**70), 2**70),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**70)),
)


@st.composite
def systems(draw):
    """(field, A, b): an n x k matrix over the field, n, k in 1..4, made
    singular, rank-deficient or overdetermined by zero, repeated or
    combined rows and columns, and a right-hand side that is A x for a
    drawn x or drawn freely (then mostly inconsistent)."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    s = field.degree
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def elem(zero_weight=0.3):
        if draw(st.floats(0, 1)) < zero_weight:
            return field.zero()
        return field.elem([draw(coefficient) for _ in range(s)])

    A = [[elem() for _ in range(k)] for _ in range(n)]
    shape = draw(st.sampled_from(["free", "combined row", "combined column", "zero row"]))
    if shape == "combined row" and n > 1:
        a, b = draw(st.integers(0, n - 2)), draw(st.integers(0, n - 2))
        A[n - 1] = [x * elem(0) + y * elem(0) for x, y in zip(A[a], A[b])]
    elif shape == "combined column" and k > 1:
        lam = elem(0)
        for row in A:
            row[k - 1] = row[0] * lam
    elif shape == "zero row":
        A[draw(st.integers(0, n - 1))] = [field.zero()] * k
    if draw(st.booleans()):
        x = [elem() for _ in range(k)]
        b = [sum((a * v for a, v in zip(row, x)), field.zero()) for row in A]
    else:
        b = [elem() for _ in range(n)]
    return field, A, b


def embedded_columns(field, A, targets=()):
    """(rows, targets, den): the columns of A and the target vectors as
    integer rows over one common denominator den."""
    rows, den = embed_rows([field.vec(col) for col in zip(*A)] + [field.vec(t) for t in targets])
    return rows[: len(A[0])], rows[len(A[0]) :], den


def theta_power_rows(field, rows):
    """The rows theta^m * rows[j] at j*s + m, by Q(theta) products: the
    Q system `NumberField.solve` must embed into."""
    s, theta = field.degree, field.gen()
    out = []
    for row in rows:
        entries = [field.elem(row[k : k + s]) for k in range(0, len(row), s)]
        for m in range(s):
            out.append([c for e in entries for c in (e * theta**m).coeffs])
    return out


def solve_embedded(field, A, b):
    """(solution, x): `NumberField.solve` on A x = b, read as the
    coordinates of b over the columns of A, and x over Q(theta) (None if
    inconsistent)."""
    s = field.degree
    rows, targets, _ = embedded_columns(field, A, [b])
    sol = field.solve(rows, targets)
    (x,) = sol.columns
    if x is None:
        return sol, None
    coords = [Fraction(v, sol.det) for v in x]
    return sol, [field.elem(coords[j * s : (j + 1) * s]) for j in range(len(A[0]))]


@settings(max_examples=150, deadline=None)
@given(systems())
def test_rank_and_solution_match_reference(system):
    field, A, b = system
    s = field.degree
    sol, x = solve_embedded(field, A, b)
    assert sol.det > 0
    # Q(theta)-rank: the Q-rank of the embedding over s
    assert sol.rank % s == 0
    assert sol.rank // s == ref_field_rank(A, field.one())
    # the embedded Q system against the Fraction elimination it replaced
    rows, (target,), _ = embedded_columns(field, A, [b])
    expected = ref_row_solve(theta_power_rows(field, rows), target)
    assert (x is None) == (expected is None)
    augmented = [row + [target] for row, target in zip(A, b)]
    assert (x is None) == (ref_field_rank(augmented, field.one()) > ref_field_rank(A, field.one()))
    if x is None:
        return
    assert [c for e in x for c in e.coeffs] == expected
    for row, target in zip(A, b):
        assert sum((a * v for a, v in zip(row, x)), field.zero()) == target


@settings(max_examples=100, deadline=None)
@given(systems())
def test_inverse_matches_reference(system):
    field, A, _ = system
    d = min(len(A), len(A[0]))
    A = [row[:d] for row in A[:d]]
    units = [[field.one() if i == j else field.zero() for i in range(d)] for j in range(d)]
    try:
        expected = ref_field_solve(A, units, field.one())
    except TilingError:
        expected = None
    # the coordinates of den * e_j over the columns of den * A: column j of A^-1
    rows, _, den = embedded_columns(field, A)
    n = d * field.degree
    sol = field.solve(rows, [[den * (i == j * field.degree) for i in range(n)] for j in range(d)])
    assert (sol.rank == n) == (expected is not None)
    if expected is None:
        try:
            dual_basis([field.vec(row) for row in A])
        except TilingError as exc:
            assert "do not span" in str(exc)
        else:
            raise AssertionError("dual_basis accepted a singular basis")
        return
    got = [[Fraction(v, sol.det) for v in col] for col in sol.columns]
    assert got == [[c for e in col for c in e.coeffs] for col in expected]
    # dual_basis solves rows @ x = e_j: the columns of the inverse
    dual = dual_basis([field.vec(row) for row in A])
    assert [v.key() for v in dual] == [field.vec(col).key() for col in expected]


def test_square_integer_systems_and_edge_shapes():
    # x + 2y = 3, 3x + 4y = 5: x = -1, y = 2; det reported positive
    sol = field_solve([[1, 2], [3, 4]], [[3, 5]])
    assert sol.rank == 2 and sol.pivots == (0, 1)
    assert [Fraction(v, sol.det) for v in sol.columns[0]] == [-1, 2]
    # overdetermined and inconsistent, then consistent
    assert field_solve([[1], [1]], [[1, 2]]).columns == [None]
    sol = field_solve([[2], [4]], [[2, 4]])
    assert [Fraction(v, sol.det) for v in sol.columns[0]] == [1]
    # rank 0: every nonzero right-hand side is inconsistent
    sol = field_solve([[0, 0]], [[0], [1]])
    assert sol.rank == 0 and sol.det == 1 and sol.columns == [[0, 0], None]
