from collections import Counter
from fractions import Fraction
from operator import add, sub
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilingspectra import (
    BudgetError,
    IntPoly,
    NumberField,
    TilingError,
    ValidationError,
    golden_field,
    make_algebraic,
)
from tilingspectra.corpus import load
from tilingspectra.lattice import int_matrix_power
from tilingspectra.systemfile import system_from_dict, serialize_system
from tilingspectra import tiles
from tilingspectra.systemfile import parse_system
from tilingspectra.tiles import (
    _chain,
    is_primitive,
    legal_pairs,
    perron_check,
    tile_frequencies,
    validate,
)

TRIBONACCI = Path(__file__).resolve().parent.parent / "perfbench" / "systems" / "tribonacci.json"


def test_substitution_matrices(fib, tm, np26, chair, grid2):
    assert fib.substitution_matrix() == [[1, 1], [1, 0]]
    assert tm.substitution_matrix() == [[1, 1], [1, 1]]
    assert np26.substitution_matrix() == [[1, 3], [2, 1]]
    assert grid2.substitution_matrix() == [[4]]
    chair_s = chair.substitution_matrix()
    assert sorted(sum(row[j] for row in chair_s) for j in range(4)) == [4, 4, 4, 4]


def test_validation_reports_are_green(systems):
    for system in systems.values():
        report = validate(system)
        assert report.valid, [c.detail for c in report.failures()]


def test_fibonacci_endpoint_chain_frozen(fib):
    # omega(a) = a@0, b@theta; ends at theta + 1 = theta^2 = theta * len(a)
    K = fib.field
    t = K.gen()
    ends = [fib.tile_interval(ch)[1] for ch in fib.rules["a"]]
    assert (ends[-1] - (t + 1)).is_zero()
    assert ((t + 1) - t * t).is_zero()


def test_bad_length_fails_measure(fib):
    data = serialize_system(fib)
    data["prototiles"][1]["support"]["length"] = ["2", "0"]  # l_b = 2
    broken = system_from_dict(data)
    report = validate(broken)
    assert not report.valid
    assert any("measure" in c.name for c in report.failures())


def test_overlapping_children_detected(fib):
    data = serialize_system(fib)
    data["rules"]["a"][1]["offset"] = [["0", "0"]]  # b on top of a
    broken = system_from_dict(data)
    report = validate(broken)
    assert not report.valid
    assert any("disjoint" in c.name or "chain" in c.name for c in report.failures())


def test_child_outside_support_detected(grid2):
    data = serialize_system(grid2)
    data["rules"]["sq"][3]["offset"] = [["2"], ["1"]]
    del data["periods"]  # period checks would also fail; isolate containment
    broken = system_from_dict(data)
    report = validate(broken)
    assert not report.valid
    assert any("containment" in c.name for c in report.failures())


def test_false_period_detected(grid2):
    data = serialize_system(grid2)
    data["periods"] = [[["1/2"], ["0"]]]
    broken = system_from_dict(data)
    report = validate(broken)
    assert not report.valid
    assert any("period" in c.name for c in report.failures())


# period checks whose reports were recorded before validation moved to
# integer coordinates: the first disagreeing tile in canonical order and
# the matched-tile counts must stay the same
PERIOD_REPORTS = [
    ("grid2", [[["1/2"], ["0"]]], [(False, "period [['1/2'], ['0']]: translated tile sq@[['1/2'], ['0']] disagrees inside omega^3(sq)")]),
    ("grid2", [[["1"], ["1"]], [["3"], ["0"]]], [(True, "49 tiles matched"), (True, "40 tiles matched")]),
    ("chair", [[["1"], ["0"]]], [(False, "period [['1'], ['0']]: translated tile NE@[['1'], ['0']] disagrees inside omega^3(NE)")]),
    ("fibonacci", [[["-1/3", "0"]]], [(False, "period [['-1/3', '0']]: translated tile a@[['2/3', '1']] disagrees inside omega^3(a)")]),
    ("fibprod", [[["0", "1"], ["0", "0"]]], [(False, "period [['0', '1'], ['0', '0']]: translated tile aa@[['0', '1'], ['0', '0']] disagrees inside omega^3(aa)")]),
]


@pytest.mark.parametrize("name, periods, expected", PERIOD_REPORTS)
def test_period_reports_frozen(systems, name, periods, expected):
    data = fibonacci_product() if name == "fibprod" else serialize_system(systems[name])
    data["periods"] = periods
    checks = [c for c in validate(system_from_dict(data)).checks if c.name.startswith("period")]
    assert [(c.ok, c.detail) for c in checks] == expected


def fibonacci_product():
    """The product of two Fibonacci substitutions: prototiles ij are
    [0, l_i] x [0, l_j] with l_a = theta (golden ratio), l_b = 1, and the
    rule of ij places every pair of children of i and j."""
    length = {"a": ["0", "1"], "b": ["1", "0"]}
    rule = {"a": [("a", ["0", "0"]), ("b", ["0", "1"])], "b": [("a", ["0", "0"])]}
    zero = ["0", "0"]
    prototiles, rules = [], {}
    for i in "ab":
        for j in "ab":
            x, y = length[i], length[j]
            vertices = [[zero, zero], [x, zero], [x, y], [zero, y]]
            prototiles.append({"id": i + j, "support": {"type": "polygon", "vertices": vertices}})
            rules[i + j] = [
                {"tile": k + m, "offset": [list(xk), list(ym)]}
                for k, xk in rule[i]
                for m, ym in rule[j]
            ]
    return {
        "name": "fibprod",
        "dimension": 2,
        "theta": {"minpoly": [-1, -1, 1], "approx": "1.618"},
        "prototiles": prototiles,
        "rules": rules,
    }


# failing checks after moving one child by 1/2, recorded before
# validation moved to integer coordinates
FIBPROD_MOVED = [
    ("aa", 1, 0, ("rule[aa].disjoint", "children ab@[['1/2', '0'], ['0', '1']] and bb@[['0', '1'], ['0', '1']] overlap")),
    ("aa", 3, 1, ("rule[aa].containment", "child bb@[['0', '1'], ['1/2', '1']] outside inflated support")),
    ("ab", 0, 0, ("rule[ab].disjoint", "children aa@[['1/2', '0'], ['0', '0']] and ba@[['0', '1'], ['0', '0']] overlap")),
    ("ba", 1, 1, ("rule[ba].containment", "child ab@[['0', '0'], ['1/2', '1']] outside inflated support")),
]


def test_degree_two_planar_product_validates():
    report = validate(system_from_dict(fibonacci_product()))
    expected = [("expansion", "theta > 1")]
    for tid in ("aa", "ab", "ba", "bb"):
        expected += [
            (f"rule[{tid}].measure", "children measure equals theta^d * vol"),
            (f"rule[{tid}].disjoint", ""),
            (f"rule[{tid}].containment", ""),
        ]
    expected.append(("fixed_point_seed", "self-reproducing seed tiles at the origin: ['aa']"))
    assert [(c.name, c.ok, c.detail) for c in report.checks] == [(n, True, d) for n, d in expected]
    for tid, k, entry, failure in FIBPROD_MOVED:
        data = fibonacci_product()
        coeffs = data["rules"][tid][k]["offset"][entry]
        coeffs[0] = "1/2" if coeffs[0] == "0" else "3/2"
        failures = validate(system_from_dict(data)).failures()
        assert [(c.name, c.detail) for c in failures] == [failure]


def _shift_child(k, delta):
    def mutate(data):
        coeffs = data["rules"]["a"][k]["offset"][0]
        coeffs[0] = str(Fraction(coeffs[0]) + Fraction(delta))

    return mutate


def _longer_b(data):
    data["prototiles"][1]["support"]["length"][0] = "2"


# mutations of rule a (two children) or of b's length in a 1d system
ONE_D_MUTATIONS = {
    "overlap": _shift_child(1, "-1/2"),
    "past_end": _shift_child(1, "1/2"),
    "late_start": _shift_child(0, "1/2"),
    "negative": _shift_child(0, "-1/2"),
    "dropped": lambda data: data["rules"]["a"].pop(),
    "length": _longer_b,
}

# failing checks of the mutated systems, recorded while 1d validation ran
# on field-element arithmetic: each message must keep its bytes
ONE_D_FAILURES = [
    ("tm", "overlap", [("rule[a].disjoint", "children a@[['0']] and b@[['1/2']] overlap"), ("rule[a].chain", "gap or overlap in the endpoint chain")]),
    ("tm", "past_end", [("rule[a].containment", "child b@[['3/2']] outside inflated support"), ("rule[a].chain", "gap or overlap in the endpoint chain")]),
    ("tm", "late_start", [("rule[a].disjoint", "children a@[['1/2']] and b@[['1']] overlap"), ("rule[a].chain", "first child does not start at 0")]),
    ("tm", "negative", [("rule[a].containment", "child a@[['-1/2']] outside inflated support"), ("rule[a].chain", "first child does not start at 0")]),
    ("tm", "dropped", [("rule[a].measure", "children measure ['1'] != theta^d*vol ['2']"), ("rule[a].chain", "last child does not reach theta * length")]),
    ("tm", "length", [("rule[a].measure", "children measure ['3'] != theta^d*vol ['2']"), ("rule[a].containment", "child b@[['1']] outside inflated support"), ("rule[a].chain", "last child does not reach theta * length"), ("rule[b].measure", "children measure ['3'] != theta^d*vol ['4']"), ("rule[b].disjoint", "children b@[['0']] and a@[['1']] overlap"), ("rule[b].chain", "gap or overlap in the endpoint chain")]),
    ("fibonacci", "overlap", [("rule[a].disjoint", "children a@[['0', '0']] and b@[['-1/2', '1']] overlap"), ("rule[a].chain", "gap or overlap in the endpoint chain")]),
    ("fibonacci", "past_end", [("rule[a].containment", "child b@[['1/2', '1']] outside inflated support"), ("rule[a].chain", "gap or overlap in the endpoint chain")]),
    ("fibonacci", "late_start", [("rule[a].disjoint", "children a@[['1/2', '0']] and b@[['0', '1']] overlap"), ("rule[a].chain", "first child does not start at 0")]),
    ("fibonacci", "negative", [("rule[a].containment", "child a@[['-1/2', '0']] outside inflated support"), ("rule[a].chain", "first child does not start at 0")]),
    ("fibonacci", "dropped", [("rule[a].measure", "children measure ['0', '1'] != theta^d*vol ['1', '1']"), ("rule[a].chain", "last child does not reach theta * length")]),
    ("fibonacci", "length", [("rule[a].measure", "children measure ['2', '1'] != theta^d*vol ['1', '1']"), ("rule[a].containment", "child b@[['0', '1']] outside inflated support"), ("rule[a].chain", "last child does not reach theta * length"), ("rule[b].measure", "children measure ['0', '1'] != theta^d*vol ['0', '2']"), ("rule[b].chain", "last child does not reach theta * length")]),
    ("tribonacci", "overlap", [("rule[a].disjoint", "children a@[['0', '0', '0']] and b@[['1/2', '0', '0']] overlap"), ("rule[a].chain", "gap or overlap in the endpoint chain")]),
    ("tribonacci", "past_end", [("rule[a].containment", "child b@[['3/2', '0', '0']] outside inflated support"), ("rule[a].chain", "gap or overlap in the endpoint chain")]),
    ("tribonacci", "late_start", [("rule[a].disjoint", "children a@[['1/2', '0', '0']] and b@[['1', '0', '0']] overlap"), ("rule[a].chain", "first child does not start at 0")]),
    ("tribonacci", "negative", [("rule[a].containment", "child a@[['-1/2', '0', '0']] outside inflated support"), ("rule[a].chain", "first child does not start at 0")]),
    ("tribonacci", "dropped", [("rule[a].measure", "children measure ['1', '0', '0'] != theta^d*vol ['0', '1', '0']"), ("rule[a].chain", "last child does not reach theta * length")]),
    ("tribonacci", "length", [("rule[a].measure", "children measure ['3', '1', '0'] != theta^d*vol ['0', '1', '0']"), ("rule[a].containment", "child b@[['1', '0', '0']] outside inflated support"), ("rule[a].chain", "last child does not reach theta * length"), ("rule[b].measure", "children measure ['0', '-1', '1'] != theta^d*vol ['0', '2', '1']"), ("rule[b].chain", "last child does not reach theta * length")]),
]


@pytest.mark.parametrize("name, case, expected", ONE_D_FAILURES)
def test_one_d_failure_reports_frozen(systems, name, case, expected):
    system = systems[name] if name in systems else parse_system(TRIBONACCI)
    data = serialize_system(system)
    ONE_D_MUTATIONS[case](data)
    failures = validate(system_from_dict(data)).failures()
    assert [(c.name, c.detail) for c in failures] == expected


def test_moved_chair_vertex_failure_report_frozen(chair):
    # NE's notch vertex (1, 1) moved to (3/2, 3/2): NE's area grows from
    # 3 to 7/2, recorded while 2d measures ran on field elements
    data = serialize_system(chair)
    data["prototiles"][0]["support"]["vertices"][3] = [["3/2"], ["3/2"]]
    failures = validate(system_from_dict(data)).failures()
    assert [(c.name, c.detail) for c in failures] == [
        ("rule[NE].measure", "children measure ['13'] != theta^d*vol ['14']"),
        ("rule[NE].disjoint", "children NE@[['0'], ['0']] and NE@[['1'], ['1']] overlap"),
        ("rule[NW].measure", "children measure ['25/2'] != theta^d*vol ['12']"),
        ("rule[NW].disjoint", "children NW@[['0'], ['0']] and NE@[['-2'], ['-2']] overlap"),
        ("rule[SE].measure", "children measure ['25/2'] != theta^d*vol ['12']"),
        ("rule[SE].disjoint", "children SE@[['0'], ['0']] and NE@[['-2'], ['-2']] overlap"),
    ]


def test_validation_invariant_under_prototile_translation(grid2):
    # translate the square support by (5, 7) and fix the rule offsets:
    # children of the rule must shift by theta*v - v
    data = serialize_system(grid2)
    vx, vy = 5, 7
    verts = data["prototiles"][0]["support"]["vertices"]
    data["prototiles"][0]["support"]["vertices"] = [
        [[str(int(p[0][0]) + vx)], [str(int(p[1][0]) + vy)]] for p in verts
    ]
    for ch in data["rules"]["sq"]:
        ox, oy = int(ch["offset"][0][0]), int(ch["offset"][1][0])
        ch["offset"] = [[str(ox + 2 * vx - vx)], [str(oy + 2 * vy - vy)]]
    moved = system_from_dict(data)
    report = validate(moved)
    assert report.valid, [c.detail for c in report.failures()]


def test_grow_identity_and_hand_expansion(fib):
    K = fib.field
    t = K.gen()
    p0 = fib.grow("a", 0)
    assert len(p0) == 1 and p0.tiles[0].proto == "a"
    p2 = fib.grow("a", 2)
    # hand expansion: a@0, b@theta, a@theta+1, canonically ordered
    keys = [(t_.proto, t_.offset.serialize()) for t_ in p2]
    assert keys == [
        ("a", [["0", "0"]]),
        ("a", [["1", "1"]]),
        ("b", [["0", "1"]]),
    ]


def test_grow_counts_match_matrix_powers(systems):
    for system in systems.values():
        mat = system.substitution_matrix()
        for n in range(0, 6):
            power = int_matrix_power(mat, n)
            for j, tid in enumerate(system.order):
                expected = sum(power[i][j] for i in range(len(system.order)))
                assert len(system.grow(tid, n)) == expected


def test_grow_step_consistency(fib, chair):
    for system, tid in ((fib, "a"), (chair, "NE")):
        p3 = system.grow(tid, 3)
        _, grown = system.grow_lattices([tid], (2, 3))  # depth 3 is one step from depth 2
        stepped = system._patch_of(*grown[:3])
        assert [t.key() for t in p3] == [t.key() for t in stepped]


def test_grow_budget(fib, monkeypatch):
    monkeypatch.setattr(tiles, "DEFAULT_GROW_BUDGET", 100)
    with pytest.raises(BudgetError, match="^grow would produce more than 100 tiles$"):
        fib.grow("a", 30)


def test_grid2_grow_tiles_square(grid2):
    p = grid2.grow("sq", 3)
    assert len(p) == 64
    xs = sorted(set(int(t.offset[0].coeffs[0]) for t in p))
    assert xs == list(range(8))


def test_primitivity():
    assert is_primitive([[1, 1], [1, 0]]) == (True, 2, 2)
    assert is_primitive([[1, 3], [2, 1]])[0:2] == (True, 1)
    ok, k, _ = is_primitive([[1, 0], [0, 1]])
    assert not ok and k is None


def test_chair_primitive(chair):
    ok, k, bound = is_primitive(chair.substitution_matrix())
    assert ok and k == 2 and bound == 10


def test_perron_check_exact(systems):
    for system in systems.values():
        out = perron_check(system)
        assert out["exact_left_eigenvector"]
        assert abs(out["perron_eigenvalue_float"] - out["theta_power_d_float"]) < 1e-9


def test_tile_frequencies_match_counts(fib, grid2):
    freqs = tile_frequencies(fib.substitution_matrix())
    golden = (1 + 5**0.5) / 2
    assert abs(freqs[0] - golden / (golden + 1)) < 1e-10
    found = Counter(t.proto for t in fib.grow("a", 10))
    counts = [found[tid] for tid in fib.order]
    total = sum(counts)
    for c, f in zip(counts, freqs):
        assert abs(c / total - f) < 0.02
    assert tile_frequencies(grid2.substitution_matrix()) == (1.0,)


def touching_pairs(system, depth):
    """Oracle for `legal_pairs`: the keys of all touching tile pairs of
    omega^depth(t) over every prototile t, from every pair of tiles of
    the patch.  Its tiles have disjoint interiors, so two of them touch
    iff an endpoint (1d) or a vertex (2d) of one lies on the boundary of
    the other.  2d supports are checked only on degree-1 fields, where
    kernel points are plain integer coordinates."""
    keys = set()
    for tid in system.order:
        types, coords, den = system.grow_lattice(tid, depth)
        types, coords = types.tolist(), coords.tolist()
        form = system.rule_form
        sden = form.den * form.up
        assert den % sden == 0
        shapes = [[[c * (den // sden) for c in row] for row in rows] for rows in form.shapes]
        tiles = [
            [tuple(map(add, v, x)) for v in shapes[k]] for k, x in zip(types, coords)
        ]
        for i, j in _candidates(system, tiles):
            p, q = tiles[i], tiles[j]
            if system.dimension == 1:
                touch = p[1] == q[0] or q[1] == p[0]
            else:
                touch = any(_on_boundary(v, q) for v in p) or any(_on_boundary(v, p) for v in q)
            if touch:
                d = tuple(map(sub, coords[j], coords[i]))
                keys.add((system.order[types[i]], system.order[types[j]], d))
                keys.add((system.order[types[j]], system.order[types[i]], tuple(-x for x in d)))
    return keys


def _candidates(system, tiles):
    """Index pairs i < j of tiles that may touch: all pairs in 1d, pairs
    of meeting bounding boxes in 2d."""
    n = len(tiles)
    if system.dimension == 1:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    pts = np.array(tiles, dtype=object)  # (n, vertices, 2)
    lo, hi = pts.min(axis=1), pts.max(axis=1)
    meet = ((lo[:, None, :] <= hi[None, :, :]) & (lo[None, :, :] <= hi[:, None, :])).all(axis=2)
    return [(i, j) for i, j in zip(*np.nonzero(np.triu(meet, 1)))]


def _on_boundary(p, vertices) -> bool:
    for a, b in zip(vertices, vertices[1:] + vertices[:1]):
        u, v = (b[0] - a[0], b[1] - a[1]), (p[0] - a[0], p[1] - a[1])
        if u[0] * v[1] - u[1] * v[0] == 0 and 0 <= u[0] * v[0] + u[1] * v[1] <= u[0] ** 2 + u[1] ** 2:
            return True
    return False


# (name, count of legal pairs, depth at which omega^depth holds them all)
LEGAL_PAIRS = [
    ("fibonacci", 6, 6),
    ("tm", 8, 5),
    ("np26", 8, 5),
    ("chair", 76, 4),
    ("grid2", 8, 3),
    ("tribonacci", 10, 7),
]


@pytest.mark.parametrize("name, count, depth", LEGAL_PAIRS)
def test_legal_pairs_match_touching_pairs(systems, name, count, depth):
    system = systems[name] if name in systems else parse_system(TRIBONACCI)
    pairs = legal_pairs(system)
    assert len(pairs) == count
    assert pairs == touching_pairs(system, depth)
    # a pair seen from its other tile is a pair too
    assert pairs == {(b, a, tuple(-x for x in d)) for a, b, d in pairs}


def test_legal_pairs_fibonacci_frozen(fib):
    # a has length theta, b length 1 (den 1, coordinates (1, theta)):
    # ab, ba and aa occur, each seen from both tiles, and bb never
    assert legal_pairs(fib) == {
        ("a", "b", (0, 1)), ("b", "a", (0, -1)),
        ("b", "a", (1, 0)), ("a", "b", (-1, 0)),
        ("a", "a", (0, 1)), ("a", "a", (0, -1)),
    }


def test_legal_pairs_grid(grid2):
    # the unit square meets its eight neighbours, corners included
    d = grid2.lattice_form().den
    steps = {(x * d, y * d) for x in (-1, 0, 1) for y in (-1, 0, 1)} - {(0, 0)}
    assert legal_pairs(grid2) == {("sq", "sq", step) for step in steps}


def test_legal_pairs_of_a_product_are_products(fib):
    # 2d over Q(golden): two product tiles touch iff their x intervals and
    # their y intervals each touch or coincide
    same = {(t, t, (0, 0)) for t in fib.order}
    line = legal_pairs(fib) | same
    product = system_from_dict(fibonacci_product())
    assert product.lattice_form().den == fib.lattice_form().den == 1
    expected = {
        (a + c, b + e, dx + dy) for a, b, dx in line for c, e, dy in line
    } - {(t + u, t + u, (0, 0, 0, 0)) for t in fib.order for u in fib.order}
    assert len(expected) == 60
    assert legal_pairs(product) == expected


def test_legal_pairs_with_supports_over_a_finer_denominator():
    # a 3 x 3 grid whose square is [1/2, 3/2]^2: the rule offsets, and so
    # the keys, are integers, over a denominator the supports do not share
    corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
    data = {
        "name": "grid3-shifted",
        "dimension": 2,
        "theta": {"minpoly": [-3, 1], "approx": "3"},
        "prototiles": [{"id": "sq", "support": {"type": "polygon", "vertices": [
            [[f"{2 * x + 1}/2"], [f"{2 * y + 1}/2"]] for x, y in corners
        ]}}],
        "rules": {"sq": [
            {"tile": "sq", "offset": [[str(x + 1)], [str(y + 1)]]}
            for x in range(3) for y in range(3)
        ]},
    }
    system = system_from_dict(data)
    assert validate(system).valid and system.lattice_form().den == 1
    steps = {(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)} - {(0, 0)}
    assert legal_pairs(system) == {("sq", "sq", step) for step in steps}


def test_legal_pairs_chair(chair, monkeypatch):
    pairs = legal_pairs(chair)
    # every rotation meets every rotation, itself included
    assert {(a, b) for a, b, _ in pairs} == {(a, b) for a in chair.order for b in chair.order}
    # the budget bounds the number of pairs
    monkeypatch.setattr(tiles, "DEFAULT_GROW_BUDGET", len(pairs))
    assert legal_pairs(chair) == pairs
    monkeypatch.setattr(tiles, "DEFAULT_GROW_BUDGET", len(pairs) - 1)
    with pytest.raises(BudgetError, match="legal pairs"):
        legal_pairs(chair)


def test_overlap_inscribed_diamond(grid2):
    # diamond touching the square's edge midpoints: no proper crossings,
    # no strictly interior vertices, still an interior overlap
    from tilingspectra.geometry import interiors_overlap

    K = grid2.field
    sq = [(0, 0), (2, 0), (2, 2), (0, 2)]
    diamond = [(1, 0), (2, 1), (1, 2), (0, 1)]
    assert interiors_overlap(K, sq, diamond)
    assert interiors_overlap(K, diamond, sq)


CHAIN_FIELDS = [
    NumberField(make_algebraic(IntPoly([-2, 1]), 2)),
    golden_field(),
    NumberField(make_algebraic(IntPoly((-1, -1, -1, 1)), Fraction(184, 100))),
]


def ref_chain(field, segs, region):
    """The endpoint chain check as it was: sort by exact start, then
    compare neighbours."""
    segs = sorted(segs, key=lambda seg: field.elem(list(seg[0])))
    start, end = region
    if segs[0][0] != start:
        return False, "first child does not start at 0"
    if any(a[1] != b[0] for a, b in zip(segs, segs[1:])):
        return False, "gap or overlap in the endpoint chain"
    if segs[-1][1] != end:
        return False, "last child does not reach theta * length"
    return True, ""


@st.composite
def chains(draw):
    """(field, segments, region): a chain of positive-length segments
    covering (0, end), then broken one way, and shuffled."""
    field = draw(st.sampled_from(CHAIN_FIELDS))
    s = field.degree
    # increasing kernel points: small combinations of the power basis
    pool = sorted(
        {tuple([a] + [b] * (s > 1) + [0] * (s - 2)) for a in range(-3, 6) for b in range(3)},
        key=lambda e: field.elem(list(e)),
    )
    zero = pool.index((0,) * s)
    cuts = sorted(draw(st.sets(st.integers(zero + 1, len(pool) - 1), min_size=1, max_size=5)))
    points = [pool[zero]] + [pool[i] for i in cuts]
    segs = list(zip(points, points[1:]))
    region = (points[0], points[-1])
    kind = draw(st.sampled_from(["valid", "gap", "overlap", "duplicate", "before", "past", "random"]))
    if kind == "gap" and len(segs) > 1:
        segs.pop(draw(st.integers(0, len(segs) - 2)))
    elif kind == "overlap" and len(segs) > 1:
        k = draw(st.integers(0, len(segs) - 2))
        segs[k] = (segs[k][0], segs[k + 1][1])
    elif kind == "duplicate":
        a, b = segs[draw(st.integers(0, len(segs) - 1))]
        later = [e for e in pool[pool.index(a) + 1 :] if e != b]
        segs.append((a, draw(st.sampled_from(later or [b]))))
    elif kind == "before":
        segs[0] = (pool[draw(st.integers(0, zero - 1))], segs[0][1])
    elif kind == "past" and cuts[-1] < len(pool) - 1:
        segs[-1] = (segs[-1][0], pool[draw(st.integers(cuts[-1] + 1, len(pool) - 1))])
    elif kind == "random":
        pairs = st.tuples(st.integers(0, len(pool) - 2), st.integers(1, len(pool) - 1))
        drawn = draw(st.lists(pairs.filter(lambda ij: ij[0] < ij[1]), min_size=1, max_size=5))
        segs = [(pool[i], pool[j]) for i, j in drawn]
    return field, draw(st.permutations(segs)), region


@settings(max_examples=300, deadline=None)
@given(chains())
def test_chain_walk_matches_sorted_reference(case):
    field, segs, region = case
    assert _chain(field, list(segs), region) == ref_chain(field, segs, region)
