from fractions import Fraction

import pytest

from tilingspectra import BudgetError, TilingError, ValidationError
from tilingspectra.corpus import load
from tilingspectra.lattice import int_matrix_power
from tilingspectra.systemfile import system_from_dict, serialize_system
from tilingspectra.tiles import (
    flc_probe,
    is_primitive,
    perron_check,
    tile_frequencies,
    validate,
)


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
        stepped = system.substitute_patch(system.grow(tid, 2))
        assert [t.key() for t in p3] == [t.key() for t in stepped]


def test_grow_budget(fib):
    with pytest.raises(BudgetError):
        fib.grow("a", 30, budget=100)


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
    counts = fib.grow("a", 10).type_counts(fib.order)
    total = sum(counts)
    for c, f in zip(counts, freqs):
        assert abs(c / total - f) < 0.02
    assert tile_frequencies(grid2.substitution_matrix()) == (1.0,)


def test_flc_probe_fibonacci_frozen(fib):
    # R = 27/10: classes are {a}, {b}, {ab}, {ba}: pair diameters
    # theta+1 ~ 2.618 < 2.7; aa ~ 3.24 and bb never adjacent.
    rep = flc_probe(fib, Fraction(27, 10), 5)
    assert rep.count == 4
    assert rep.stabilized
    # radius between the two lengths: only the singletons fit
    rep2 = flc_probe(fib, Fraction(17, 10), 5)
    assert rep2.count == 2 and rep2.stabilized
    rep3 = flc_probe(fib, Fraction(12, 10), 5)
    assert rep3.count == 1  # tile a alone is already longer than 1.2


def test_flc_probe_grid(grid2):
    rep = flc_probe(grid2, Fraction(15, 10), 2)
    # only the single square fits: an adjacent pair spans sqrt(5) > 1.5
    assert rep.count == 1 and rep.stabilized
    rep2 = flc_probe(grid2, Fraction(23, 10), 2)
    # single square, horizontal pair, vertical pair; the diagonal pair
    # spans sqrt(8) and any triple at least sqrt(8)
    assert rep2.count == 3
    assert rep2.stabilized


def test_flc_probe_chair(chair):
    # a single L-tile spans sqrt(8) ~ 2.83, so nothing fits below that
    rep = flc_probe(chair, Fraction(22, 10), 2)
    assert rep.count == 0
    rep2 = flc_probe(chair, Fraction(29, 10), 2)
    assert rep2.count == 4 and rep2.stabilized  # the four rotations


def test_overlap_inscribed_diamond(grid2):
    # diamond touching the square's edge midpoints: no proper crossings,
    # no strictly interior vertices, still an interior overlap
    from tilingspectra.geometry import Polygon, interiors_overlap

    K = grid2.field
    sq = Polygon([K.vec([0, 0]), K.vec([2, 0]), K.vec([2, 2]), K.vec([0, 2])])
    diamond = Polygon([K.vec([1, 0]), K.vec([2, 1]), K.vec([1, 2]), K.vec([0, 1])])
    assert interiors_overlap(sq, diamond)
    assert interiors_overlap(diamond, sq)
