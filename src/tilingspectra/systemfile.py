"""JSON description files for substitution systems.

All coordinates are exact: rationals are "p/q" strings (lowest terms,
positive denominator) and a Q(theta) value is an array of exactly
deg(minpoly) such strings in power-basis order.  Parse failures carry the
offending field path; a parsed system has already passed full geometric
validation.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, lcm

from .algebraic import make_algebraic
from .errors import SystemFileError, TilingError
from .field import NumberField, QThetaElem, QThetaVec, parse_rational
from .geometry import Polygon
from .polys import IntPoly
from .tiles import Interval, PlacedTile, Prototile, SubstitutionSystem, validate

_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")
_DECIMAL_RE = re.compile(r"^-?\d+(\.\d+)?$")

# bounds on the minimal polynomial, so that `make_algebraic` (irreducibility
# certificate, square-free test, root isolation) stays within a second
MAX_DEGREE = 24
MAX_COEFFICIENT_BITS = 64  # every |coefficient| is below 2^64


def parse_system(path) -> SubstitutionSystem:
    """Load, parse and validate a system file; raises with diagnostics."""
    system = read_system(path)
    validate(system).raise_if_invalid()
    return system


def read_system(path) -> SubstitutionSystem:
    """Load and parse a system file without geometric validation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SystemFileError(f"cannot read {path}: {exc.strerror or exc}") from None
    try:
        data = json.loads(raw, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise SystemFileError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:  # the decoder recurses once per nesting level
        raise SystemFileError("JSON nested too deeply") from None
    return system_from_dict(data)


def system_from_dict(data) -> SubstitutionSystem:
    """Build a system from parsed JSON (no geometric validation yet)."""
    if not isinstance(data, dict):
        raise SystemFileError("top level must be a JSON object")
    name = _expect(data, "name", str)
    dimension = _expect(data, "dimension", int)
    if dimension not in (1, 2):
        raise SystemFileError("must be 1 or 2", "dimension")

    theta_obj = _expect(data, "theta", dict)
    minpoly_raw = _expect(theta_obj, "minpoly", list, "theta.minpoly")
    if not all(_is_int(c) or isinstance(c, _LongInt) for c in minpoly_raw):
        raise SystemFileError("coefficients must be integers", "theta.minpoly")
    if not all(_is_int(c) and abs(c).bit_length() <= MAX_COEFFICIENT_BITS for c in minpoly_raw):
        raise SystemFileError(
            f"coefficients must be below 2^{MAX_COEFFICIENT_BITS} in absolute value",
            "theta.minpoly",
        )
    try:
        minpoly = IntPoly(minpoly_raw)
    except TilingError as exc:
        raise SystemFileError(str(exc), "theta.minpoly") from None
    if not minpoly.is_monic():
        raise SystemFileError("minimal polynomial must be monic", "theta.minpoly")
    if minpoly.degree > MAX_DEGREE:
        raise SystemFileError(f"degree must be at most {MAX_DEGREE}", "theta.minpoly")
    approx_raw = _expect(theta_obj, "approx", str, "theta.approx")
    if not _DECIMAL_RE.match(approx_raw):
        raise SystemFileError("approx must be a decimal string", "theta.approx")
    try:
        approx = Fraction(approx_raw)
    except ValueError:  # more digits than int() reads from text
        raise SystemFileError("too many digits", "theta.approx") from None
    try:
        theta = make_algebraic(minpoly, approx)
    except TilingError as exc:
        raise SystemFileError(str(exc), "theta") from None
    field = NumberField(theta)
    s = field.degree

    protos_raw = _expect(data, "prototiles", list)
    if not protos_raw:
        raise SystemFileError("at least one prototile required", "prototiles")
    prototiles = []
    for i, praw in enumerate(protos_raw):
        base = f"prototiles[{i}]"
        if not isinstance(praw, dict):
            raise SystemFileError("must be an object", base)
        tid = _expect(praw, "id", str, f"{base}.id")
        sup_raw = _expect(praw, "support", dict, f"{base}.support")
        stype = _expect(sup_raw, "type", str, f"{base}.support.type")
        if stype == "interval":
            if dimension != 1:
                raise SystemFileError("interval support in a 2d system", f"{base}.support")
            length = _parse_qtheta(
                sup_raw.get("length"), field, f"{base}.support.length"
            )
            try:
                support = Interval(length)
            except TilingError as exc:
                raise SystemFileError(str(exc), f"{base}.support.length") from None
        elif stype == "polygon":
            if dimension != 2:
                raise SystemFileError("polygon support in a 1d system", f"{base}.support")
            verts_raw = _expect(sup_raw, "vertices", list, f"{base}.support.vertices")
            verts = [
                _parse_vec(v, field, dimension, f"{base}.support.vertices[{k}]")
                for k, v in enumerate(verts_raw)
            ]
            try:
                support = Polygon(verts)
            except TilingError as exc:
                raise SystemFileError(str(exc), f"{base}.support.vertices") from None
        else:
            raise SystemFileError(
                f"unknown support type {stype!r}", f"{base}.support.type"
            )
        prototiles.append(Prototile(tid, support))

    ids = {p.id for p in prototiles}
    rules_raw = _expect(data, "rules", dict)
    rules = {}
    for tid, children_raw in rules_raw.items():
        base = f"rules[{tid}]"
        if tid not in ids:
            raise SystemFileError("rule for undeclared prototile", base)
        if not isinstance(children_raw, list):
            raise SystemFileError("must be an array of children", base)
        children = []
        for k, craw in enumerate(children_raw):
            cbase = f"{base}[{k}]"
            if not isinstance(craw, dict):
                raise SystemFileError("must be an object", cbase)
            ctile = _expect(craw, "tile", str, f"{cbase}.tile")
            if ctile not in ids:
                raise SystemFileError(
                    f"references undeclared prototile {ctile!r}", f"{cbase}.tile"
                )
            offset = _parse_vec(
                craw.get("offset"), field, dimension, f"{cbase}.offset"
            )
            children.append(PlacedTile(ctile, offset))
        rules[tid] = children

    control_child = {}
    if "control_child" in data and data["control_child"] is not None:
        cc_raw = data["control_child"]
        if not isinstance(cc_raw, dict):
            raise SystemFileError("must be an object", "control_child")
        for tid, idx in cc_raw.items():
            if tid not in ids:
                raise SystemFileError("unknown prototile", f"control_child[{tid}]")
            if not _is_int(idx):
                raise SystemFileError("index must be an integer", f"control_child[{tid}]")
            control_child[tid] = idx

    periods = []
    if "periods" in data and data["periods"] is not None:
        if not isinstance(data["periods"], list):
            raise SystemFileError("must be an array of vectors", "periods")
        for k, vraw in enumerate(data["periods"]):
            periods.append(_parse_vec(vraw, field, dimension, f"periods[{k}]"))

    try:
        return SubstitutionSystem(
            name=name,
            field=field,
            prototiles=prototiles,
            rules=rules,
            control_child=control_child,
            declared_periods=periods,
            dimension=dimension,
        )
    except TilingError as exc:
        raise SystemFileError(str(exc)) from None


def serialize_system(system: SubstitutionSystem) -> dict:
    """Canonical JSON form; parse(serialize(x)) reproduces x exactly."""
    theta_dec = system.field.theta.to_decimal(12)
    out = {
        "name": system.name,
        "dimension": system.dimension,
        "theta": {
            "minpoly": list(system.field.minpoly.coeffs),
            "approx": _plain_decimal(theta_dec),
        },
        "prototiles": [],
        "rules": {},
    }
    for tid in system.order:
        proto = system.prototiles[tid]
        if isinstance(proto.support, Interval):
            sup = {"type": "interval", "length": proto.support.length.serialize()}
        else:
            sup = {
                "type": "polygon",
                "vertices": [v.serialize() for v in proto.support.vertices],
            }
        out["prototiles"].append({"id": tid, "support": sup})
    for tid in system.order:
        out["rules"][tid] = [
            {"tile": ch.proto, "offset": ch.offset.serialize()}
            for ch in system.rules[tid]
        ]
    if system.control_child:
        out["control_child"] = dict(system.control_child)
    if system.declared_periods:
        out["periods"] = [v.serialize() for v in system.declared_periods]
    return out


def _plain_decimal(text: str) -> str:
    if "e" in text or "E" in text:
        f = Fraction(float(text)).limit_denominator(10**12)
        return f"{float(f):.12f}"
    return text


def dump_system(system: SubstitutionSystem, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize_system(system), fh, indent=2)
        fh.write("\n")


def _expect(obj, key, typ, path=None):
    path = path or key
    if not isinstance(obj, dict) or key not in obj:
        raise SystemFileError("missing required field", path)
    val = obj[key]
    if not (_is_int(val) if typ is int else isinstance(val, typ)):
        raise SystemFileError(f"expected {typ.__name__}", path)
    return val


class _LongInt:
    """A JSON integer of more digits than int() reads from text (see
    sys.get_int_max_str_digits), which no field takes."""

    def __repr__(self):
        return "<integer of too many digits>"


def _json_int(text: str):
    """The JSON decoder's parse_int: the int, or a _LongInt."""
    try:
        return int(text)
    except ValueError:
        return _LongInt()


def _is_int(val) -> bool:
    """A JSON integer: Python reads true/false as the ints 1/0."""
    return isinstance(val, int) and not isinstance(val, bool)


def _parse_qtheta(raw, field: NumberField, path: str):
    if not isinstance(raw, list):
        raise SystemFileError(
            f"expected array of {field.degree} rational strings", path
        )
    if len(raw) != field.degree:
        raise SystemFileError(
            f"expected exactly {field.degree} coordinates, got {len(raw)}", path
        )
    fracs = []  # (numerator, denominator) in lowest terms
    for k, item in enumerate(raw):
        if not isinstance(item, str) or not _RATIONAL_RE.match(item):
            raise SystemFileError(
                f"coordinate must be a 'p/q' string, got {item!r}", f"{path}[{k}]"
            )
        num, _, den = item.partition("/")
        try:
            p, q = int(num), int(den or 1)
        except ValueError:  # more digits than int() reads from text
            raise SystemFileError("too many digits", f"{path}[{k}]") from None
        if q == 0 or gcd(p, q) != 1:  # parse_rational rejects it, or it is 0/q
            try:
                f = parse_rational(item)
            except TilingError as exc:
                raise SystemFileError(str(exc), f"{path}[{k}]") from None
            p, q = f.numerator, f.denominator
        fracs.append((p, q))
    den = lcm(*(q for _, q in fracs))
    return QThetaElem(field, [p * (den // q) for p, q in fracs], den)


def _parse_vec(raw, field: NumberField, dimension: int, path: str) -> QThetaVec:
    if not isinstance(raw, list) or len(raw) != dimension:
        raise SystemFileError(f"expected a vector of {dimension} coordinates", path)
    return field.vec(
        [_parse_qtheta(c, field, f"{path}[{k}]") for k, c in enumerate(raw)]
    )
