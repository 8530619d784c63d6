"""Command-line interface.

Every command prints one machine-readable JSON object to stdout
(newline-terminated, byte-deterministic for fixed inputs) and a short
human summary to stderr.  Exit codes: 0 on success regardless of boolean
verdict values, 1 on validation or domain errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import SystemFileError, TilingError, UndecidedError, ValidationError
from .pisot import is_pisot
from .returns import (
    algebraic_integer_check,
    control_points,
    enumerate_returns,
    kenyon_basis,
    phi_action,
    verify_control_point_dynamics,
)
from .spectra import (
    Alpha,
    convergence_diagnostic,
    eigenvalue_module,
    eigenvalue_report,
    system_module,
    system_pisot,
    weak_mixing,
)
from .svg import RenderSpec, render_svg
from .systemfile import _parse_vec, parse_system, read_system
from .tiles import is_primitive, validate


class _ParserExit(Exception):
    """(status, text) of a usage error or --help: text for stdout when the
    status is 0, for stderr otherwise."""


class _Parser(argparse.ArgumentParser):
    """Raises where argparse would print to the process's streams and exit,
    so that cli_dispatch writes to the streams it was given.  Subparsers
    are of this class too."""

    def print_help(self, file=None):
        raise _ParserExit(0, self.format_help())

    def error(self, message):
        raise _ParserExit(2, f"{self.format_usage()}{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="tilingspectra",
        description="Exact spectral analysis of substitution tilings",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def with_file(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("file", help="system description JSON file")
        return sp

    with_file("validate", "check the subdivision rules exactly")
    with_file("matrix", "print the substitution matrix")
    with_file("primitive", "primitivity with a witness exponent")
    with_file("pisot", "exact Pisot verdict for the expansion")

    g = with_file("grow", "expand a prototile n times")
    g.add_argument("--tile", required=True)
    g.add_argument("--depth", type=int, required=True)
    g.add_argument("--out", help="write the patch JSON to this path")

    r = with_file("render", "render a grown patch to SVG")
    r.add_argument("--tile", required=True)
    r.add_argument("--depth", type=int, required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--scale", type=float, default=40.0)

    rt = with_file("returns", "sample return vectors")
    rt.add_argument("--depth", type=int, required=True)
    rt.add_argument("--basis", action="store_true", help="include the group basis and M")

    with_file("control-points", "exact tile-map fixed points")

    k = with_file("kenyon", "integer-coordinate basis for the returns")
    k.add_argument("--depth", type=int, required=True)

    e = sub.add_parser("eigen", help="eigenvalue queries")
    esub = e.add_subparsers(dest="eigen_command", required=True)
    ec = esub.add_parser("check", help="decide a candidate eigenvalue")
    ec.add_argument("file")
    ec.add_argument("--alpha", required=True, help="JSON coordinates")
    em = esub.add_parser("module", help="generators of verified eigenvalues")
    em.add_argument("file")

    with_file("weakmixing", "the spectral dichotomy verdict")

    c = with_file("converge", "exact phase-convergence diagnostics")
    c.add_argument("--alpha", required=True, help="JSON coordinates")
    c.add_argument("--steps", type=int, required=True)
    c.add_argument("--z", help="JSON return vector (default: first group generator)")

    return p


# built once: parsing reads the parser and never changes it, so threads share it
_PARSER = build_parser()


def _emit(out, payload):
    out.write(json.dumps(payload) + "\n")


def _vector_arg(system, text: str, label: str):
    """The vector that --alpha or --z gives as JSON: coordinates as in
    system files, or for short a flat list of the d entries' rationals,
    of the s power-basis coordinates of a 1d vector, or one rational.  A
    rational x of a short form stands for the entry [x, 0, ..., 0].
    Input that is not such a vector raises SystemFileError."""
    try:
        # JSON integers as their digits: a coordinate is read from text either way
        data = json.loads(text, parse_int=str)
    except json.JSONDecodeError as exc:
        raise SystemFileError(f"{label} is not valid JSON: {exc.msg}", label) from None
    except RecursionError:  # the decoder recurses once per nesting level
        raise SystemFileError("JSON nested too deeply", label) from None
    where = _boolean_at(data, label)
    if where:  # Python reads JSON true as 1, a coordinate the user never wrote
        raise SystemFileError("expected 'p/q' strings or integers, got a boolean", where)
    d, s = system.dimension, system.field.degree
    if isinstance(data, str):
        data = [data]
    if isinstance(data, list) and data and all(isinstance(x, str) for x in data):
        if len(data) == s and d == 1:
            data = [data]
        elif len(data) == d:
            data = [[x] + ["0"] * (s - 1) for x in data]
        else:
            raise SystemFileError(
                f"cannot interpret a flat list of {len(data)} entries "
                f"for dimension {d}, degree {s}",
                label,
            )
    if not isinstance(data, list) or not all(isinstance(coord, list) for coord in data):
        raise SystemFileError(f"expected a vector of {d} coordinates", label)
    return _parse_vec(data, system.field, d, label)


def _boolean_at(data, path: str):
    """The path of the first JSON boolean in data, a JSON value, or None;
    depth-first without recursion, so any nesting the decoder accepts is
    walked."""
    stack = [(data, path)]
    while stack:
        item, where = stack.pop()
        if isinstance(item, bool):
            return where
        if isinstance(item, list):
            stack.extend((x, f"{where}[{k}]") for k, x in reversed(list(enumerate(item))))
    return None


def cli_dispatch(argv, stdout=None, stderr=None) -> int:
    out = stdout or sys.stdout
    err = stderr or sys.stderr
    try:
        args = _PARSER.parse_args(argv)
    except _ParserExit as exc:
        status, text = exc.args
        (out if status == 0 else err).write(text)
        return status
    try:
        return _run(args, out, err)
    except UndecidedError as exc:
        _emit(out, {"undecided": str(exc)})
        print(f"undecided within budget: {exc}", file=err)
        return 0
    except (SystemFileError, ValidationError, TilingError, OSError) as exc:
        _emit(out, {"error": str(exc)})
        print(f"error: {exc}", file=err)
        return 1


def _run(args, out, err) -> int:
    cmd = args.command

    if cmd == "validate":
        # report even when invalid, with exit code 1
        system = read_system(args.file)
        report = validate(system)
        payload = report.as_dict()
        _emit(out, payload)
        print(
            f"{system.name}: {'valid' if report.valid else 'INVALID'} "
            f"({len(report.checks)} checks)",
            file=err,
        )
        return 0 if report.valid else 1

    system = parse_system(args.file)

    if cmd == "matrix":
        _emit(
            out,
            {
                "system": system.name,
                "prototiles": list(system.order),
                "matrix": system.substitution_matrix(),
            },
        )
        print(f"{system.name}: {len(system.order)} prototiles", file=err)
    elif cmd == "primitive":
        ok, k, bound = is_primitive(system.substitution_matrix())
        _emit(
            out,
            {
                "system": system.name,
                "primitive": ok,
                "witness_exponent": k,
                "wielandt_bound": bound,
            },
        )
        print(f"{system.name}: primitive={ok} (k={k})", file=err)
    elif cmd == "pisot":
        cert = is_pisot(system.theta)
        payload = {"system": system.name}
        payload.update(cert.as_dict())
        _emit(out, payload)
        print(f"{system.name}: pisot={cert.pisot}", file=err)
    elif cmd == "grow":
        patch = system.grow(args.tile, args.depth)
        payload = {
            "system": system.name,
            "tile": args.tile,
            "depth": args.depth,
            "count": len(patch),
            "patch": patch.serialize(),
        }
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(payload["patch"], fh)
                fh.write("\n")
            payload["out"] = args.out
        _emit(out, payload)
        print(f"{system.name}: omega^{args.depth}({args.tile}) has {len(patch)} tiles", file=err)
    elif cmd == "render":
        patch = system.grow(args.tile, args.depth)
        spec = RenderSpec(out_path=args.out, scale=args.scale)
        data = render_svg(system, patch, spec)
        _emit(
            out,
            {
                "system": system.name,
                "tile": args.tile,
                "depth": args.depth,
                "count": len(patch),
                "out": args.out,
                "bytes": len(data),
            },
        )
        print(f"wrote {args.out} ({len(data)} bytes)", file=err)
    elif cmd == "returns":
        sample = enumerate_returns(system, args.depth)
        payload = {
            "system": system.name,
            "depth": args.depth,
            "count": len(sample),
            "vectors": [v.serialize() for v in sample.vectors],
        }
        if args.basis:
            module = system_module(system)
            M = phi_action(module, system) if module.M is None else module.M
            payload["module"] = module.serialize()
            payload["charpoly_vanishes_at_theta"] = algebraic_integer_check(
                M, system.field
            )
        _emit(out, payload)
        print(f"{system.name}: {len(sample)} return vectors at depth {args.depth}", file=err)
    elif cmd == "control-points":
        cps = control_points(system)
        payload = {"system": system.name}
        payload.update(cps.serialize())
        payload["dynamics_verified_depth"] = 3
        payload["dynamics_ok"] = verify_control_point_dynamics(system, cps, 3)
        _emit(out, payload)
        print(f"{system.name}: control points solved exactly", file=err)
    elif cmd == "kenyon":
        module = system_module(system)
        kb = kenyon_basis(system, module, depth=args.depth)
        payload = {"system": system.name, "depth": args.depth}
        payload.update(kb.serialize())
        _emit(out, payload)
        print(
            f"{system.name}: verified integer coordinates for {kb.verified_count} returns",
            file=err,
        )
    elif cmd == "eigen":
        if args.eigen_command == "check":
            alpha = Alpha(_vector_arg(system, args.alpha, "alpha"))
            report = eigenvalue_report(system, alpha)
            payload = {"system": system.name}
            payload.update(report.serialize())
            _emit(out, payload)
            print(f"{system.name}: eigenvalue={report.eigenvalue}", file=err)
        else:
            emod = eigenvalue_module(system)
            payload = {"system": system.name, "pisot": system_pisot(system).pisot}
            payload.update(emod.serialize())
            _emit(out, payload)
            print(f"{system.name}: {len(emod.generators)} generators", file=err)
    elif cmd == "weakmixing":
        verdict = weak_mixing(system)
        payload = {"system": system.name}
        payload.update(verdict.serialize())
        _emit(out, payload)
        print(f"{system.name}: weak_mixing={verdict.weak_mixing}", file=err)
    elif cmd == "converge":
        alpha = Alpha(_vector_arg(system, args.alpha, "alpha"))
        if args.z:
            z = _vector_arg(system, args.z, "z")
        else:
            z = system_module(system).generators[0]
        rep = convergence_diagnostic(system, alpha, z, args.steps)
        payload = {
            "system": system.name,
            "alpha": alpha.serialize(),
            "z": z.serialize(),
            "steps": args.steps,
        }
        payload.update(rep.serialize())
        _emit(out, payload)
        rate = "exact zero" if rep.exact_zero_tail else format(rep.fitted_rate or 0.0, ".4f")
        print(f"{system.name}: fitted rate {rate}", file=err)
    else:  # pragma: no cover - argparse guards the command set
        raise TilingError(f"unknown command {cmd!r}")
    return 0


def main():
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
