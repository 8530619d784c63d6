"""Seeded draws of generated constant-length systems, checked end to end.

Draw k is `draw_constant_length(random.Random(first_seed + k))` from the
test tree's `generated_systems`: theta = q from 2 to 5, one to four
unit-interval letters and any word of q letters for each, so periodic,
non-primitive and never-a-child draws all occur.  Each draw must pass two
checks:

- the return-group keys of the recursion over the rules
  (`returns._sample_keys`) equal those of all pairwise same-type
  differences of the grown patches at depths 0-4;
- CLI `weakmixing` ends in exit 0 or 1 with a message, never a
  traceback, and exit 0 prints `"pisot": true` and `"weak_mixing":
  false`, since every integer theta >= 2 is Pisot.

Prints one summary line and exits 1 when a draw fails.  Run from the
repository root:

    python3 tools/random_systems.py                  # 10,000 draws
    python3 tools/random_systems.py --draws 500 --first-seed 7
"""

import argparse
import io
import json
import pathlib
import random
import sys
import tempfile
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from generated_systems import draw_constant_length  # noqa: E402
from tilingspectra import returns  # noqa: E402
from tilingspectra.cli import cli_dispatch  # noqa: E402
from tilingspectra.systemfile import system_from_dict  # noqa: E402
from tilingspectra.tiles import is_primitive  # noqa: E402


def check(system, data, path):
    """(problem or None, exit code) of one drawn system and its dict, which
    is written to `path` for the CLI."""
    for depth, key in enumerate(returns._sample_keys(system, range(5))):
        rows, den = returns._return_rows(system, depth)
        if key != (returns._basis_of(rows, den) if len(rows) else None):
            return f"key differs at depth {depth}", None
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    try:
        code = cli_dispatch(["weakmixing", str(path)], out, err)
    except Exception:  # a traceback is what this tool looks for
        return traceback.format_exc(limit=2), None
    verdict = json.loads(out.getvalue())
    if code == 0 and (verdict["pisot"], verdict["weak_mixing"]) != (True, False):
        return f"verdict {verdict}", code
    if code not in (0, 1) or (code == 1 and not err.getvalue()):
        return f"exit {code} with stderr {err.getvalue()!r}", code
    return None, code


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--draws", type=int, default=10_000)
    p.add_argument("--first-seed", type=int, default=0)
    args = p.parse_args()
    start = time.perf_counter()
    exits, failed, never_child, non_primitive = {0: 0, 1: 0}, [], 0, 0
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "generated.json"
        for seed in range(args.first_seed, args.first_seed + args.draws):
            data = draw_constant_length(random.Random(seed))
            system = system_from_dict(data)
            never_child += not all(any(row) for row in system.substitution_matrix())
            non_primitive += not is_primitive(system.substitution_matrix())[0]
            problem, code = check(system, data, path)
            if code in exits:
                exits[code] += 1
            if problem:
                failed.append((seed, problem))
    for seed, problem in failed[:5]:
        print(f"seed {seed}: {problem}", file=sys.stderr)
    print(
        f"draws {args.draws} (seeds {args.first_seed}-{args.first_seed + args.draws - 1}): "
        f"{args.draws - len(failed)} passed, {len(failed)} failed; weakmixing exit 0: "
        f"{exits[0]}, exit 1: {exits[1]}; a letter no child: {never_child}; "
        f"not primitive: {non_primitive}; {time.perf_counter() - start:.1f} s"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
