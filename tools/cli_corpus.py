"""CLI byte-identity corpus: one digest line per command.

Runs `cli_dispatch` in-process over the five bundled systems, tribonacci
and grid2-plain, and `validate` on a few broken system files derived
from them, and prints for each command one line

    sha256(stdout) sha256(stderr) sha256(svg) exit argv

with `-` as the SVG digest of a command that writes no SVG.  A change
that keeps every byte the CLI prints keeps this output.  Run from the
repository root:

    python3 tools/cli_corpus.py > tools/cli_corpus.txt          # record
    python3 tools/cli_corpus.py | diff tools/cli_corpus.txt -   # check

The commands run in a temporary directory holding copies of the system
files, so neither argv nor any output names the checkout's location.
"""

import hashlib
import io
import json
import os
import pathlib
import shlex
import shutil
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tilingspectra.cli import cli_dispatch  # noqa: E402

SYSTEMS = {
    "fibonacci": "src/tilingspectra/systems/fibonacci.json",
    "tm": "src/tilingspectra/systems/tm.json",
    "np26": "src/tilingspectra/systems/np26.json",
    "chair": "src/tilingspectra/systems/chair.json",
    "grid2": "src/tilingspectra/systems/grid2.json",
    "tribonacci": "perfbench/systems/tribonacci.json",
    "grid2-plain": "perfbench/systems/grid2-plain.json",
}


# broken copies of bundled systems, name -> (source system, mutation);
# `validate` on each exits 1, which pins the bytes of failure paths
BROKEN = {
    "grid2-overlap": ("grid2", lambda s: s["rules"]["sq"][1].update(offset=[["1/2"], ["0"]])),
    "grid2-badperiod": ("grid2", lambda s: s.update(periods=[[["1/2"], ["0"]]])),
    "chair-moved": (
        "chair",
        lambda s: s["prototiles"][0]["support"]["vertices"].__setitem__(3, [["3/2"], ["3/2"]]),
    ),
    "tm-past-end": ("tm", lambda s: s["rules"]["a"][1].update(offset=[["2"]])),
    "tm-late-start": ("tm", lambda s: s["rules"]["a"][0].update(offset=[["1/2"]])),
    "fibonacci-gap": ("fibonacci", lambda s: s["rules"]["a"][1].update(offset=[["1/2", "1"]])),
    # more digits than int() reads from text (4,300 by default)
    "tm-long-offset": ("tm", lambda s: s["rules"]["a"][1].update(offset=[["1" + "0" * 5000 + "/3"]])),
    "fibonacci-long-approx": ("fibonacci", lambda s: s["theta"].update(approx="1." + "6" * 5000)),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv, lines):
    """Run one command, append its line, return (exit, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    code = cli_dispatch(argv, out, err)
    svg = "-"
    if argv[0] == "render" and code == 0:
        svg = _digest(pathlib.Path(argv[argv.index("--out") + 1]).read_bytes())
    text = out.getvalue()
    lines.append(
        f"{_digest(text.encode())} {_digest(err.getvalue().encode())} {svg} {code} "
        f"{shlex.join(argv)}"
    )
    return code, text


def commands_of(name, lines):
    """Every corpus command on system `name`, whose file is `name`.json
    in the working directory."""
    path = f"{name}.json"
    spec = json.loads(pathlib.Path(path).read_text())
    d = spec["dimension"]
    s = len(spec["theta"]["minpoly"]) - 1
    tile = spec["prototiles"][0]["id"]
    for cmd in ("validate", "matrix", "primitive", "pisot", "weakmixing"):
        run([cmd, path], lines)
    code, text = run(["eigen", "module", path], lines)
    generators = json.loads(text).get("generators", []) if code == 0 else []
    for gen in generators:
        run(["eigen", "check", path, "--alpha", json.dumps(gen)], lines)
    run(["control-points", path], lines)
    for depth in ("2", "3", "4"):
        run(["kenyon", path, "--depth", depth], lines)
    run(["returns", path, "--depth", "3", "--basis"], lines)
    alpha = json.dumps([["1/3"] + ["0"] * (s - 1)] * d)
    run(["converge", path, "--alpha", alpha, "--steps", "16"], lines)
    run(["grow", path, "--tile", tile, "--depth", "3"], lines)
    run(["render", path, "--tile", tile, "--depth", "2", "--out", f"{name}.svg"], lines)


def corpus_lines():
    lines = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, rel in SYSTEMS.items():
            shutil.copyfile(ROOT / rel, pathlib.Path(tmp) / f"{name}.json")
        for name, (source, mutate) in BROKEN.items():
            spec = json.loads((ROOT / SYSTEMS[source]).read_text())
            mutate(spec)
            (pathlib.Path(tmp) / f"{name}.json").write_text(json.dumps(spec))
        os.chdir(tmp)
        try:
            for name in SYSTEMS:
                commands_of(name, lines)
            for name in BROKEN:
                run(["validate", f"{name}.json"], lines)
        finally:
            os.chdir(here)
    return lines


if __name__ == "__main__":
    sys.stdout.write("".join(line + "\n" for line in corpus_lines()))
