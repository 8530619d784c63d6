"""The CLI prints the bytes recorded in tools/cli_corpus.txt, under two
hash seeds, so neither a change of representation nor set and dict
iteration order moves a byte."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_cli_corpus_matches_recorded_digests():
    expected = (ROOT / "tools" / "cli_corpus.txt").read_text().splitlines()
    procs = [
        subprocess.Popen(
            [sys.executable, str(ROOT / "tools" / "cli_corpus.py")],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONHASHSEED": seed},
            text=True,
        )
        for seed in ("0", "1")
    ]
    for seed, proc in enumerate(procs):
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        got = out.splitlines()
        changed = [(a, b) for a, b in zip(expected, got) if a != b]
        assert not changed and len(got) == len(expected), (seed, changed[:5])
