import hashlib
import io
import json
import subprocess
import sys
import threading

import pytest

from tilingspectra import SystemFileError
from tilingspectra.cli import build_parser, cli_dispatch
from tilingspectra.corpus import corpus_path, load
from tilingspectra.svg import RenderSpec, render_svg
from tilingspectra.systemfile import (
    parse_system,
    serialize_system,
    system_from_dict,
)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_dispatch(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def corpus_file(name):
    return str(corpus_path(name))


# ---------------------------------------------------------------------------
# system files


def test_roundtrip_exact(systems):
    for system in systems.values():
        data = serialize_system(system)
        again = system_from_dict(data)
        assert serialize_system(again) == data
        assert again.substitution_matrix() == system.substitution_matrix()
        for tid in system.order:
            for a, b in zip(system.rules[tid], again.rules[tid]):
                assert a.key() == b.key()


def test_non_monic_minpoly_names_field(tmp_path):
    data = json.loads(open(corpus_file("fibonacci")).read())
    data["theta"]["minpoly"] = [-1, -1, 2]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    with pytest.raises(SystemFileError) as exc:
        parse_system(p)
    assert "theta.minpoly" in str(exc.value)


def test_unknown_child_reference(tmp_path):
    data = json.loads(open(corpus_file("fibonacci")).read())
    data["rules"]["a"][0]["tile"] = "c"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    with pytest.raises(SystemFileError) as exc:
        parse_system(p)
    assert "rules[a][0].tile" in str(exc.value)


def test_malformed_json_reports_line(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"name": "x",\n  "dimension": }\n')
    with pytest.raises(SystemFileError) as exc:
        parse_system(p)
    assert "line 2" in str(exc.value)


def test_non_canonical_rational_rejected(tmp_path):
    data = json.loads(open(corpus_file("fibonacci")).read())
    data["prototiles"][1]["support"]["length"] = ["2/4", "0"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    with pytest.raises(SystemFileError) as exc:
        parse_system(p)
    assert "lowest terms" in str(exc.value)


# ---------------------------------------------------------------------------
# svg


def test_svg_deterministic_and_counts(tmp_path, chair):
    patch = chair.grow("NE", 3)
    assert len(patch) == 64
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    d1 = render_svg(chair, patch, RenderSpec(out_path=str(out1)))
    d2 = render_svg(chair, patch, RenderSpec(out_path=str(out2)))
    assert d1 == d2
    assert d1.count(b"<polygon") == 64
    assert d1.startswith(b'<?xml version="1.0"')
    assert b"</svg>" in d1


def test_svg_1d_rectangles(tmp_path, fib):
    patch = fib.grow("a", 5)
    assert len(patch) == 13  # F(7)
    data = render_svg(fib, patch, RenderSpec(out_path=str(tmp_path / "f.svg")))
    assert data.count(b"<polygon") == 13


def test_svg_empty_patch(tmp_path, fib):
    from tilingspectra.tiles import Patch

    data = render_svg(fib, Patch([]), RenderSpec(out_path=str(tmp_path / "e.svg")))
    assert data.count(b"<polygon") == 0
    assert b"<svg" in data and b"</svg>" in data


# ---------------------------------------------------------------------------
# cli


def test_cli_weakmixing_np26():
    code, out, err = run_cli("weakmixing", corpus_file("np26"))
    assert code == 0
    payload = json.loads(out)
    assert payload["pisot"] is False
    assert payload["weak_mixing"] is True
    assert payload["witness"] is None
    assert out.endswith("\n")


def test_cli_pisot_fibonacci():
    code, out, _ = run_cli("pisot", corpus_file("fibonacci"))
    assert code == 0
    payload = json.loads(out)
    assert payload["pisot"] is True
    assert payload["conjugate_moduli"][0].startswith("0.618")


def test_cli_missing_file_exit_1():
    code, out, err = run_cli("grow", "missing.json", "--tile", "a", "--depth", "2")
    assert code == 1
    assert "missing.json" in json.loads(out)["error"]


def test_cli_usage_error_exit_2():
    code, _, _ = run_cli("frobnicate", corpus_file("fibonacci"))
    assert code == 2
    code, _, _ = run_cli("grow", corpus_file("fibonacci"), "--bogus")
    assert code == 2


def test_cli_usage_errors_and_help_use_the_given_streams(capsys):
    """argparse's usage errors and --help text go to the streams given to
    cli_dispatch; nothing reaches the process's own stdout or stderr."""
    usage = build_parser().format_usage()
    code, out, err = run_cli("bogus")
    assert (code, out) == (2, "")
    assert err.startswith(usage)
    assert "tilingspectra: error: argument command: invalid choice: 'bogus'" in err
    code, out, err = run_cli("grow", corpus_file("fibonacci"))
    assert (code, out) == (2, "")
    assert err.endswith(
        "tilingspectra grow: error: the following arguments are required: --tile, --depth\n"
    )
    code, out, err = run_cli("--help")
    assert (code, out, err) == (0, build_parser().format_help(), "")
    code, out, err = run_cli("eigen", "check", "-h")
    assert code == 0 and out.startswith("usage: tilingspectra eigen check") and err == ""
    assert capsys.readouterr() == ("", "")


def test_cli_threads_share_one_parser():
    """Six barrier-released threads running a mix of commands (usage errors
    included) through the shared parser print what a serial run prints."""
    fib, tm = corpus_file("fibonacci"), corpus_file("tm")
    commands = [
        ["pisot", fib],
        ["matrix", tm],
        ["weakmixing", corpus_file("np26")],
        ["eigen", "check", tm, "--alpha", '"1/3"'],
        ["returns", "--depth", "3", "--basis", fib],
        ["kenyon", "--depth", "3", tm],
        ["validate", fib],
        ["bogus"],
        ["grow", fib],
    ]
    expected = [run_cli(*argv) for argv in commands]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        barrier = threading.Barrier(6)
        results = [None] * 6

        def work(i):
            barrier.wait(timeout=30)
            order = commands[i:] + commands[:i]
            got = [run_cli(*argv) for argv in order]
            results[i] = got[len(commands) - i :] + got[: len(commands) - i]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(old_interval)
    for got in results:
        assert got == expected


def test_cli_validate_invalid_exit_1(tmp_path):
    data = json.loads(open(corpus_file("fibonacci")).read())
    data["prototiles"][1]["support"]["length"] = ["2", "0"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    code, out, _ = run_cli("validate", str(p))
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False


def test_cli_grow_and_out(tmp_path):
    out_path = tmp_path / "patch.json"
    code, out, _ = run_cli(
        "grow", corpus_file("fibonacci"), "--tile", "a", "--depth", "2",
        "--out", str(out_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert json.loads(out_path.read_text()) == payload["patch"]


def test_cli_eigen_check_flat_alpha():
    code, out, _ = run_cli(
        "eigen", "check", corpus_file("fibonacci"), "--alpha", '["1", "0"]'
    )
    assert code == 0
    assert json.loads(out)["eigenvalue"] is True
    code, out, _ = run_cli(
        "eigen", "check", corpus_file("fibonacci"), "--alpha", '["1/3", "0"]'
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["eigenvalue"] is False
    assert payload["generators"][0]["trace"]["period"] > 0


def test_cli_eigen_check_2d():
    code, out, _ = run_cli(
        "eigen", "check", corpus_file("grid2"), "--alpha", '[["1/2"], ["0"]]'
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["eig1"] is True and payload["eig2"] is False


def test_cli_eigen_module_and_returns_basis():
    code, out, _ = run_cli("eigen", "module", corpus_file("tm"))
    assert code == 0
    payload = json.loads(out)
    assert payload["pisot"] is True
    assert payload["generators"]
    code, out, _ = run_cli("returns", corpus_file("tm"), "--depth", "3", "--basis")
    assert code == 0
    payload = json.loads(out)
    assert payload["module"]["M"] == [[2]]
    assert payload["charpoly_vanishes_at_theta"] is True


def test_cli_converge():
    code, out, _ = run_cli(
        "converge", corpus_file("fibonacci"), "--alpha", '["1", "0"]', "--steps", "24"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["values"]) == 25
    assert 0.55 <= float(payload["fitted_rate"]) <= 0.68


def test_cli_control_points_and_kenyon():
    code, out, _ = run_cli("control-points", corpus_file("chair"))
    assert code == 0
    assert json.loads(out)["dynamics_ok"] is True
    code, out, _ = run_cli("kenyon", corpus_file("np26"), "--depth", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified_returns"] > 0


def test_cli_render(tmp_path):
    out_path = tmp_path / "chair.svg"
    code, out, _ = run_cli(
        "render", corpus_file("chair"), "--tile", "NE", "--depth", "3",
        "--out", str(out_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 64
    assert out_path.stat().st_size == payload["bytes"]


def test_cli_undecided_surfaces(tmp_path):
    code, out, _ = run_cli(
        "eigen", "check", corpus_file("fibonacci"), "--alpha", '["1/999999937", "0"]'
    )
    assert code == 0
    assert "undecided" in json.loads(out)


def test_cli_subprocess_deterministic():
    # byte-identical stdout across fresh interpreter runs
    cmds = [
        ["pisot", corpus_file("fibonacci")],
        ["weakmixing", corpus_file("np26")],
        ["matrix", corpus_file("chair")],
    ]
    for cmd in cmds:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "tilingspectra", *cmd],
                capture_output=True,
                check=True,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
