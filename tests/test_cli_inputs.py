"""Bad system files end in exit code 1 with a message, never a traceback."""

import copy
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tilingspectra.cli import cli_dispatch
from tilingspectra.corpus import corpus_path

# (x^2 - x - 1)(x^2 - 2), ascending: its root near 1.618 is the golden ratio
REDUCIBLE_QUARTIC = [2, 2, -3, -1, 1]


def run_command(command, path):
    out, err = io.StringIO(), io.StringIO()
    code = cli_dispatch([command, str(path)], stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def run_validate(path):
    return run_command("validate", path)


def load_corpus(name):
    with open(corpus_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def padded(data, minpoly, approx):
    """The 1d system data with theta a root of minpoly, every coordinate
    padded with zeros to the deg(minpoly) power-basis entries it needs."""
    data["theta"] = {"minpoly": minpoly, "approx": approx}
    zeros = ["0"] * (len(minpoly) - 2)
    for proto in data["prototiles"]:
        proto["support"]["length"] += zeros
    for children in data["rules"].values():
        for child in children:
            child["offset"][0] += zeros
    return data


def test_reducible_quartic_file_rejected(tmp_path):
    data = padded(load_corpus("fibonacci"), REDUCIBLE_QUARTIC, "1.618")
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps(data))
    code, out, err = run_validate(path)
    assert code == 1
    assert "irreducibility could not be certified" in json.loads(out)["error"]
    assert "Traceback" not in err


def test_boolean_control_child_rejected(tmp_path):
    """JSON true is no integer index, though Python reads it as 1."""
    data = load_corpus("fibonacci")
    data["control_child"] = {"a": True}
    path = tmp_path / "bool_control.json"
    path.write_text(json.dumps(data))
    code, out, err = run_command("control-points", path)
    assert code == 1
    assert json.loads(out)["error"] == "control_child[a]: index must be an integer"
    assert "Traceback" not in err


def test_boolean_minpoly_coefficient_rejected(tmp_path):
    """[-1, -1, true] is not read as x^2 - x - 1."""
    data = load_corpus("fibonacci")
    data["theta"]["minpoly"] = [-1, -1, True]
    path = tmp_path / "bool_minpoly.json"
    path.write_text(json.dumps(data))
    code, out, err = run_command("validate", path)
    assert code == 1
    assert json.loads(out)["error"] == "theta.minpoly: coefficients must be integers"
    assert "Traceback" not in err


# values a mutation may put anywhere in a system file
REPLACEMENTS = [
    "0", "1", "-1", "1/2", "-3/4", "2/4", "1/0", "7/3", "x", "", "1.5",
    0, 1, -2, 3, 2.5, True, None, [], {}, ["0"], [["0"], ["1"]],
]


def nodes(obj, out):
    """Every (container, key) pair below obj."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        out.append((obj, key))
        nodes(value, out)
    return out


def mutate(data, rng):
    container, key = rng.choice(nodes(data, []))
    kind = rng.choice(["replace", "replace", "copy", "remove", "extra", "reverse"])
    if kind == "replace":
        container[key] = copy.deepcopy(rng.choice(REPLACEMENTS))
    elif kind == "copy":  # a value from elsewhere in the file
        other, okey = rng.choice(nodes(data, []))
        container[key] = copy.deepcopy(other[okey])
    elif kind == "remove":
        del container[key]
    elif kind == "extra":
        if isinstance(container, dict):
            container["extra"] = copy.deepcopy(container[key])
        else:
            container.append(copy.deepcopy(container[key]))
    elif isinstance(container[key], list):
        container[key].reverse()


SYSTEMS = {name: load_corpus(name) for name in ("fibonacci", "grid2", "chair")}


@settings(
    max_examples=150,
    deadline=2000,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(st.sampled_from(sorted(SYSTEMS)), st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_mutated_system_files_never_crash(tmp_path, name, seed, count):
    rng = random.Random(seed)
    data = copy.deepcopy(SYSTEMS[name])
    for _ in range(count):
        if not nodes(data, []):
            break
        mutate(data, rng)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(data))
    code, out, err = run_validate(path)
    assert code in (0, 1), (code, err)
    assert "Traceback" not in err
    json.loads(out)


# any JSON value: what --alpha and --z may be given
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**30), 10**30)
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["0", "1", "-2/7", "1/3", "1/0", "x"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=8,
)
# a valid alpha per system, for the commands that take a second vector
ALPHA = {"fibonacci": '["1/3", "0"]', "grid2": '["1/2", "0"]'}


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(ALPHA)),
    st.sampled_from(["eigen check", "converge --alpha", "converge --z"]),
    JSON_VALUES.map(json.dumps) | st.text(max_size=8),
)
def test_vector_arguments_never_crash(name, command, text):
    path = str(corpus_path(name))
    if command == "eigen check":
        argv = ["eigen", "check", path, f"--alpha={text}"]
    elif command == "converge --alpha":
        argv = ["converge", path, f"--alpha={text}", "--steps", "4"]
    else:
        argv = ["converge", path, "--alpha", ALPHA[name], "--steps", "4", f"--z={text}"]
    out, err = io.StringIO(), io.StringIO()
    code = cli_dispatch(argv, stdout=out, stderr=err)
    assert code in (0, 1), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    json.loads(out.getvalue())


SHORT_FORM_SYSTEMS = {
    "fibonacci": str(corpus_path("fibonacci")),
    "np26": str(corpus_path("np26")),
    "tribonacci": str(Path(__file__).resolve().parents[1] / "perfbench/systems/tribonacci.json"),
}


def run_vector_command(path, command, flag, text, alpha=None):
    """(exit, stdout, stderr) of `eigen check` or `converge` with `text`
    after `flag`; `converge --z` takes `alpha` as its --alpha."""
    if command == "eigen check":
        argv = ["eigen", "check", path, "--alpha", text]
    else:
        argv = ["converge", path, "--steps", "4"]
        if flag == "--alpha":
            argv += ["--alpha", text]
        else:
            argv += ["--alpha", alpha, "--z", text]
    out, err = io.StringIO(), io.StringIO()
    code = cli_dispatch(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(SHORT_FORM_SYSTEMS))
@pytest.mark.parametrize(
    "command,flag", [("eigen check", "--alpha"), ("converge", "--alpha"), ("converge", "--z")]
)
def test_short_vector_forms_print_the_full_forms_bytes(name, command, flag):
    """One rational, or a flat list of the d entries' rationals, stands
    for entries [x, 0, ..., 0] in fields of any degree."""
    path = SHORT_FORM_SYSTEMS[name]
    with open(path, encoding="utf-8") as fh:
        s = len(json.load(fh)["theta"]["minpoly"]) - 1
    alpha = json.dumps([["1/2"] + ["0"] * (s - 1)])
    full = run_vector_command(path, command, flag, json.dumps([["1/3"] + ["0"] * (s - 1)]), alpha)
    assert full[0] == 0, full
    for short in ('"1/3"', '["1/3"]'):
        assert run_vector_command(path, command, flag, short, alpha) == full


def test_one_coordinate_entry_is_still_rejected():
    code, out, err = run_vector_command(
        SHORT_FORM_SYSTEMS["fibonacci"], "eigen check", "--alpha", '[["1/3"]]'
    )
    assert code == 1
    assert json.loads(out) == {"error": "alpha[0]: expected exactly 2 coordinates, got 1"}


@pytest.mark.parametrize("scale", ["0", "-5", "nan", "inf"])
def test_render_rejects_bad_scale(tmp_path, scale):
    target = tmp_path / "out.svg"
    out, err = io.StringIO(), io.StringIO()
    argv = ["render", str(corpus_path("chair")), "--tile", "NE", "--depth", "1",
            "--out", str(target), "--scale", scale]
    assert cli_dispatch(argv, stdout=out, stderr=err) == 1
    assert "scale must be finite and positive" in json.loads(out.getvalue())["error"]
    assert not target.exists()


@pytest.mark.parametrize("name", ["fibonacci", "tm"])
@pytest.mark.parametrize("flag", ["alpha", "z"])
@pytest.mark.parametrize(
    "text,where",
    [
        ("true", ""),
        ("[true]", "[0]"),
        ("[[true]]", "[0][0]"),
        ('[["1", false]]', "[0][1]"),
        ("[" * 300 + "true" + "]" * 300, "[0]" * 300),
    ],
)
def test_vector_arguments_reject_booleans(name, flag, text, where):
    """JSON true is no coordinate, though Python reads it as 1."""
    path = str(corpus_path(name))
    if flag == "alpha":
        argv = ["eigen", "check", path, f"--alpha={text}"]
    else:
        alpha = ALPHA.get(name, '"1/3"')
        argv = ["converge", path, "--alpha", alpha, "--steps", "4", f"--z={text}"]
    out, err = io.StringIO(), io.StringIO()
    assert cli_dispatch(argv, stdout=out, stderr=err) == 1
    message = f"{flag}{where}: expected 'p/q' strings or integers, got a boolean"
    assert json.loads(out.getvalue())["error"] == message
    assert "Traceback" not in err.getvalue()


def deep_nesting_argv(tmp_path, command, levels):
    """(argv, message) of a command given `levels` nested JSON lists."""
    text = "[" * levels + "]" * levels
    path = str(corpus_path("tm"))
    if command == "validate":
        target = tmp_path / "deep.json"
        target.write_text(text, encoding="utf-8")
        return ["validate", str(target)], "JSON nested too deeply"
    if command == "eigen check":
        return ["eigen", "check", path, f"--alpha={text}"], "alpha: JSON nested too deeply"
    argv = ["converge", path, "--alpha", '"1/3"', "--steps", "4", f"--z={text}"]
    return argv, "z: JSON nested too deeply"


@pytest.mark.parametrize("levels", [3_000, 100_000])
@pytest.mark.parametrize("command", ["validate", "eigen check", "converge --z"])
def test_deeply_nested_json_is_an_error(tmp_path, command, levels):
    """The JSON decoder recurses once per level; past the recursion limit
    that is a bad input, not a traceback."""
    argv, message = deep_nesting_argv(tmp_path, command, levels)
    out, err = io.StringIO(), io.StringIO()
    assert cli_dispatch(argv, stdout=out, stderr=err) == 1
    assert out.getvalue() == json.dumps({"error": message}) + "\n"
    assert err.getvalue() == f"error: {message}\n"


def test_deeply_nested_json_is_an_error_in_a_fresh_process(tmp_path):
    argv, message = deep_nesting_argv(tmp_path, "eigen check", 3_000)
    proc = subprocess.run([sys.executable, "-m", "tilingspectra", *argv], capture_output=True)
    assert proc.returncode == 1
    assert proc.stdout.decode() == json.dumps({"error": message}) + "\n"
    assert proc.stderr.decode() == f"error: {message}\n"


# more digits than int() reads from text (4,300 by default)
LONG = "1" + "0" * 5000


def write_with_long(tmp_path, data):
    """The system file of data, with every string "@LONG@" written as the
    bare JSON integer LONG, which json.dumps cannot write."""
    path = tmp_path / "long.json"
    path.write_text(json.dumps(data).replace('"@LONG@"', LONG))
    return path


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d["rules"]["a"][0].update(offset=[[LONG + "/3"]]),
         "rules[a][0].offset[0][0]: too many digits"),
        (lambda d: d["rules"]["a"][0].update(offset=[["1/" + LONG]]),
         "rules[a][0].offset[0][0]: too many digits"),
        (lambda d: d["theta"].update(approx="2." + "0" * 5000), "theta.approx: too many digits"),
        (lambda d: d["theta"].update(minpoly=["@LONG@", 1]),
         "theta.minpoly: coefficients must be below 2^64 in absolute value"),
        (lambda d: d.update(dimension="@LONG@"), "dimension: expected int"),
        (lambda d: d["rules"]["a"][0].update(offset=[["@LONG@"]]),
         "rules[a][0].offset[0][0]: coordinate must be a 'p/q' string, got <integer of too many digits>"),
    ],
    ids=["numerator", "denominator", "approx", "minpoly", "dimension", "bare-coordinate"],
)
def test_overlong_integers_in_system_files_are_errors(tmp_path, mutate, message):
    data = load_corpus("tm")
    mutate(data)
    code, out, err = run_validate(write_with_long(tmp_path, data))
    assert code == 1
    assert json.loads(out) == {"error": message}
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text,message",
    [
        ("1" + "0" * 4400, "alpha[0][0]: too many digits"),
        (f'"1/{"0" * 4400}1"', "alpha[0][0]: too many digits"),
        (f'[["1{"0" * 4400}", "0"]]', "alpha[0][0]: too many digits"),
        (f'["1/3", 1{"0" * 4400}]', "alpha[0][1]: too many digits"),
    ],
    ids=["bare", "rational", "coordinate", "list-entry"],
)
def test_overlong_integers_in_vector_arguments_are_errors(text, message):
    code, out, err = run_vector_command(SHORT_FORM_SYSTEMS["fibonacci"], "eigen check", "--alpha", text)
    assert code == 1
    assert json.loads(out) == {"error": message}
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "minpoly,approx,message",
    [
        # just past each bound: degree 25, and a coefficient of 2^64
        ([-1, -1] + [0] * 23 + [1], "1", "theta.minpoly: degree must be at most 24"),
        ([-(2**64), 1], "18446744073709551616",
         "theta.minpoly: coefficients must be below 2^64 in absolute value"),
        ([2**64, 0, 1], "0", "theta.minpoly: coefficients must be below 2^64 in absolute value"),
        # at the bounds the polynomial reaches make_algebraic
        ([-1, -1] + [0] * 22 + [1], "1.03", None),
        ([-(2**64 - 1), 1], "18446744073709551615", None),
    ],
    ids=["degree-25", "constant-2^64", "constant+2^64", "degree-24", "constant-2^64+1"],
)
def test_minimal_polynomial_bounds(tmp_path, minpoly, approx, message):
    """A larger degree or coefficient is refused before make_algebraic,
    whose certificate and root isolation grow with both."""
    path = tmp_path / "bounds.json"
    path.write_text(json.dumps(padded(load_corpus("fibonacci"), minpoly, approx)))
    code, out, err = run_validate(path)
    assert "Traceback" not in err
    if message is None:
        assert "theta.minpoly" not in out
    else:
        assert code == 1
        assert json.loads(out) == {"error": message}
