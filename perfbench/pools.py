"""Fixed operation pools of the three benchmark workloads.

Every op a run can execute is listed here, independently of the run seed,
so that each one has a recorded reference digest in `references.json`.
A run's seed only decides the order in which a round visits its pool.
Each op is a plain dict; `op_key` is its identity in the references.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

# system name -> file, relative to the checkout root
SYSTEMS = {
    "fibonacci": "src/tilingspectra/systems/fibonacci.json",
    "tm": "src/tilingspectra/systems/tm.json",
    "np26": "src/tilingspectra/systems/np26.json",
    "chair": "src/tilingspectra/systems/chair.json",
    "grid2": "src/tilingspectra/systems/grid2.json",
    "tribonacci": "perfbench/systems/tribonacci.json",
}

# Known verdicts, asserted independently of the digests: theta is Pisot
# for every system but np26, and np26 is weakly mixing.
NON_PISOT = {"np26"}

# Generators printed by `eigen module` and `weakmixing` at the commit that
# recorded the references; each one must pass `eigen check`.
EIGEN_GENERATORS = {
    "fibonacci": [[["2", "-1"]]],
    "tm": [[["1"]]],
    "np26": [],
    "chair": [[["-1/2"], ["1/2"]], [["2"], ["0"]]],
    "grid2": [[["1"], ["0"]], [["0"], ["1"]]],
    "grid2-plain": [[["0"], ["1"]], [["1"], ["0"]]],
    "tribonacci": [[["-1", "-1", "1"]]],
}

# Candidates that are not eigenvalues, checked on each 1d system.
NON_EIGENVALUES = {
    "fibonacci": [[["1/3", "0"]]],
    "tm": [[["1/3"]]],
    "np26": [[["1/2", "0"]]],
    "tribonacci": [[["1/2", "0", "0"]]],
}

# Candidates beyond the residue budget (D^s = 1009^2 > 10^6), which
# `eigen check` must report as undecided.
UNDECIDED = {"fibonacci": [[["1/1009", "0"]]]}

# cold-cli inputs: the four 1d systems and, as the 2d input, grid2 without
# its declared periods.  A chair or grid2 command costs ~1 s of validation
# (grid2's mostly in checking its periods), too long to repeat often enough
# in a run for a steady best latency on a machine with slow phases of
# seconds; grid2-plain keeps the polygon predicates of 2d validation at
# ~0.1 s per command.  chair and grid2 are validated in the set-up of the
# warm workloads.
COLD_SYSTEMS = {n: SYSTEMS[n] for n in ("fibonacci", "tm", "np26", "tribonacci")}
COLD_SYSTEMS["grid2-plain"] = "perfbench/systems/grid2-plain.json"
COLD_COMMANDS = {
    "validate": ["validate"],
    "matrix": ["matrix"],
    "primitive": ["primitive"],
    "pisot": ["pisot"],
    "weakmixing": ["weakmixing"],
    "eigen module": ["eigen", "module"],
    "control-points": ["control-points"],
    "kenyon": ["kenyon", "--depth", "3"],
    "returns": ["returns", "--depth", "3", "--basis"],
}
PARSE_BOUND = ("validate", "matrix", "primitive", "pisot")
# Commands per system and their repeats per round.  A round should take
# about a second, so that every op repeats 30 or more times in a run: the
# best latency of an op with 15 repeats moved by 10-30% between runs.  So
# the 20-70 ms return, Kenyon, control-point and convergence commands run
# on fibonacci and tm only; np26 and tribonacci keep the commands that
# carry their verdicts (non-Pisot and weak mixing, the degree-3 Pisot
# test and eigen check).  Every 2d command first parses, which validates;
# `validate` twice a round puts the p95 tail inside its block, so the tail
# is the cost of 2d validation.  "eigen check" runs on every eigen
# generator, one non-eigenvalue and the undecided candidates, "converge"
# on the first of them.
COLD_PLAN = {
    "fibonacci": {**dict.fromkeys(COLD_COMMANDS, 1), "eigen check": 1, "converge": 1},
    "tm": {**dict.fromkeys(COLD_COMMANDS, 1), "eigen check": 1, "converge": 1},
    "np26": {**dict.fromkeys(PARSE_BOUND, 1), "weakmixing": 1, "eigen module": 1, "eigen check": 1},
    "tribonacci": {**dict.fromkeys(PARSE_BOUND, 1), "weakmixing": 1, "eigen check": 1},
    "grid2-plain": {"validate": 2, "weakmixing": 1},
}

# (kind, system, depth); each op takes about 0.02-0.1 s on the reference
# machine.  Short ops repeat 30 or more times in a run, and the best of them
# escapes the machine's slow phases, which last longer than a 0.1-2 s op;
# the large single runs are in `run.py --selfcheck`.  The first entry is
# also the untimed warm-up op, so it is a cheap one.
DEEP_RETURNS = (
    ("returns", "tm", 8),
    ("returns", "np26", 3),
    ("returns", "fibonacci", 11),
    ("returns", "chair", 4),
    ("returns", "grid2", 4),
    ("returns", "tribonacci", 8),
    ("basis", "tribonacci", 7),
    ("basis", "fibonacci", 11),
    ("basis", "grid2", 4),
    ("basis", "tm", 9),
    ("kenyon", "np26", 3),
    ("kenyon", "fibonacci", 11),
    ("kenyon", "chair", 3),
    ("kenyon", "tribonacci", 7),
    ("grow", "fibonacci", 14),
    ("grow", "chair", 5),
    ("grow", "np26", 6),
    ("grow", "tribonacci", 11),
    ("grow", "tm", 11),
    ("grow", "grid2", 5),
)

# eigen-scan: per system (report ops, convergence ops, q range, edge).
# Random candidates take p/q coordinates, with one q in [q_lo, q_hi]
# biased towards q_hi; "edge" candidates take a prime q in (edge, 2 edge],
# beyond the residue budget D^s <= 10^6, and are expected to end undecided.
EIGEN_PLAN = {
    "fibonacci": (54, 6, 100, 1000, 1000),
    "tribonacci": (54, 6, 20, 100, 100),
    "tm": (45, 5, 1000, 10000, 10**6),
    "chair": (45, 5, 1000, 10000, 10**6),
    "grid2": (45, 5, 1000, 10000, 10**6),
    "np26": (27, 3, 100, 1000, 1000),
}
EIGEN_EDGE_SHARE = 0.045
EIGEN_LATTICE_SHARE = 0.2
CONVERGE_STEPS = 40
_POOL_SEED = 20051202


def op_key(op) -> str:
    """The op's identity: everything but how often a round repeats it."""
    ident = {k: v for k, v in op.items() if k != "per_round"}
    return json.dumps(ident, sort_keys=True, separators=(",", ":"))


def cold_cli_pool():
    ops = []
    for name, plan in COLD_PLAN.items():
        path = COLD_SYSTEMS[name]
        alphas = [(a, True) for a in EIGEN_GENERATORS[name]]
        alphas += [(a, False) for a in NON_EIGENVALUES.get(name, [])]
        alphas += [(a, None) for a in UNDECIDED.get(name, [])]
        for command, per_round in plan.items():
            base = {"system": name, "command": command, "per_round": per_round}
            if command == "eigen check":
                for alpha, expected in alphas:
                    argv = ["eigen", "check", path, "--alpha", json.dumps(alpha)]
                    ops.append({**base, "argv": argv, "expect_eigenvalue": expected})
            elif command == "converge":
                steps = str(CONVERGE_STEPS)
                argv = ["converge", path, "--alpha", json.dumps(alphas[0][0]), "--steps", steps]
                ops.append({**base, "argv": argv})
            else:
                cmd = COLD_COMMANDS[command]
                argv = [*cmd, path] if cmd[0] == "eigen" else [cmd[0], path, *cmd[1:]]
                ops.append({**base, "argv": argv})
    return ops


def deep_returns_pool():
    return [{"kind": k, "system": s, "depth": d} for k, s, d in DEEP_RETURNS]


def _theta_data(name):
    data = json.loads((HERE.parent / SYSTEMS[name]).read_text(encoding="utf-8"))
    return data["dimension"], data["theta"]["minpoly"]


def _times_theta(coeffs, minpoly, inverse=False):
    """Power-basis coordinates of theta * x (or x / theta), exact."""
    s = len(coeffs)
    c = [Fraction(v) for v in minpoly]  # ascending, monic
    if s == 1:
        root = -c[0]
        return [coeffs[0] / root if inverse else coeffs[0] * root]
    if not inverse:
        top = coeffs[-1]
        shifted = [Fraction(0)] + list(coeffs[:-1])
        return [shifted[i] - top * c[i] for i in range(s)]
    # x / theta: x = x0 + theta * y with theta^s = -sum c_i theta^i
    x0 = coeffs[0]
    y = list(coeffs[1:]) + [Fraction(0)]
    # 1/theta = -(c_1 + c_2 theta + ... + theta^(s-1)) / c_0
    inv = [-c[i + 1] / c[0] for i in range(s)]
    return [y[i] + x0 * inv[i] for i in range(s)]


def _lattice_alpha(rng, gens, minpoly):
    """An integer combination of the eigen generators times theta^j."""
    dim = len(gens[0])
    s = len(gens[0][0])
    acc = [[Fraction(0)] * s for _ in range(dim)]
    for g in gens:
        k = rng.randint(-3, 3)
        for i in range(dim):
            acc[i] = [a + k * Fraction(v) for a, v in zip(acc[i], g[i])]
    j = rng.randint(-2, 3)
    for i in range(dim):
        for _ in range(abs(j)):
            acc[i] = _times_theta(acc[i], minpoly, inverse=j < 0)
    return [[str(v) for v in coord] for coord in acc]


def _next_prime(n):
    while n < 2 or any(n % p == 0 for p in range(2, int(n**0.5) + 1)):
        n += 1
    return n


def _random_alpha(rng, dim, s, q_lo, q_hi, prime=False):
    """Coordinates p/q over one common q, so the residue denominator is about q."""
    q = q_hi - int((q_hi - q_lo) * rng.random() ** 2)
    if prime:  # the pairings keep the whole denominator
        q = _next_prime(q)
    return [[str(Fraction(rng.randrange(-q, q), q)) for _ in range(s)] for _ in range(dim)]


def eigen_scan_pool():
    rng = random.Random(_POOL_SEED)
    ops = []
    seen = set()
    for name, (n_report, n_conv, q_lo, q_hi, edge) in EIGEN_PLAN.items():
        dim, minpoly = _theta_data(name)
        s = len(minpoly) - 1
        gens = EIGEN_GENERATORS[name]
        for i in range(n_report + n_conv):
            kind = "report" if i < n_report else "converge"
            op = None
            while op is None or op_key(op) in seen:
                u = rng.random()
                if u < EIGEN_EDGE_SHARE:
                    alpha = _random_alpha(rng, dim, s, edge + 1, 2 * edge, prime=True)
                elif gens and u < EIGEN_EDGE_SHARE + EIGEN_LATTICE_SHARE:
                    alpha = _lattice_alpha(rng, gens, minpoly)
                else:
                    alpha = _random_alpha(rng, dim, s, q_lo, q_hi)
                op = {"kind": kind, "system": name, "alpha": alpha}
                if kind == "converge":
                    op["steps"] = CONVERGE_STEPS
            seen.add(op_key(op))
            ops.append(op)
    return ops


POOLS = {
    "cold-cli": cold_cli_pool,
    "deep-returns": deep_returns_pool,
    "eigen-scan": eigen_scan_pool,
}
