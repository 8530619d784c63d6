"""Benchmark of the exact spectral engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck
    python3 perfbench/run.py --record

Run from the root of a checkout; the package is imported from `src/`.
Each workload is one single-threaded closed loop with one client.  A run
sets up, then executes whole rounds (every op of the workload's pool its
`per_round` times, in an order drawn from the seed) until the engine time
reaches --seconds.
Every op's output digest is compared with `references.json`, and the
known verdicts are asserted on their own.  The last stdout line is the
result object; the line before it gives every metric with its sample
count.  See DESIGN.md for the workloads, the metrics and what each layer
metric is expected to move.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from pools import (  # noqa: E402
    EIGEN_GENERATORS,
    NON_PISOT,
    POOLS,
    SYSTEMS,
    op_key,
)
from tracer import COUNTED_GROUPS, Tracer  # noqa: E402

REFERENCES = HERE / "references.json"
OUT = HERE / "out"
# This process plus four set-up-only child processes, run between rounds
# after each quarter of the timed window: back to back, set-ups fall in
# one of the machine's slow or fast phases; spread out, they sample several.
SETUP_REPEATS = 5
WALL_CAP_S = 100.0  # stop mid-round past this, so a run ends within 180 s
# Tail percentile per workload: the highest with at least ten samples beyond
# it in a run on the reference machine (see DESIGN.md).  Fixed, so that a
# faster commit, which fits more rounds into a run, reports the same one.
TAIL = {"cold-cli": 0.95, "deep-returns": 0.96, "eigen-scan": 0.99}

PER_LAYER = (
    ("systemfile.parse_system.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("tiles.validate.self_s", "s"),
    ("tiles.validate.calls", "count"),
    ("geometry.predicates.calls", "count"),
    ("geometry.predicates.s", "s"),
    ("tiles.grow.self_s", "s"),
    ("tiles.grow.tiles", "count"),
    ("tiles.grow.tiles_per_s", "1/s"),
    ("ordering.sorted_by_value.s", "s"),
    ("ordering.sorted_by_value.items", "count"),
    ("returns.enumerate_returns.self_s", "s"),
    ("returns.enumerate_returns.vectors", "count"),
    ("returns.group_basis.self_s", "s"),
    ("returns.kenyon_basis.self_s", "s"),
    ("returns.kenyon_basis.verified", "count"),
    ("lattice.hnf.s", "s"),
    ("lattice.hnf.rows", "count"),
    ("returns.stabilized_module.self_s", "s"),
    ("returns.stabilized_module.depth", "count"),
    ("returns.control_points.self_s", "s"),
    ("lattice.field_solve.s", "s"),
    ("pisot.is_pisot.s", "s"),
    ("pisot.is_pisot.calls", "count"),
    ("traces.dist_to_int_limit.s", "s"),
    ("traces.dist_to_int_limit.calls", "count"),
    ("traces.residue_states", "count"),
    ("traces.undecided", "count"),
    ("spectra.eigenvalue_report.self_s", "s"),
    ("spectra.convergence_diagnostic.self_s", "s"),
    ("algebraic.refine.calls", "count"),
    ("algebraic.refine.s", "s"),
    ("field.mul.calls", "count"),
    ("field.sign.calls", "count"),
    ("trace.ops_per_s", "1/s"),
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def load_package():
    """Import the package from the checkout's `src/`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tilingspectra" / "__init__.py").is_file():
        raise BenchError(f"package sources not found: {src / 'tilingspectra'}")
    sys.path.insert(0, str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # one thread per workload process
    import numpy  # noqa: F401  (part of set-up: the engine uses it)

    import tilingspectra
    from tilingspectra import cli, errors, returns, spectra, systemfile

    if Path(tilingspectra.__file__).resolve().parent != (src / "tilingspectra").resolve():
        raise BenchError(f"imported tilingspectra from {tilingspectra.__file__}, not {src}")
    return argparse.Namespace(
        cli=cli, errors=errors, returns=returns, spectra=spectra, systemfile=systemfile
    )


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# workloads: setup(api) -> state; execute(api, state, op) -> raw result (timed);
# describe(op, raw) -> (text to digest, list of verdict problems) (untimed)


class Workload:
    name = ""
    warm_up = True  # run pool[0] once, untimed, at the end of set-up

    def __init__(self, tracer=None):
        self.tracer = tracer

    def prepare(self, api):
        """(state, raw result of the warm-up op or None)."""
        state = self.setup(api)
        pool = POOLS[self.name]()
        return state, (self.execute(api, state, pool[0]) if self.warm_up else None)


class ColdCli(Workload):
    """Each op is one in-process CLI invocation on a freshly parsed file."""

    name = "cold-cli"
    warm_up = False  # a CLI user pays every first call

    def setup(self, api):
        return None

    def execute(self, api, state, op):
        out, err = io.StringIO(), io.StringIO()
        rc = api.cli.cli_dispatch(op["argv"], out, err)
        return rc, out.getvalue()

    def describe(self, op, raw):
        rc, text = raw
        if self.tracer is not None:
            self.tracer.counts["cli.stdout_bytes"] += len(text.encode("utf-8"))
        return f"{rc}\n{text}", cold_verdicts(op, rc, text)


def cold_verdicts(op, rc, text):
    """Known verdicts, checked on the CLI output independently of digests."""
    if rc != 0:
        return [f"exit code {rc}"]
    payload = json.loads(text)
    system, command = op["system"], op["command"]
    pisot = system not in NON_PISOT
    problems = []
    if command in ("pisot", "weakmixing", "eigen module") and payload["pisot"] != pisot:
        problems.append(f"pisot={payload['pisot']}, expected {pisot}")
    if command == "weakmixing" and payload["weak_mixing"] != (not pisot):
        problems.append(f"weak_mixing={payload['weak_mixing']}, expected {not pisot}")
    generators = EIGEN_GENERATORS[system]
    if command in ("weakmixing", "eigen module") and payload["generators"] != generators:
        # the eigen check ops of the pool check these generators (1d systems)
        problems.append(f"generators {payload['generators']} differ from {generators}")
    if command == "eigen check":
        # expect_eigenvalue None: the candidate lies beyond the residue budget
        expected = op["expect_eigenvalue"]
        found = payload.get("eigenvalue")
        if found != expected or (expected is None and "undecided" not in payload):
            problems.append(f"eigen check gave {payload}, expected eigenvalue={expected}")
    return problems


def warm_systems(api):
    """Parse and validate every system, then fill its lazily computed
    state: Pisot certificate, return module, Kenyon basis, eigenvalue
    module and, through one convergence diagnostic, theta's interval."""
    systems = {}
    for name, path in SYSTEMS.items():
        system = api.systemfile.parse_system(ROOT / path)
        emod = api.spectra.eigenvalue_module(system)
        if emod.generators:
            z = api.spectra.system_module(system).generators[0]
            api.spectra.convergence_diagnostic(system, emod.generators[0], z, 40)
        systems[name] = system
    return systems


class DeepReturns(Workload):
    """Big-patch core: return enumeration, group basis, Kenyon basis, grow."""

    name = "deep-returns"

    def setup(self, api):
        return warm_systems(api)

    def execute(self, api, systems, op):
        system = systems[op["system"]]
        kind, depth = op["kind"], op["depth"]
        if kind == "returns":
            return api.returns.enumerate_returns(system, depth)
        if kind == "basis":
            sample = api.returns.enumerate_returns(system, depth)
            return api.returns.group_basis(sample, system.field)
        if kind == "kenyon":
            module = api.spectra.system_module(system)
            return api.returns.kenyon_basis(system, module, depth)
        if kind == "grow":
            return system.grow(system.order[0], depth)
        raise BenchError(f"unknown deep-returns op kind {kind!r}")

    def describe(self, op, raw):
        if op["kind"] == "returns":
            payload = [v.serialize() for v in raw.vectors]
        else:
            payload = raw.serialize()
        return dumps(payload), []


class EigenScan(Workload):
    """Many small exact eigenvalue decisions and convergence diagnostics."""

    name = "eigen-scan"

    def setup(self, api):
        systems = warm_systems(api)
        alphas = {}
        for op in POOLS[self.name]():
            field = systems[op["system"]].field
            coords = [field.elem([Fraction(c) for c in coord]) for coord in op["alpha"]]
            alphas[op_key(op)] = api.spectra.Alpha(field.vec(coords))
        z = {
            name: api.spectra.system_module(s).generators[0] for name, s in systems.items()
        }
        return systems, alphas, z

    def execute(self, api, state, op):
        systems, alphas, z = state
        system = systems[op["system"]]
        alpha = alphas[op_key(op)]
        try:
            if op["kind"] == "report":
                return api.spectra.eigenvalue_report(system, alpha).serialize()
            return api.spectra.convergence_diagnostic(
                system, alpha, z[op["system"]], op["steps"]
            ).serialize()
        except api.errors.UndecidedError as exc:  # a referenced outcome, not a failure
            return {"undecided": str(exc)}

    def describe(self, op, raw):
        return dumps(raw), []


WORKLOADS = {w.name: w for w in (ColdCli, DeepReturns, EigenScan)}


# ---------------------------------------------------------------------------
# measurement


def tail(latencies, q):
    """(percentile, latency): the workload's tail percentile, or the highest
    of p75 and p50 with ten samples beyond it when a run has too few ops."""
    n = len(latencies)
    if round(n * (1 - q), 6) < 10:
        q = 0.75 if n >= 40 else 0.5
    if n < 2:
        return q, latencies[0]
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return q, cuts[round(q * 100) - 1]


def setup_only(workload_name):
    WORKLOADS[workload_name]().prepare(load_package())
    return time.perf_counter() - _T0


def child_setup_seconds(name):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", name],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_workload(workload_name, seed, seconds, traced):
    api = load_package()
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[workload_name](tracer)
    pool = POOLS[workload_name]()
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))[workload_name]
    state, warm = workload.prepare(api)

    failed = 0
    attempted = 0
    problems = []

    def check(op, raw):
        text, verdict_problems = workload.describe(op, raw)
        ref = references.get(op_key(op))
        bad = list(verdict_problems)
        if ref is None:
            bad.append("no recorded reference")
        elif digest(text) != ref:
            bad.append("output digest differs from the reference")
        for p in bad:
            problems.append(f"{op_key(op)}: {p}")
        return not bad

    if warm is not None:  # the warm-up op is checked but not timed
        attempted += 1
        if not check(pool[0], warm):
            failed += 1
    setup_s = time.perf_counter() - _T0

    rng = random.Random(seed)
    latencies = []
    by_op = [[] for _ in pool]  # latencies of each pool entry, in run order
    round_s = []
    rounds = 0
    child_setups = []

    def set_up_children(until):
        """Untraced runs: the child set-ups due once engine time reaches `until`."""
        while tracer is None and len(child_setups) < SETUP_REPEATS - 1:
            if until < seconds * (len(child_setups) + 1) / (SETUP_REPEATS - 1):
                return
            child_setups.append(child_setup_seconds(workload_name))

    wall_start = time.perf_counter()
    stop = False
    while not stop:
        order = [i for i, op in enumerate(pool) for _ in range(op.get("per_round", 1))]
        rng.shuffle(order)
        round_start = len(latencies)
        for index in order:
            op = pool[index]
            attempted += 1
            if tracer is not None:
                tracer.op_id = attempted
            t = time.perf_counter()
            try:
                raw = workload.execute(api, state, op)
            except Exception:
                latencies.append(time.perf_counter() - t)
                by_op[index].append(latencies[-1])
                failed += 1
                problems.append(f"{op_key(op)}: raised\n{traceback.format_exc()}")
                continue
            latencies.append(time.perf_counter() - t)
            by_op[index].append(latencies[-1])
            if tracer is not None:
                tracer.op_id = None
            if not check(op, raw):
                failed += 1
            if time.perf_counter() - wall_start > WALL_CAP_S:
                stop = True
                break
        else:
            rounds += 1
            round_s.append(sum(latencies[round_start:]))
            stop = sum(latencies) >= seconds
            set_up_children(sum(latencies))
    set_up_children(seconds)  # the ones a wall-capped run did not reach
    if tracer is not None:
        tracer.op_id = None
    engine_s = sum(latencies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Each sample counts at its op's best latency in the run: the machine
    # switches between a fast and a much slower state within seconds, and
    # the best of an op's repeats measures the program rather than that.
    steady = [min(lat) for lat in by_op for _ in lat]
    n = len(steady)
    ops_per_s = n / sum(steady)
    q, tail_s = tail(steady, TAIL[workload_name])

    detail = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(traced),
        "rounds": rounds,
        "pool_size": len(pool),
        "engine_s": engine_s,
        "failed_frac": {"value": failed / attempted, "unit": "fraction", "samples": attempted},
        "tail_percentile": round(q * 100),
        "min_repeats": min(len(lat) for lat in by_op),
        "round_s": round_s,
        "raw": {
            "ops_per_s": len(latencies) / engine_s,
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail(latencies, q)[1],
        },
    }
    OUT.mkdir(exist_ok=True)
    per_op = {op_key(op): lat for op, lat in zip(pool, by_op)}
    (OUT / f"latencies-{workload_name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(per_op, indent=0) + "\n", encoding="utf-8"
    )
    for p in problems[:10]:
        print(f"FAILED {p}", file=sys.stderr)

    if tracer is None:
        setups = [setup_s] + child_setups
        metrics = {
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "ops_per_s": (ops_per_s, "1/s", n),
            "op_p50_s": (statistics.median(steady), "s", n),
            "op_tail_s": (tail_s, "s", n),
            "peak_rss_mb": (peak_rss_mb, "MB", 1),
        }
    else:
        metrics = layer_metrics(tracer, ops_per_s, n)
        detail["window_self_share"] = window_shares(tracer, engine_s)
        tracer.write(OUT / f"spans-{workload_name}-seed{seed}.jsonl.gz")
    detail["metrics"] = {
        k: {"value": v, "unit": u, "samples": c} for k, (v, u, c) in metrics.items()
    }
    print(json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))


def layer_metrics(tracer, ops_per_s, n):
    """Per-layer metrics over the whole traced process (set-up included)."""
    calls, total, self_s = tracer.aggregate()
    counts = tracer.counts
    values = {}
    for name, unit in PER_LAYER:
        group, _, kind = name.rpartition(".")
        if name == "tiles.grow.tiles_per_s":
            value = counts["tiles.grow.tiles"] / total["tiles.grow"] if total["tiles.grow"] else 0.0
        elif name == "trace.ops_per_s":
            value = ops_per_s
        elif kind == "self_s":
            value = self_s[group]
        elif kind == "s":
            value = total[group]
        elif kind == "calls" and group not in COUNTED_GROUPS:
            value = calls[group]
        else:
            value = counts[name]
        values[name] = (value, unit, calls[group] if group in calls else n)
    return values


def window_shares(tracer, engine_s):
    """Share of timed op time spent in each layer's own code."""
    _, _, self_s = tracer.aggregate(window_only=True)
    shares = {g: s / engine_s for g, s in sorted(self_s.items(), key=lambda kv: -kv[1])}
    shares["(outside wrapped layers)"] = 1.0 - sum(shares.values())
    return {g: round(v, 4) for g, v in shares.items()}


# ---------------------------------------------------------------------------
# one-shot modes


def record():
    """Write the reference digest of every pool op at this commit."""
    api = load_package()
    refs = {}
    for name, cls in WORKLOADS.items():
        workload = cls()
        state = workload.setup(api)
        refs[name] = {}
        outcomes = {}
        for op in POOLS[name]():
            text, problems = workload.describe(op, workload.execute(api, state, op))
            if problems:
                raise BenchError(f"{op_key(op)}: {problems}")
            refs[name][op_key(op)] = digest(text)
            outcome = "undecided" if text.startswith('{"undecided"') else "decided"
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        print(f"{name}: {len(refs[name])} references {outcomes}", file=sys.stderr)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# ROADMAP baseline: (what, expected count, ROADMAP seconds, single run)
BASELINE = (
    ("enumerate_returns(np26, 6)", 55_400, 7.9),
    ("chair grow depth 8", 65_536, 2.8),
    ("np26 grow depth 8", 18_209, 1.0),
)


def selfcheck():
    """Assert the ROADMAP baseline counts and the known verdicts once."""
    api = load_package()
    systems = {n: api.systemfile.parse_system(ROOT / p) for n, p in SYSTEMS.items()}
    calls = (
        lambda: len(api.returns.enumerate_returns(systems["np26"], 6)),
        lambda: len(systems["chair"].grow(systems["chair"].order[0], 8)),
        lambda: len(systems["np26"].grow(systems["np26"].order[0], 8)),
    )
    rows, ok = [], True
    for (what, expected, roadmap_s), call in zip(BASELINE, calls):
        t = time.perf_counter()
        count = call()
        dt = time.perf_counter() - t
        ok &= count == expected
        rows.append(
            {"what": what, "count": count, "expected": expected,
             "seconds_single_run": round(dt, 3), "roadmap_seconds_single_run": roadmap_s}
        )
    verdicts = {}
    for name, system in systems.items():
        pisot = api.spectra.is_pisot(system.theta).pisot
        emod = api.spectra.eigenvalue_module(system)
        gens = [a.serialize() for a in emod.generators]
        checked = all(api.spectra.eigenvalue_report(system, a).eigenvalue for a in emod.generators)
        verdicts[name] = {"pisot": pisot, "generators": gens, "generators_pass_check": checked}
        ok &= pisot == (name not in NON_PISOT) and checked and gens == EIGEN_GENERATORS[name]
    wm = api.spectra.weak_mixing(systems["np26"]).weak_mixing
    ok &= wm is True
    print(json.dumps({"ok": ok, "baseline": rows, "verdicts": verdicts, "np26_weak_mixing": wm}))
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    mode.add_argument("--record", action="store_true", help="rewrite references.json")
    mode.add_argument("--selfcheck", action="store_true", help="baseline counts and verdicts")
    args = p.parse_args(argv)
    os.chdir(ROOT)
    try:
        if args.record:
            record()
            return 0
        if args.selfcheck:
            return selfcheck()
        if args.workload is None:
            p.error("--workload is required")
        if args.setup_only:
            print(setup_only(args.workload))
            return 0
        run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
