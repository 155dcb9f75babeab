"""tile360 benchmark: one workload, one seed, one single-threaded process.

    python3 benchmarks/run.py --workload agent_train --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory. The workload builds its seeded inputs, repeats whole
rounds until ``--seconds`` have passed, then checks the outputs. ``setup_s``
is the fastest of nine cold set-ups, each timed from a fresh process's
first statement through imports and input building: this run's own, and
eight more made one at a time by child processes between the rounds,
spread over the run. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
the program's public functions are wrapped with span timers for set-up and
the rounds; the metrics are then the per-layer calls and self times, and
one extra untraced round gives the tracing overhead. Results and spans are
written under ``benchmarks/out/``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# one BLAS thread: set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

COLD_SETUPS = 9
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every round, for the benchmark's self-test",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="build the inputs, print the set-up seconds and exit",
    )
    return parser.parse_args(argv)


def measure(workload, seconds: float, after_round=lambda elapsed: None) -> list:
    """Whole rounds until ``seconds`` have passed; at least one.

    ``after_round`` is called after each round with the seconds elapsed.
    """
    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        rounds.append(workload.run_round())
        after_round(time.perf_counter() - started)
    return rounds


def cold_setup(args) -> float:
    """Set-up seconds of a fresh process that builds the same inputs."""
    out = subprocess.run(
        [
            sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--size", args.size, "--setup-only",
        ],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.split()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(after_setup: dict, after_rounds: dict, n_rounds: int) -> dict:
    """Per-layer calls and self seconds of set-up plus one average round.

    Rounds repeat the same work, so a function's calls per round are a
    whole number that does not depend on how many rounds fit in the run.
    """
    metrics = {}
    for name, (calls, self_s) in after_setup.items():
        calls_r, self_r = after_rounds[name]
        metrics[f"{name}.calls"] = {"value": calls + (calls_r - calls) / n_rounds, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s + (self_r - self_s) / n_rounds, "unit": "s"}
    return metrics


def import_program():
    """Import tile360 from this checkout's sources, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "tile360" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {src}; run from a tile360 checkout")
    sys.path.insert(0, str(src))
    import tile360

    if Path(tile360.__file__).resolve().parent != (src / "tile360").resolve():
        sys.exit(f"error: imported tile360 from {tile360.__file__}, not from {src}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed, tiny=args.size == "tiny")
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload.setup()
    setup_s = [time.perf_counter() - START]
    if args.setup_only:
        print(setup_s[0])
        return 0
    if tracer:
        after_setup = tracer.snapshot()

    rss = []
    interval = args.seconds / (COLD_SETUPS - 1) or float("inf")

    def after_round(elapsed: float) -> None:
        # set-up plus one round: later rounds repeat the same work, and what
        # they keep for the checks would tie memory to how many rounds fit
        if not rss:
            rss.append(peak_rss_mb())
        # one cold set-up is a single sample of the machine's load, and on a
        # shared machine slow spells last seconds: fresh processes repeat it,
        # spread over the run (a second set-up in this one would be warm)
        while not tracer and len(setup_s) - 1 <= min(elapsed / interval, COLD_SETUPS - 2):
            setup_s.append(cold_setup(args))

    rounds = measure(workload, args.seconds, after_round)
    # other processes on a shared machine only ever add time, and every
    # round repeats the same work: a phase's fastest round is the closest a
    # run gets to the program's own cost
    phase_s = {p: min(r.phases[p] for r in rounds) for p in workload.PHASES}
    round_s = sum(phase_s.values())

    problems = []
    overhead = None
    if tracer:
        tracer.remove()
        after_rounds = tracer.snapshot()
        in_rounds = {k: after_rounds[k][0] - after_setup[k][0] for k in after_rounds}
        problems += workload.count_checks(in_rounds, rounds)
        untraced = measure(workload, args.seconds / 3.0)
        overhead = round_s / sum(min(r.phases[p] for r in untraced) for p in phase_s) - 1.0
    problems += workload.check(rounds)
    if not tracer:
        setup_s += [cold_setup(args) for _ in range(COLD_SETUPS - len(setup_s))]

    work = workload.work(rounds[0])
    rates = {name: work[p] / phase_s[p] for p, (name, _) in workload.PHASES.items()}
    if tracer:
        metrics = layer_metrics(after_setup, after_rounds, len(rounds))
    else:
        metrics = {
            "setup_s": {"value": min(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": rss[0], "unit": "MB"},
            "round_s": {"value": round_s, "unit": "s"},
        }
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "rounds": [r.phases for r in rounds],
        "phase_s": phase_s,
        "rates": rates,
        "setup_s": setup_s,
        "tracing_overhead": overhead,
        "problems": problems,
        "result": result,
    }
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    if tracer:
        tracer.save(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.npz")

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds")
    for p, (name, unit) in workload.PHASES.items():
        print(f"  {name} {rates[name]:.6g} {unit}")
    print(f"  round_s {round_s:.6g} s  setup_s {min(setup_s):.6g} s  peak_rss_mb {rss[0]:.6g} MB")
    if overhead is not None:
        print(f"  tracing overhead {100.0 * overhead:+.1f}% of the untraced round time")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
