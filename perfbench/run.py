"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload jobshop --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository: the engine is imported from its
`src/` and the ground oracles from its `tests/`.  A run

1. sets up (imports aclp, generates the inputs, makes one warm-up solve)
   in this process and in SETUP_SAMPLES - 1 fresh processes, and reports
   the median set-up time;
2. works through the workload's fixed instance list, in an order
   shuffled by `--seed`, in whole rounds until `--seconds` have passed;
3. checks every answer of the first round against a computation made
   apart from the engine, and every later answer for equality with the
   first round's.

With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
wraps the engine's public functions and prints the per-layer metrics
instead, computed from spans that it writes to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SOURCES = [os.path.join(ROOT, "src", "aclp", "__init__.py"),
           os.path.join(ROOT, "tests", "oracles.py")]
SETUP_SAMPLES = 5
THREAD_JOIN_S = 120

END_TO_END = {"setup_s": "s", "wall_s": "s", "answer_s.p50": "s",
              "peak_rss_mb": "MB", "answer_cost": "count"}


def _use_checkout():
    missing = [p for p in SOURCES if not os.path.isfile(p)]
    if missing:
        raise SystemExit(f"run.py: not in a checkout of aclp, missing {missing}")
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]


def set_up(workload_name):
    """(seconds, workload, instances): import, generate, warm up."""
    t0 = time.perf_counter()
    import workloads  # imports aclp; timed as part of set-up
    workload = workloads.WORKLOADS[workload_name]
    instances = workload.instances()
    workload.warm_up(instances)
    join_engine_threads()
    return time.perf_counter() - t0, workload, instances


def setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          cwd=ROOT, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def join_engine_threads():
    """Wait for the search threads the engine started to wind down, so
    one instance's clean-up does not overlap the next instance."""
    for t in threading.enumerate():
        if t is not threading.main_thread():
            t.join(THREAD_JOIN_S)
            if t.is_alive():
                raise RuntimeError(f"engine thread {t.name} did not end")


def run_round(workload, instances, round_no, tracer=None):
    """[(result, seconds to the first ground answer, seconds until the
    engine's threads ended)] and the number of operations that raised."""
    out, failed = [], 0
    for i, inst in enumerate(instances):
        if tracer is not None:
            tracer.instance = round_no * len(instances) + i
        t0 = time.perf_counter()
        try:
            res = workload.answer(inst)
            answer_s = time.perf_counter() - t0
        except Exception:
            # one failing operation is counted, and the run goes on
            traceback.print_exc()
            res, answer_s = None, None
            failed += 1
        join_engine_threads()
        out.append((res, answer_s, time.perf_counter() - t0))
    return out, failed


def measure(workload, instances, seconds, tracer=None):
    rounds, walls, failed = [], [], 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        answers, n_failed = run_round(workload, instances, len(rounds), tracer)
        walls.append(time.perf_counter() - t0)
        rounds.append(answers)
        failed += n_failed
        if time.perf_counter() - start >= seconds:
            return rounds, walls, failed


def check(workload, instances, rounds):
    """Check the first round independently, later rounds against it."""
    problems = []
    first = rounds[0]
    for inst, (res, _, _) in zip(instances, first):
        if res is None:
            continue
        ok, reason = workload.check(inst, res)
        if not ok:
            problems.append(f"{inst.name}: {reason}")
    for r, answers in enumerate(rounds[1:], 1):
        for inst, (res, _, _), (ref, _, _) in zip(instances, answers, first):
            if res is not None and ref is not None and res.key() != ref.key():
                problems.append(f"{inst.name}: round {r} answer differs from round 0")
    return problems


def instance_medians(rounds, column):
    """Each instance's median time over the rounds, skipping failures.

    A median per instance keeps a burst of load from other processes
    out of the figure, which a median of whole rounds would not."""
    out = []
    for i in range(len(rounds[0])):
        times = [r[i][column] for r in rounds if r[i][0] is not None]
        if times:
            out.append(statistics.median(times))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["jobshop", "blocksworld", "reschedule", "theories"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once and print the time it took")
    args = ap.parse_args(argv)
    _use_checkout()

    if args.setup_only:
        setup_s, _, _ = set_up(args.workload)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    samples = [setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)]
    setup_s, workload, instances = set_up(args.workload)
    samples.append(setup_s)
    random.Random(args.seed).shuffle(instances)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer().install()
    try:
        rounds, walls, failed = measure(workload, instances, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = check(workload, instances, rounds)
    for p in problems:
        print(f"INCORRECT {p}", file=sys.stderr)
    cost = sum(workload.cost(inst, res)
               for inst, (res, _, _) in zip(instances, rounds[0]) if res is not None)
    end_to_end = {"setup_s": statistics.median(samples),
                  "wall_s": sum(instance_medians(rounds, 2)),
                  "answer_s.p50": statistics.median(instance_medians(rounds, 1)),
                  "peak_rss_mb": peak_rss_mb,
                  "answer_cost": cost}
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": len(rounds), "instances": len(instances),
              "setup_samples": samples, "round_walls": walls,
              "end_to_end": end_to_end,
              "per_instance": {inst.name: [r[i][1:] for r in rounds]
                               for i, inst in enumerate(instances)}}

    os.makedirs(OUT, exist_ok=True)
    if tracer is None:
        metrics = {m: {"value": end_to_end[m], "unit": u} for m, u in END_TO_END.items()}
    else:
        rows = tracer.rows()
        per_round = tracer.metrics(rows, lambda inst: inst // len(instances))
        layers = tracing.combine(per_round)
        report["per_layer"] = layers
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.csv.gz"), rows)
        metrics = {m: {"value": layers[m], "unit": u} for m, u in tracing.PER_LAYER.items()}

    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(report, f, indent=1)
    attempted = sum(len(r) for r in rounds)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
