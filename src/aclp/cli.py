"""Command-line front end: solve goals against theory files and run the
benchmark suites.

Exit codes: 0 with at least one answer, 1 with none, 2 on any error
(unreadable file, parse failure, theory validation, engine errors).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from .engine import Answer, Config, solve
from .corpus import add_unavailability, generate_blocks, generate_jobshop
from .optimize import (GroundAnswer, change_count, find_cost_var, min_changes,
                       minimize, reschedule)
from .parser import (format_constraint, format_literal, format_term,
                     parse_goal, parse_theory)
from .terms import AclpError
from .theory import compile_naf
from .validators import (extract_moves, extract_starts, validate_blocks_plan,
                         validate_jobshop_schedule)

_STRATEGIES = {"input": "input_order", "ff": "first_fail"}
_IC_ORDERS = {"source": "source", "specific": "specific_first"}
DEFAULT_BENCH_SEED = 1


def _parse_literals(text: str):
    """Ground literals from a file of period- or comma-separated facts."""
    lits = []
    for chunk in text.split("."):
        if chunk.strip():
            lits.extend(parse_goal(chunk))
    return lits


def _render_ground(ga: GroundAnswer) -> list:
    lines = ["Δ = {" + ", ".join(format_literal(l) for l in ga.delta) + "}"]
    if ga.objective is not None:
        lines.append(f"objective = {ga.objective}")
    if ga.changes is not None:
        lines.append(f"changes = {ga.changes}")
    return lines


def _render_answer(ans: Answer) -> list:
    lines = ["Δ = {" + ", ".join(format_literal(l) for l in ans.delta) + "}"]
    rendered = ans.store.render()
    if rendered:
        lines.extend(rendered.splitlines())
    return lines


def _json_answer(ans: Answer) -> dict:
    doc = {"hypotheses": [
        {"predicate": l.name,
         "args": [format_term(a) for a in l.args]} for l in ans.delta]}
    domains = {}
    for v in ans.store_vars():
        domains[v.name] = repr(ans.store.domains[v.id])
    doc["domains"] = domains
    doc["constraints"] = [format_constraint(c)
                          for c in ans.store.active_constraints()]
    return doc


def _json_ground(ga: GroundAnswer) -> dict:
    doc = {"hypotheses": [
        {"predicate": l.name,
         "args": [format_term(a) for a in l.args]} for l in ga.delta],
        "domains": {}, "constraints": []}
    if ga.objective is not None:
        doc["objective"] = ga.objective
    if ga.changes is not None:
        doc["changes"] = ga.changes
    return doc


def render_json(docs: list) -> str:
    return json.dumps({"answers": docs}, ensure_ascii=False, indent=2)


def _label_answer(ans: Answer, strategy: str):
    sol = next(iter(ans.labellings(strategy)), None)
    if sol is None:
        return None
    return GroundAnswer(ans.ground_delta(sol), sol)


def _cmd_solve(args) -> int:
    try:
        with open(args.file) as f:
            text = f.read()
    except OSError as e:
        print(e, file=sys.stderr)
        return 2

    theory = compile_naf(parse_theory(text), mode=args.naf_mode)
    errors = theory.validate()
    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        return 2
    goal = parse_goal(args.goal)
    initial = ()
    if args.initial:
        with open(args.initial) as f:
            initial = tuple(_parse_literals(f.read()))
    config = Config(max_depth=args.max_depth,
                    ic_order=_IC_ORDERS[args.ic_order],
                    time_budget=args.time_budget)
    strategy = _STRATEGIES[args.strategy]

    blocks, docs = [], []
    if args.min_changes:
        with open(args.min_changes) as f:
            reference = tuple(_parse_literals(f.read()))
        ga = reschedule(theory, goal, reference, config=config,
                        strategy=strategy)
        blocks.append(_render_ground(ga))
        docs.append(_json_ground(ga))
    elif args.minimize:
        ans = next(solve(theory, goal, initial, config), None)
        if ans is not None:
            ga = minimize(ans, find_cost_var(ans, args.minimize), strategy)
            if ga is not None:
                blocks.append(_render_ground(ga))
                docs.append(_json_ground(ga))
    else:
        count = args.all if args.all else 1
        for i, ans in enumerate(solve(theory, goal, initial, config)):
            if args.label:
                ga = _label_answer(ans, strategy)
                if ga is None:
                    continue
                blocks.append(_render_ground(ga))
                docs.append(_json_ground(ga))
            else:
                blocks.append(_render_answer(ans))
                docs.append(_json_answer(ans))
            if i + 1 >= count:
                break

    if args.json:
        print(render_json(docs))
    else:
        for i, lines in enumerate(blocks):
            if i:
                print()
            print("\n".join(lines))
    return 0 if blocks else 1


def _bench_blocksworld(sizes, seed, config):
    rows = []
    for n in sizes:
        inst = generate_blocks(n, seed)
        theory = compile_naf(parse_theory(inst.program), mode="validate")
        goal = parse_goal(inst.goal_text)
        t0 = time.perf_counter()
        ans = next(solve(theory, goal, config=config), None)
        verdict, metric = "NO ANSWER", 0
        if ans is not None:
            sol = next(iter(ans.labellings()))
            ground = ans.ground_delta(sol)
            ok, reason = validate_blocks_plan(inst, ground)
            verdict = "VALID" if ok else f"INVALID({reason})"
            metric = len(extract_moves(ground))
        rows.append((n, time.perf_counter() - t0, f"{metric} moves", verdict))
    return rows


def _bench_jobshop(sizes, seed, config):
    rows = []
    for n in sizes:
        inst = generate_jobshop(n, seed)
        theory = parse_theory(inst.program)
        goal = parse_goal(inst.goal_text)
        t0 = time.perf_counter()
        ans = next(solve(theory, goal, config=config), None)
        verdict, metric = "NO ANSWER", 0
        if ans is not None:
            sol = next(iter(ans.labellings()))
            ground = ans.ground_delta(sol)
            ok, reason = validate_jobshop_schedule(inst, ground)
            verdict = "VALID" if ok else f"INVALID({reason})"
            starts = extract_starts(ground)
            metric = max(starts[t.index] + t.duration for t in inst.tasks)
        rows.append((n, time.perf_counter() - t0, f"makespan {metric}", verdict))
    return rows


def _bench_reschedule(sizes, seed, config):
    rows = []
    for n in sizes:
        inst = generate_jobshop(n, seed)
        theory = parse_theory(inst.program)
        goal = parse_goal(inst.goal_text)
        t0 = time.perf_counter()
        ans = next(solve(theory, goal, config=config), None)
        inst2 = add_unavailability(inst, seed)
        theory2 = parse_theory(inst2.program)
        fresh_ans = next(solve(theory2, goal, config=config), None)
        if ans is None or fresh_ans is None:
            rows.append((n, time.perf_counter() - t0, "0 vs 0 changes",
                         "NO ANSWER"))
            continue
        old = ans.ground_delta(next(ans.labellings(rng=random.Random(seed))))
        fresh = fresh_ans.ground_delta(next(fresh_ans.labellings()))
        fresh_ok, _ = validate_jobshop_schedule(inst2, fresh)
        fresh_changes = change_count(fresh, old)

        budget = config.time_budget if config.time_budget else 10.0
        re_cfg = Config(max_depth=config.max_depth, ic_order=config.ic_order,
                        time_budget=budget)
        ga = reschedule(theory2, goal, old, config=re_cfg)
        re_ok, _ = validate_jobshop_schedule(inst2, ga.delta)
        verdict = "VALID" if fresh_ok and re_ok else "INVALID"
        rows.append((n, time.perf_counter() - t0,
                     f"{ga.changes} vs {fresh_changes} changes", verdict))
    return rows


_SUITES = {"blocksworld": _bench_blocksworld, "jobshop": _bench_jobshop,
           "reschedule": _bench_reschedule}


def _cmd_bench(args) -> int:
    config = Config(max_depth=args.max_depth, time_budget=args.time_budget)
    rows = _SUITES[args.suite](args.sizes, args.seed, config)
    print(f"{'size':>6}  {'time':>8}  {'metric':<22}  verdict")
    for size, secs, metric, verdict in rows:
        print(f"{size:>6}  {secs:>7.2f}s  {metric:<22}  {verdict}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="aclp")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="answer a goal against a theory file")
    s.add_argument("file")
    s.add_argument("--goal", required=True)
    s.add_argument("--initial", help="file of initial hypothesis facts")
    mode = s.add_mutually_exclusive_group()
    mode.add_argument("--all", type=int, metavar="N",
                      help="emit up to N answers (default: first only)")
    mode.add_argument("--minimize", metavar="VAR",
                      help="branch-and-bound minimize a store variable")
    mode.add_argument("--min-changes", metavar="FILE",
                      help="minimal-change re-solve against a reference file")
    s.add_argument("--label", action="store_true",
                   help="ground each answer before printing")
    s.add_argument("--strategy", choices=sorted(_STRATEGIES), default="input")
    s.add_argument("--ic-order", choices=sorted(_IC_ORDERS), default="source")
    s.add_argument("--naf-mode", choices=["validate", "autogenerate"],
                   default="validate")
    s.add_argument("--json", action="store_true")
    s.add_argument("--max-depth", type=int, default=10000)
    s.add_argument("--time-budget", type=float, default=None,
                   help="wall-clock seconds before the search gives up")
    s.set_defaults(func=_cmd_solve)

    b = sub.add_parser("bench", help="run a benchmark suite")
    b.add_argument("suite", choices=sorted(_SUITES))
    b.add_argument("--sizes", type=int, nargs="+", required=True)
    b.add_argument("--seed", type=int, default=DEFAULT_BENCH_SEED)
    b.add_argument("--max-depth", type=int, default=10000)
    b.add_argument("--time-budget", type=float, default=None)
    b.set_defaults(func=_cmd_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AclpError as e:
        print(e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
