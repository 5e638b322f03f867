"""Command-line front end: solve goals against theory files and run the
benchmark suites.

Exit codes: 0 with at least one answer, 1 with none, 2 on any error
(unreadable file, parse failure, theory validation, engine errors).  A
reader that closes standard output early changes none of them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import closing
from itertools import islice

from .engine import Answer, Config, Solver, StepBudgetError
from .corpus import (first_ground, generate_blocks, generate_jobshop,
                     reschedule_case)
from .optimize import (GroundAnswer, change_count, find_cost_var, minimize,
                       reschedule)
from .parser import parse_facts, parse_goal, parse_theory
from .terms import AclpError, format_constraint, format_literal, format_term
from .theory import compile_naf
from .validators import (extract_moves, extract_starts, validate_blocks_plan,
                         validate_jobshop_schedule)

_STRATEGIES = {"input": "input_order", "ff": "first_fail"}
DEFAULT_BENCH_SEED = 1


def _read(path) -> str:
    """Text of a file named on the command line; "" when none is named.
    Files are read as UTF-8 whatever the locale; one that is not UTF-8
    raises an OSError that names it, as a missing file does."""
    if path is None:
        return ""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise OSError(f"{path} is not UTF-8: {e.reason}") from e


def _out(text: str) -> None:
    """Print `text` on standard output.  Once the reader has closed it,
    standard output goes to the null device, as the Python documentation
    advises, so neither this print nor a later one, nor the flush at
    interpreter shutdown, raises BrokenPipeError."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _delta_line(delta) -> str:
    return "Δ = {" + ", ".join(format_literal(l) for l in delta) + "}"


def _hypotheses(delta) -> list:
    return [{"predicate": l.name, "args": [format_term(a) for a in l.args]}
            for l in delta]


def _render_ground(ga: GroundAnswer) -> list:
    lines = [_delta_line(ga.delta)]
    if ga.objective is not None:
        lines.append(f"objective = {ga.objective}")
    if ga.changes is not None:
        lines.append(f"changes = {ga.changes}")
    return lines


def _render_answer(ans: Answer) -> list:
    lines = [_delta_line(ans.delta)]
    rendered = ans.store.render()
    if rendered:
        lines.extend(rendered.splitlines())
    return lines


def _json_answer(ans: Answer) -> dict:
    doc = {"hypotheses": _hypotheses(ans.delta)}
    domains = {}
    for v in ans.store_vars():
        domains[v.name] = repr(ans.store.domains[v.id])
    doc["domains"] = domains
    doc["constraints"] = [format_constraint(c)
                          for c in ans.store.active_constraints()]
    return doc


def _json_ground(ga: GroundAnswer) -> dict:
    doc = {"hypotheses": _hypotheses(ga.delta), "domains": {},
           "constraints": []}
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
        text, initial_text, reference_text = map(
            _read, (args.file, args.initial, args.min_changes))
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
    initial = tuple(parse_facts(initial_text))
    config = Config(max_depth=args.max_depth, max_steps=args.max_steps)
    strategy = _STRATEGIES[args.strategy]

    blocks, docs = [], []
    try:
        if args.min_changes:
            reference = tuple(parse_facts(reference_text))
            ga = reschedule(theory, goal, reference, config=config,
                            strategy=strategy)
            blocks.append(_render_ground(ga))
            docs.append(_json_ground(ga))
        else:
            answers = Solver(theory, config).solve(goal, initial)
            with closing(answers):
                if args.minimize:
                    ans = next(answers, None)
                    if ans is not None:
                        ga = minimize(ans, find_cost_var(ans, args.minimize),
                                      strategy)
                        if ga is not None:
                            blocks.append(_render_ground(ga))
                            docs.append(_json_ground(ga))
                else:
                    for ans in islice(answers, args.all or 1):
                        if args.label:
                            ga = _label_answer(ans, strategy)
                            if ga is None:
                                continue
                            blocks.append(_render_ground(ga))
                            docs.append(_json_ground(ga))
                        else:
                            blocks.append(_render_answer(ans))
                            docs.append(_json_answer(ans))
    except StepBudgetError as e:
        print(f"no answer within the step budget (--max-steps {e.limit})",
              file=sys.stderr)

    if args.json:
        _out(render_json(docs))
    elif blocks:
        _out("\n\n".join("\n".join(lines) for lines in blocks))
    return 0 if blocks else 1


def _verdict(ok: bool, reason: str) -> str:
    return "VALID" if ok else f"INVALID({reason})"


def _bench_blocksworld(n, seed, config):
    inst = generate_blocks(n, seed)
    ground = first_ground(inst, config)
    if ground is None:
        return "0 moves", "NO ANSWER"
    return (f"{len(extract_moves(ground))} moves",
            _verdict(*validate_blocks_plan(inst, ground)))


def _bench_jobshop(n, seed, config):
    inst = generate_jobshop(n, seed)
    ground = first_ground(inst, config)
    if ground is None:
        return "makespan 0", "NO ANSWER"
    starts = extract_starts(ground)
    makespan = max(starts[t.index] + t.duration for t in inst.tasks)
    return (f"makespan {makespan}",
            _verdict(*validate_jobshop_schedule(inst, ground)))


def _bench_reschedule(n, seed, config):
    inst, changed, old = reschedule_case(n, seed, config)
    fresh = first_ground(changed, config)
    if old is None or fresh is None:
        return "0 vs 0 changes", "NO ANSWER"
    ga = reschedule(parse_theory(changed.program),
                    parse_goal(changed.goal_text), old, config=config)
    ok = (validate_jobshop_schedule(changed, fresh)[0]
          and validate_jobshop_schedule(changed, ga.delta)[0])
    return (f"{ga.changes} vs {change_count(fresh, old)} changes",
            "VALID" if ok else "INVALID")


_SUITES = {"blocksworld": _bench_blocksworld, "jobshop": _bench_jobshop,
           "reschedule": _bench_reschedule}


def _cmd_bench(args) -> int:
    config = Config(max_depth=args.max_depth, max_steps=args.max_steps)
    suite = _SUITES[args.suite]
    _out(f"{'size':>6}  {'time':>8}  {'metric':<22}  verdict")
    for n in args.sizes:
        t0 = time.perf_counter()
        try:
            metric, verdict = suite(n, args.seed, config)
        except StepBudgetError as e:
            metric, verdict = f"{e.limit} steps", "BUDGET"
        _out(f"{n:>6}  {time.perf_counter() - t0:>7.2f}s  {metric:<22}  "
             f"{verdict}")
    return 0


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="aclp")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="answer a goal against a theory file")
    s.add_argument("file")
    s.add_argument("--goal", required=True)
    s.add_argument("--initial", help="file of initial hypothesis facts")
    mode = s.add_mutually_exclusive_group()
    mode.add_argument("--all", type=_positive_int, metavar="N",
                      help="emit up to N answers (default: first only)")
    mode.add_argument("--minimize", metavar="VAR",
                      help="branch-and-bound minimize a store variable")
    mode.add_argument("--min-changes", metavar="FILE",
                      help="minimal-change re-solve against a reference file")
    s.add_argument("--label", action="store_true",
                   help="ground each answer before printing")
    s.add_argument("--strategy", choices=sorted(_STRATEGIES), default="input")
    s.add_argument("--naf-mode", choices=["validate", "autogenerate"],
                   default="validate")
    s.add_argument("--json", action="store_true")
    s.add_argument("--max-depth", type=_positive_int,
                   default=Config.max_depth)
    s.add_argument("--max-steps", type=_positive_int, default=None,
                   help="search steps before the search gives up")
    s.set_defaults(func=_cmd_solve)

    b = sub.add_parser("bench", help="run a benchmark suite")
    b.add_argument("suite", choices=sorted(_SUITES))
    b.add_argument("--sizes", type=_positive_int, nargs="+", required=True)
    b.add_argument("--seed", type=int, default=DEFAULT_BENCH_SEED)
    b.add_argument("--max-depth", type=_positive_int,
                   default=Config.max_depth)
    b.add_argument("--max-steps", type=_positive_int, default=None)
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
