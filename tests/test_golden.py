"""Golden answer streams: the engine's output, pinned.

`golden_answers.json` holds, for every program below, the first answers
of its stream in order -- Δ (its `repr`, which carries variable ids),
provenance, the rendered store and the first labelling -- plus the type
of any error the stream raised.  For `reschedule` it holds the returned
ground answer.  No run has a time budget, so the streams do not depend on
machine speed.

Fresh variable ids are not stable across versions, so a case is compared
up to a renumbering of its ids by first appearance
(`oracles.canonical_ids`): which variables are the same, within an answer
and across the answers of a case, stays pinned; the numbers do not.

A change to the search that keeps the answers must leave this file
unchanged.  To re-record it (only when the answers are meant to change):

    PYTHONPATH=src:tests python tests/test_golden.py [NAME...]

With names, only those cases are re-recorded and every other one stays
byte-identical; with none, every case is.
"""

import itertools
import json
import pathlib
import random
import sys

import pytest

from aclp import (Config, compile_naf, parse_goal, parse_theory, reschedule,
                  solve)
from aclp.corpus import generate_blocks, generate_jobshop, reschedule_case
from aclp.engine import Solver
from aclp.store import map_constraint

from oracles import canonical_ids, random_naf_program_text, random_theory_text

GOLDEN = pathlib.Path(__file__).with_name("golden_answers.json")
ANSWERS = 3


def _labelling(sol):
    return None if sol is None else [[vid, repr(t)] for vid, t in sol.items()]


def stream_record(theory, goal):
    """The first answers of a solve with no time budget, and its error."""
    out = {"answers": [], "error": None}
    stream = solve(theory, goal, config=Config())
    try:
        for ans in stream:
            out["answers"].append({
                "delta": [repr(l) for l in ans.delta],
                "provenance": list(ans.provenance),
                "store": ans.store.render(),
                "labelling": _labelling(next(ans.labellings(), None)),
            })
            if len(out["answers"]) == ANSWERS:
                break
    except Exception as exc:          # the error type is part of the record
        out["error"] = type(exc).__name__
    finally:
        stream.close()
    return out


def reschedule_record(n, seed):
    _, changed, old = reschedule_case(n, seed)
    try:
        best = reschedule(parse_theory(changed.program),
                          parse_goal(changed.goal_text), old, config=Config())
    except Exception as exc:
        return {"error": type(exc).__name__}
    return {"delta": [repr(l) for l in best.delta], "changes": best.changes,
            "labelling": _labelling(best.valuation), "error": None}


def programs():
    """(name, thunk giving (theory, goal)) for every recorded stream, in a
    fixed order."""
    out = []
    for seed in range(200):
        text, goal = random_theory_text(random.Random(seed))
        out.append((f"theory-{seed}", lambda text=text, goal=goal:
                    (parse_theory(text), parse_goal(goal))))
    for seed in range(50):
        text, goal = random_naf_program_text(random.Random(seed))
        if goal is None:
            continue
        out.append((f"naf-{seed}", lambda text=text, goal=goal: (
            compile_naf(parse_theory(text), mode="autogenerate"),
            parse_goal(goal))))
    for n in (3, 4, 5):
        inst = generate_blocks(n, 1)
        out.append((f"blocks-{n}", lambda inst=inst: (
            compile_naf(parse_theory(inst.program), mode="validate"),
            parse_goal(inst.goal_text))))
    for n in (10, 25):
        inst = generate_jobshop(n, 1)
        out.append((f"jobshop-{n}", lambda inst=inst: (
            parse_theory(inst.program), parse_goal(inst.goal_text))))
    return out


def cases():
    """(name, thunk) for every recorded program, in a fixed order."""
    out = [(name, lambda make=make: stream_record(*make()))
           for name, make in programs()]
    for seed in (1, 2, 3):
        out.append((f"reschedule-10-s{seed}",
                    lambda seed=seed: reschedule_record(10, seed)))
    return out


def record(names=()):
    """Every case's record, or with `names` the file's records with only
    those cases recorded afresh."""
    if not names:
        return {name: run() for name, run in cases()}
    out = json.loads(GOLDEN.read_text())
    known = {name: run for name, run in cases()}
    unknown = [name for name in names if name not in known]
    if unknown:
        raise SystemExit(f"no such case: {', '.join(unknown)}")
    for name in names:
        out[name] = known[name]()
    return out


def dump(records) -> str:
    return json.dumps(records, indent=1, ensure_ascii=False) + "\n"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert list(golden) == [name for name, _ in cases()]


def test_canonical_ids_accept_a_consistent_renaming():
    a = {"delta": ["a(_X#7,_Y#9)"], "store": "_X#7 #< _Y#9",
         "labelling": [[7, "1"], [9, "2"]], "changes": 9}
    b = {"delta": ["a(_X#3,_Y#1)"], "store": "_X#3 #< _Y#1",
         "labelling": [[3, "1"], [1, "2"]], "changes": 9}
    assert canonical_ids(a) == canonical_ids(b) == {
        "delta": ["a(_X#0,_Y#1)"], "store": "_X#0 #< _Y#1",
        "labelling": [[0, "1"], [1, "2"]], "changes": 9}


def test_canonical_ids_keep_merged_and_split_ids_apart():
    # merging two ids into one, within an answer
    assert canonical_ids(["a(_X#7,_Y#9)"]) != canonical_ids(["a(_X#7,_Y#7)"])
    # splitting one id into two, across the answers of a case
    shared = [{"delta": ["a(_X#5)"]}, {"delta": ["b(_X#5)"]}]
    split = [{"delta": ["a(_X#5)"]}, {"delta": ["b(_X#6)"]}]
    assert canonical_ids(shared) != canonical_ids(split)


def test_canonical_ids_renumber_labelling_keys_with_the_reprs():
    a = {"delta": ["a(_X#7,_Y#9)"], "labelling": [[9, "2"]]}
    assert canonical_ids(a) == canonical_ids(
        {"delta": ["a(_X#4,_Y#2)"], "labelling": [[2, "2"]]})
    assert canonical_ids(a) != canonical_ids(
        {"delta": ["a(_X#4,_Y#2)"], "labelling": [[4, "2"]]})
    assert canonical_ids({"delta": [], "labelling": None}) == {
        "delta": [], "labelling": None}


def test_the_record_round_trips_byte_identically(golden):
    # so re-recording some cases leaves every other one as it was
    assert dump(golden) == GOLDEN.read_text()


def test_named_cases_alone_are_recorded_afresh(monkeypatch, tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(dump({"one": 1, "two": 2, "three": 3}))
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", path)
    monkeypatch.setattr(sys.modules[__name__], "cases", lambda: [
        ("one", lambda: 10), ("two", lambda: 20), ("three", lambda: 30)])
    assert record(["three", "one"]) == {"one": 10, "two": 2, "three": 30}
    assert list(record(["three"])) == ["one", "two", "three"]
    assert record() == {"one": 10, "two": 20, "three": 30}
    with pytest.raises(SystemExit):
        record(["four"])


@pytest.mark.parametrize("kind", ["theory", "naf", "blocks", "jobshop",
                                  "reschedule"])
def test_answer_streams_match_the_golden_record(golden, kind):
    for name, run in cases():
        if name.split("-")[0] == kind:
            assert canonical_ids(run()) == canonical_ids(golden[name]), name


# programs whose constraints name variables without a domain, which a
# later unification binds
_UNTYPED = [
    "s(a).\ng :- p(1).\nic :- p(Z), W ## a, s(W).",
    "q(Y, Y).\ng :- X ## a, q(X, Y), p(Y).",
    "q(a).\ng :- Y :: 0..1, X ## a #\\/ Y #= 1, q(X), p(Y).",
    "q(f(b)).\ng :- X ## a #\\/ X ## b, q(f(X)), p(X).",
]


def test_an_answer_store_holds_no_bound_variable():
    # the store re-enters a constraint when a variable it names is bound,
    # so an answer's store reads the same through the solver's bindings
    untyped = [(f"untyped-{i}", lambda text=text: (
        parse_theory("abducible_predicate(p/1).\n" + text), parse_goal("g")))
        for i, text in enumerate(_UNTYPED)]
    for name, make in programs() + untyped:
        theory, goal = make()
        solver = Solver(theory, Config())
        stream = solver.solve(goal)
        for ans in itertools.islice(stream, ANSWERS):
            for c in ans.store.active_constraints():
                assert c == map_constraint(c, solver.subst.walk), (name, c)
        stream.close()


if __name__ == "__main__":
    GOLDEN.write_text(dump(record(sys.argv[1:])))
