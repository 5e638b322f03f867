"""Tests of the benchmark itself: every workload's check rejects a
corrupted answer, and tracing does not change the answers.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

run._use_checkout()

import pytest  # noqa: E402

import workloads  # noqa: E402
from aclp.terms import Atom, Int, Struct, UserLit  # noqa: E402
from tracing import Tracer  # noqa: E402

W = workloads.WORKLOADS


def _instance(workload, name):
    return next(i for i in workload.instances() if i.name == name)


def _packed_schedule(inst):
    """Tasks of each resource back to back from 0: valid without a window."""
    free, starts = {}, {}
    for t in inst.tasks:
        starts[t.index] = free.get(t.resource, 0)
        free[t.resource] = starts[t.index] + t.duration
    return starts


def _start_lits(starts):
    return tuple(UserLit("start", (Atom(f"t{i}"), Int(s)))
                 for i, s in sorted(starts.items()))


def test_jobshop_check_rejects_a_start_shifted_into_an_overlap():
    w = W["jobshop"]
    inst = _instance(w, "jobshop-25-s1")
    starts = _packed_schedule(inst.data)
    assert w.check(inst, workloads.Result(_start_lits(starts))) == (True, "")
    a, b = [t for t in inst.data.tasks if t.resource == inst.data.tasks[0].resource][:2]
    starts[b.index] = starts[a.index]
    ok, reason = w.check(inst, workloads.Result(_start_lits(starts)))
    assert not ok and "overlap" in reason


def test_blocksworld_check_rejects_a_plan_with_a_move_removed():
    w = W["blocksworld"]
    inst = _instance(w, "blocks-5-s1")
    plan = tuple(UserLit("act", (Int(t), Struct("move", tuple(map(Atom, m)))))
                 for t, m in enumerate(inst.data.scramble, 1))
    assert w.check(inst, workloads.Result(plan)) == (True, "")
    ok, _ = w.check(inst, workloads.Result(plan[:-1]))
    assert not ok


def test_reschedule_check_rejects_a_change_count_off_by_one():
    w = W["reschedule"]
    inst = w.instances()[1]
    res = w.answer(inst)
    run.join_engine_threads()
    assert w.check(inst, res) == (True, "")
    res.changes += 1
    ok, reason = w.check(inst, res)
    assert not ok and "recounted" in reason


def _answered_theory(w, instances):
    """The first random theory whose answer can take on a hypothesis that
    fires an integrity constraint, with that answer and hypothesis."""
    for inst in instances:
        res = w.answer(inst)
        run.join_engine_threads()
        if res.ground is None:
            continue
        th = workloads.theory.compile_naf(workloads.parser.parse_theory(inst.program))
        for extra in workloads._ground_abducibles(th):
            if workloads.oracles.violated_ics(th, res.ground + (extra,),
                                              extra_ints=workloads._THEORY_INTS):
                return inst, res, extra
    raise AssertionError("no theory with a violating hypothesis")


def test_theories_check_rejects_a_violating_hypothesis_and_a_false_no_answer():
    w = W["theories"]
    inst, res, extra = _answered_theory(w, w.instances()[:200])
    assert w.check(inst, res) == (True, "")
    ok, reason = w.check(inst, workloads.Result(res.ground + (extra,)))
    assert not ok and "integrity constraint" in reason
    ok, reason = w.check(inst, workloads.Result())
    assert not ok and "no answer" in reason


def test_theories_check_rejects_a_wrong_one_sided_domain():
    w = W["theories"]
    inst = next(i for i in w.instances() if i.name == "one-sided-0")
    ground = (UserLit("a", (Int(4),)),)
    good = workloads.IntDomain.range(4, workloads.engine.Config().default_hi)
    assert w.check(inst, workloads.Result(ground, domains={"X": good})) == (True, "")
    ok, _ = w.check(inst, workloads.Result(ground, domains={"X": good.remove(7)}))
    assert not ok


SMALL = {
    "jobshop": ["jobshop-25-s2"],
    "blocksworld": ["blocks-4-s1", "blocks-5-s2", "blocks-6-s3"],
    "reschedule": ["reschedule-25-s1"],
    "theories": [f"theory-s{s}" for s in range(40)] + [f"naf-s{s}" for s in range(40)],
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_and_untraced_runs_give_the_same_answer_cost(name):
    w = W[name]
    instances = [i for i in w.instances() if i.name in SMALL[name]]

    def cost(answers):
        return sum(w.cost(inst, res) for inst, (res, _, _) in zip(instances, answers))

    plain, failed = run.run_round(w, instances, 0)
    assert failed == 0
    with Tracer() as tracer:
        traced, failed = run.run_round(w, instances, 0, tracer)
    assert failed == 0
    assert cost(traced) == cost(plain)
    assert not run.check(w, instances, [plain, traced])
    layers = tracer.metrics(tracer.rows(), lambda inst: 0)[0]
    assert layers["engine.solves"] >= len(instances)
    assert layers["engine.threads_started"] == layers["engine.solves"]
