"""How run.py judges operations, and the machine-speed sampler."""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import calibration  # noqa: E402
import run  # noqa: E402

CHECKS = {"main": {"reference": 1.0, "tol": 1e-3},
          "bump": {"reference": 0.05605, "tol": 1e-2, "known_defect": True}}


def _op(op_id, estimate, certified):
    stdout = (f"estimate: {estimate!r}\nradius:   0.001\n"
              f"K:        1.0 (certified: {certified})\ncells:    1\n")
    return {"id": op_id, "code": 0, "error": None, "stdout": stdout}


def test_documented_miss_is_counted_apart_from_failures():
    ops = [_op("main", 1.0, "yes"), _op("bump", 0.2, "no"),
           _op("main", 1.0, "yes")]
    attempted, failed, known, reasons = run._judge_cli(ops, CHECKS)
    assert (attempted, failed, known, reasons) == (3, 0, 1, [])


def test_same_miss_claiming_a_certified_k_fails():
    ops = [_op("main", 1.0, "yes"), _op("bump", 0.2, "yes")]
    attempted, failed, known, reasons = run._judge_cli(ops, CHECKS)
    assert (attempted, failed, known) == (2, 1, 0)
    assert reasons == ["bump: reference outside estimate +- radius"]


def test_miss_on_an_ordinary_operation_fails():
    ops = [_op("main", 1.5, "yes")]
    assert run._judge_cli(ops, CHECKS)[1] == 1


def test_speed_is_the_mean_of_reference_over_loop_time():
    ref = calibration.REFERENCE_S
    assert calibration.speed([ref / 2, ref, ref]) == 4.0 / 3.0
    assert calibration.loop_seconds() > 0


def test_sampler_counts_its_own_time_and_stops():
    sampler = calibration.SpeedSampler(interval=0.01)
    mark = sampler.mark()
    sampler.start()
    try:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    loops, paused = sampler.since(mark)
    assert len(loops) >= 2
    assert paused >= sum(loops) > 0
    assert sampler.since(sampler.mark()) == ([], 0.0)
