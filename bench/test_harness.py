"""Self-test of the benchmark harness.

A deliberately corrupted output, or an op that raises, must be counted as a
failed op; tracing must restore every binding it replaced.  Run from the
repository root with

    python3 -m pytest bench/test_harness.py
"""

import os
import re
import sys
import tempfile

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from entransfer import amplitudes, cli, events, jointstate  # noqa: E402


def corrupt(result):
    """Change one digit of a CLI output row, or one value of a series."""
    if isinstance(result, np.ndarray):
        bad = result.copy()
        bad[bad.size // 2] += 1e-6
        return bad
    status, text, err = result
    lines = text.splitlines(keepends=True)
    # the last line with a digit: a data row of CSV, a record of JSON
    i = max(i for i, line in enumerate(lines) if re.search(r"[1-9]", line))
    m = re.search(r"[1-9]", lines[i])
    digit = "2" if m.group() == "1" else "1"
    lines[i] = lines[i][:m.start()] + digit + lines[i][m.end():]
    return status, "".join(lines), err


def sample_ops(workload, count, scratch):
    """The first ``count`` ops of a workload whose output the op returns
    (CLI calls written to stdout, or library results)."""
    ops = workloads.make_ops(workload, 3, scratch, ROOT)
    picked = []
    while len(picked) < count:
        op = next(ops)
        result = op.run()
        if isinstance(result, tuple) and not result[1]:
            op.check(result)        # written to a file; consume it
            continue
        picked.append((op, result))
    return picked


@pytest.mark.parametrize("workload,count", [("closed-form", 6), ("all-pairs", 5),
                                            ("oracle", 1)])
def test_corrupted_output_counts_as_failed(workload, count):
    with tempfile.TemporaryDirectory() as scratch:
        for op, result in sample_ops(workload, count, scratch):
            loop = harness.Loop()
            good = workloads.Op(op.kind, lambda r=result: r, op.check)
            bad = workloads.Op(op.kind, lambda r=result: corrupt(r), op.check)
            harness.execute(good, loop)
            harness.execute(bad, loop)
            assert [f[0] for f in loop.failures] == [1], (op.kind, loop.failures)


def test_raising_op_counts_as_failed():
    def boom():
        raise ValueError("deliberate")

    loop = harness.Loop()
    harness.execute(workloads.Op("boom", boom, lambda result: None), loop)
    assert len(loop.failures) == 1 and "deliberate" in loop.failures[0][2]


def test_tracer_restores_bindings():
    before = (events.exact_squares, jointstate.amplitudes_exact, cli.HANDLERS["figure"],
              amplitudes.amplitudes_exact, events.brentq)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert events.exact_squares is not before[0]
        loop = harness.Loop()
        with tempfile.TemporaryDirectory() as scratch:
            op = next(workloads.make_ops("closed-form", 1, scratch, ROOT))
            harness.execute(op, loop, tracer)
        assert not loop.failures
        assert tracer.calls["cli.main"] == 1 and tracer.calls["cli.emit"] == 1
    finally:
        tracer.uninstall()
    after = (events.exact_squares, jointstate.amplitudes_exact, cli.HANDLERS["figure"],
             amplitudes.amplitudes_exact, events.brentq)
    assert all(a is b for a, b in zip(before, after))


def test_tail_percentile():
    assert harness.tail(list(range(100))) == (89, 90.0, 10)
    assert harness.tail([3.0, 1.0]) == (3.0, 100.0, 0)


def test_calibration_factor_uses_nearby_samples():
    clock = calibrate.Clock(calibrate.series)
    for t, ms in [(0.0, 1.0), (0.1, 1.0), (0.2, 1.0), (5.0, 4.0), (5.1, 4.0), (5.2, 4.0)]:
        clock.add(t, ms)
    ref = calibrate.KERNELS[calibrate.series]
    assert clock.factor(0.1, 0.15) == ref / 1.0
    assert clock.factor(5.05, 5.1) == ref / 4.0
    # no sample within the window: the nearest one on each side counts
    assert clock.factor(2.0, 2.5) == ref / 2.5
