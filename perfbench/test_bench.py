"""Self-tests of the benchmark: seeded inputs, the checker, the span maths.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "tests"))

import huffseq as H  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import FAILED, PASS, REJECTED  # noqa: E402


def _first_specs(name, seed, tmp_path, count):
    tmp_path.mkdir()
    wl = workloads.WORKLOADS[name](seed, tmp_path)
    gen = wl.specs()
    return [next(gen) for _ in range(count)]


def _same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    one = _first_specs(name, 7, tmp_path / "a", 14)
    two = _first_specs(name, 7, tmp_path / "b", 14)
    other = _first_specs(name, 8, tmp_path / "c", 14)
    strip = "argv", "paths"     # file names differ by work directory
    one, two, other = ([{k: v for k, v in s.items() if k not in strip}
                        for s in specs] for specs in (one, two, other))
    assert all(map(_same, one, two))
    assert not all(map(_same, one, other))


@pytest.fixture
def sweep(tmp_path):
    return workloads.SweepShort(1, tmp_path)


def test_timed_sweep_ops_do_not_fail(sweep):
    gen = sweep.specs()
    for _ in range(3000):
        spec = next(gen)
        verdict = sweep.check(spec, sweep.run(spec))
        assert verdict.status != FAILED, (spec, verdict)


def test_audit_is_fixed_and_reaches_the_known_defects(tmp_path):
    one = workloads.SweepShort(1, tmp_path).audit_specs()
    two = workloads.SweepShort(2, tmp_path).audit_specs()
    assert all(map(_same, one, two))
    sweep = workloads.SweepShort(1, tmp_path)
    statuses = {sweep.check(spec, sweep.run(spec)).status
                for spec in one[:400]}
    assert FAILED in statuses


def test_checker_passes_the_reference_sequence(sweep):
    spec = dict(family="fib", n=19, s=1, oracle=True)
    verdict = sweep.check(spec, sweep.run(spec))
    assert verdict.status == PASS and not verdict.mismatch


def test_checker_flags_a_perturbed_output(sweep, monkeypatch):
    good = H.gen_fibonacci(19, 1)
    elements = good.elements.copy()
    elements[5] += 1
    bad = H.Sequence(elements, family="fib", scale=1)
    monkeypatch.setattr(H, "generate", lambda *args, **kwargs: bad)
    spec = dict(family="fib", n=19, s=1, oracle=True)
    verdict = sweep.check(spec, sweep.run(spec))
    assert verdict.status == FAILED
    assert not verdict.mismatch     # the numbers are right; the output is not


def test_checker_counts_a_typed_error_as_rejected(sweep):
    spec = dict(family="fib", n=19, s=0, oracle=False)
    assert sweep.check(spec, sweep.run(spec)).status == REJECTED


def test_checker_counts_a_raw_exception_as_failed(sweep, monkeypatch):
    def overflow(*args, **kwargs):
        raise OverflowError("int too large to convert to float")
    monkeypatch.setattr(H, "generate", overflow)
    spec = dict(family="fib", n=19, s=10 ** 400, oracle=False)
    assert sweep.check(spec, sweep.run(spec)).status == FAILED


def test_oracle_cross_check_reports_a_wrong_number(sweep, monkeypatch):
    real = H.is_canonical

    def lying(seq, *args, **kwargs):
        rep = real(seq, *args, **kwargs)
        return type(rep)(rep.is_canonical, rep.tolerance, rep.peak,
                         rep.energy, rep.worst_lag, rep.worst_residual + 1.0)
    monkeypatch.setattr(H, "is_canonical", lying)
    spec = dict(family="fib", n=19, s=1, oracle=True)
    assert sweep.check(spec, sweep.run(spec)).mismatch


def test_cli_deblur_bound_below_error_fails(tmp_path):
    cli = workloads.CliCold(1, tmp_path)
    obj = np.random.default_rng(0).random((12, 12))
    row = H.generate("fib", n=7, s=1)
    grid = H.outer(row, row).real
    err = H.recon_error(obj, H.reconstruct(H.blur(obj, grid), grid))
    spec = dict(verb="deblur", obj=obj, n=7)
    holds = dict(max_abs_error=err.max_abs_error,
                 end_term_bound=H.end_term_bound(grid, obj.max()))
    broken = dict(holds, end_term_bound=err.max_abs_error / 2)
    assert cli._check_deblur(spec, holds, None).status == PASS
    assert cli._check_deblur(spec, broken, None).status == FAILED


def test_layer_stats_busy_and_self_time():
    # outer [0, 100] with children [10, 30] and [40, 70]; a second,
    # separate call of the child group [200, 210].
    recorded = [
        [0, None, "measure", "decorrelate.measure", 0, 100, 0, 0, "ok"],
        [1, 0, "blur", "decorrelate.blur", 10, 30, 0, 5, "ok"],
        [2, 0, "blur", "decorrelate.blur", 40, 70, 0, 5, "ok"],
        [3, None, "blur", "decorrelate.blur", 200, 210, 1, 7,
         "ArgumentError"],
    ]
    stats = spans.layer_stats([recorded])
    assert stats["decorrelate.measure"]["self_ns"] == 50
    assert stats["decorrelate.measure"]["busy_ns"] == 100
    assert stats["decorrelate.blur"]["busy_ns"] == 60
    assert stats["decorrelate.blur"]["calls"] == 3
    assert stats["decorrelate.blur"]["count"] == 17
    assert stats["decorrelate.blur"]["typed_errors"] == 1


def test_tracer_sees_calls_between_layers():
    tracer = spans.Tracer()
    tracer.install()
    try:
        f = H.generate("fib", n=7, s=1)
        H.end_term_bound(H.outer(f, f).real)
    finally:
        tracer.uninstall()
    names = [(s[2], s[1]) for s in tracer.spans]
    assert ("generate", None) in names
    bound = next(s[0] for s in tracer.spans if s[2] == "end_term_bound")
    assert ("nd_autocorr", bound) in names
    assert H.nd_autocorr.__module__ == "huffseq.analysis"
    assert not hasattr(H.nd_autocorr, "__wrapped__")


def test_round_tail_is_the_same_statistic_for_any_round_count():
    import run
    one_round = [1.0, 3.0, 2.0]
    assert run.tail_latency(one_round * 2, 3)[:2] == (3.0, 2)
    assert run.tail_latency(one_round * 5, 3)[:2] == (3.0, 5)
    spread = [0.1] * 989 + [float(k) for k in range(11)]
    assert run.tail_latency(spread, 1)[0] == 1.0
