"""Tests of the benchmark harness itself (not of hermlat).

Run from the repository root with the program sources on the path:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os

import pytest

import harness
import run
import tracer as tr
import workloads
from hermlat import classify, factorize
from hermlat.localfield import FieldElement, LocalField

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()
    tracer = tr.Tracer(clock=clock)

    def kernel(x):
        clock.now += 1.0
        return x

    kernel = tracer._wrap("localfield", "FieldElement.__mul__", kernel)

    def inner():
        clock.now += 2.0
        kernel(1)
        kernel(2)
        clock.now += 3.0

    inner = tracer._wrap("linalg", "mat_mul", inner)

    def outer():
        clock.now += 10.0
        inner()
        kernel(3)
        clock.now += 20.0

    outer = tracer._wrap("classify", "isometry_conditions", outer)
    tracer.phase = "loop"
    tracer.op = 0
    outer()

    totals = tracer.totals(("loop",))
    assert totals[("classify", "isometry_conditions")][:3] == [1, 38.0, 30.0]
    assert totals[("linalg", "mat_mul")][:3] == [1, 7.0, 5.0]
    assert totals[("localfield", "FieldElement.__mul__")][:3] == [3, 3.0, 3.0]
    assert tracer.layer_self(("loop",)) == {
        **{layer: 0.0 for layer in tr.LAYERS},
        "classify": 30.0, "linalg": 5.0, "localfield": 3.0}
    # kernel calls are aggregated per calling layer, not recorded as spans
    by_caller = {key[3]: acc[0] for key, acc in tracer.agg.items() if key[1] == "localfield"}
    assert by_caller == {"linalg": 2, "classify": 1}
    assert [(s[4], s[2]) for s in tracer.spans] == [("mat_mul", 0), ("isometry_conditions", 0)]
    inner_span, outer_span = tracer.spans
    assert inner_span[1] == outer_span[0] and outer_span[1] is None


def test_self_time_survives_exceptions():
    clock = FakeClock()
    tracer = tr.Tracer(clock=clock)

    def failing():
        clock.now += 4.0
        raise ValueError("no")

    failing = tracer._wrap("etale", "EtaleAlgebra.u0", failing)

    def caller():
        clock.now += 1.0
        try:
            failing()
        except ValueError:
            pass

    tracer._wrap("classify", "splits_hyperbolic", caller)()
    assert tracer.layer_self(("setup",))["classify"] == 1.0
    assert tracer.layer_self(("setup",))["etale"] == 4.0
    assert tracer._stack == []


def test_outermost_inclusive_time_skips_recursion():
    spans = [(0, None, 1, "isometries", "eichler_to_symmetries", 0.0, 10.0),
             (1, 0, 1, "isometries", "eichler_to_symmetries", 2.0, 5.0),
             (2, None, 2, "isometries", "eichler_to_symmetries", 20.0, 21.0)]
    assert tr._outermost_incl(spans, ("eichler_to_symmetries",), {1, 2}) == 11.0
    assert tr._outermost_incl(spans, ("eichler_to_symmetries",), {2}) == 1.0


# -- percentiles -----------------------------------------------------------------


def test_percentile_interpolates_between_closest_ranks():
    assert harness.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert harness.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert harness.percentile(list(range(11)), 90) == 9.0
    assert harness.percentile([1.0, 2.0], 90) == pytest.approx(1.9)
    assert harness.percentile([7.0], 90) == 7.0
    assert harness.percentile([1.0, 2.0, 3.0], 0) == 1.0
    assert harness.percentile([1.0, 2.0, 3.0], 100) == 3.0
    assert harness.percentile([], 50) is None


def test_interquartile_mean_drops_the_outer_quarters():
    assert harness.interquartile_mean([100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]) == 3.5
    assert harness.interquartile_mean([1.0, 2.0, 9.0]) == 4.0
    assert harness.interquartile_mean([7.0]) == 7.0
    assert harness.interquartile_mean([]) is None


# -- a traced run leaves no wrapper behind ---------------------------------------------


@pytest.fixture(scope="module")
def unramified():
    lats = workloads.build("unramified")
    return lats, workloads.make_inputs("unramified", lats, seed=3)


def test_tracer_patches_import_bindings_and_restores_them(unramified):
    lats, schedule = unramified
    before_mul = FieldElement.__mul__
    before_arrange = factorize._arrange_first_block
    before_gram = classify._gram_of
    item = next(item for kind, item in schedule if kind == "factor")
    with tr.Tracer() as tracer:
        assert factorize._arrange_first_block is classify._arrange_first_block
        assert getattr(factorize._arrange_first_block, tr.WRAPPED)
        assert getattr(FieldElement.__mul__, tr.WRAPPED)
        tracer.phase = "loop"
        harness.factor_op(item)
    totals = tracer.totals(("loop",))
    assert totals[("classify", "_arrange_first_block")][0] > 0
    assert totals[("lattice", "_gram_of")][0] > 0
    assert totals[("factorize", "verify_factorization")][0] == 1
    assert tr.wrapped_bindings() == []
    assert FieldElement.__mul__ is before_mul
    assert factorize._arrange_first_block is before_arrange
    assert classify._gram_of is before_gram


def test_traced_run_removes_wrappers_and_reports_every_layer_metric(tmp_path, capsys):
    result = run.measure_traced("unramified", seed=2, seconds=0.1, out_dir=str(tmp_path))
    assert tr.wrapped_bindings() == []
    assert set(result["metrics"]) == set(tr.LAYER_METRICS)
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["localfield.mul_calls"]["value"] > 0
    assert result["metrics"]["specfile.parse_s"]["value"] > 0
    written = list(tmp_path.iterdir())
    assert len(written) == 1
    with open(written[0]) as fh:
        assert json.loads(fh.readline())["record"] == "span_fields"
    capsys.readouterr()


# -- failures are counted, never dropped -----------------------------------------------


def _one_pass(schedule, ops):
    samples = harness.run_pass(schedule, ops=ops)
    return samples, harness.failure_summary(samples)


def test_forged_wrong_verdict_counts_as_failed_and_wrong(unramified):
    _, schedule = unramified
    decide = [(kind, item) for kind, item in schedule if kind == "decide"][:4]
    forged = dict(harness.OPS, decide=lambda item: not item.truth)
    samples, summary = _one_pass(decide, forged)
    assert summary["failed"] == summary["wrong"] == 4
    assert summary["fail_frac"] == 1.0
    assert harness.end_to_end(samples, [1.0])["pass_frac"][0] == 0.0
    assert not run._result(samples, {})["correct"]


def test_broken_certificates_count_as_failed(unramified):
    _, schedule = unramified
    factor = [(kind, item) for kind, item in schedule
              if kind == "factor" and item.k >= 2][:3]

    def dropped_generator(item):
        fac, cert = harness.factor_op(item)
        fac.generators = fac.generators[:-1]
        return fac, cert

    def det_inconsistent(item):
        fac, cert = harness.factor_op(item)
        return fac, dict(cert, det_consistent=False)

    def low_precision(item):
        fac, cert = harness.factor_op(item)
        return fac, dict(cert, residual_precision=47)

    for forged_op in (dropped_generator, det_inconsistent, low_precision):
        samples, summary = _one_pass(factor, dict(harness.OPS, factor=forged_op))
        assert summary["failed"] == summary["wrong"] == len(factor), forged_op.__name__
        assert harness.end_to_end(samples, [1.0])["pass_frac"][0] == 0.0


def test_exceptions_count_as_failed_but_not_wrong(unramified):
    _, schedule = unramified

    def raising(item):
        raise ArithmeticError("forged")

    mixed = schedule[:4]
    samples, summary = _one_pass(mixed, {"factor": raising, "decide": harness.decide_op})
    assert summary["failed"] == 2 and summary["wrong"] == 0
    assert harness.end_to_end(samples, [1.0])["pass_frac"][0] == 0.5
    assert run._result(samples, {})["correct"]


def test_genuine_pass_has_no_failures(unramified):
    _, schedule = unramified
    samples, summary = _one_pass(schedule[:10], harness.OPS)
    assert summary["failed"] == 0
    metrics = harness.end_to_end(samples, [1.0])
    assert metrics["pass_frac"][0] == 1.0
    assert metrics["min_residual_precision"][0] >= 48


# -- inputs -----------------------------------------------------------------------


def test_inputs_and_digest_depend_only_on_the_seed(unramified):
    lats, schedule = unramified
    again = workloads.build("unramified")
    same = workloads.digest("unramified", again,
                            workloads.make_inputs("unramified", again, seed=3))
    other = workloads.digest("unramified", again,
                             workloads.make_inputs("unramified", again, seed=4))
    assert workloads.digest("unramified", lats, schedule) == same != other


def test_digest_keys_do_not_depend_on_how_a_value_is_stored():
    K = LocalField(2)
    six = K.from_int(6)
    assert workloads._field_key(six) == workloads._field_key(K.from_int(12) / K.from_int(2))
    assert workloads._field_key(K.one / K.from_int(4)) == [2, 1]


# -- BENCHMARK.json -----------------------------------------------------------------


def test_benchmark_json_names_every_metric_and_workload():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WHY[w["name"]] for w in spec["workloads"])
    assert {(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == \
        {row for row in harness.END_TO_END if row[3] is not None}
    assert {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]} == \
        {(name, row[0], row[1]) for name, row in tr.LAYER_METRICS.items()}
