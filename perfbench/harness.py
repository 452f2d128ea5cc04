"""Closed-loop measurement of certified factorizations and isometry
decisions, with result checks outside the timed spans.

One caller on one thread runs complete passes over a seeded schedule of
operations until the timed operations add up to the requested seconds.
Every pass visits every input once, so the mix of measured operations does
not depend on how fast the program is.  Times are normalized by a reference
task run around each timed span (see ``timed``).
"""

from __future__ import annotations

import math
import resource
import statistics
import time

# called through their modules, so a traced run sees them
from hermlat import classify, factorize
from hermlat.errors import VerificationFailed

import workloads

SETUP_REPEATS = 3

# The host's speed drifts by tens of percent as other tenants load it, so
# every timed span is bracketed by a fixed pure-Python reference task and
# reported at the speed where that task takes REFERENCE_S.
REFERENCE_ROUNDS = 800
REFERENCE_S = 0.75e-3


def reference_task(rounds=REFERENCE_ROUNDS):
    """Fixed interpreter work: modular big-integer products, tuples, a list."""
    m = (1 << 255) - 19
    x, acc = 3, []
    for i in range(rounds):
        x = (x * x + i) % m
        acc.append((x & 0xFFFF, i))
    return len(acc)


def reference_time():
    """Fastest of three runs of the reference task, so that one interrupt
    does not skew it."""
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        reference_task()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def timed(fn):
    """Run fn() between two reference measurements; returns (result,
    exception, normalized seconds, wall seconds), one of result and
    exception None."""
    before = reference_time()
    t0 = time.perf_counter()
    result = error = None
    try:
        result = fn()
    except Exception as ex:  # noqa: BLE001 - every exception is a failed op
        error = ex
    wall = time.perf_counter() - t0
    after = reference_time()
    return result, error, wall * 2 * REFERENCE_S / (before + after), wall


# The end-to-end metrics, measured with tracing off: (name, unit, better,
# bound).  The bound is the share of the parent's median by which the metric
# may worsen; BENCHMARK.json lists the metrics that have one.  The medians
# and the decide p90 have none: half of the ramified lattices are cheap and
# half dear, so the median falls in the gap between them and jumps from
# seed to seed by more than the largest bound (see README.md).  They are
# printed with the rest; factor_per_s and decide_s_iqm carry the bound for
# the typical operation.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("factor_s_p50", "s", "lower", None),
    ("factor_s_p90", "s", "lower", 0.25),
    ("factor_per_s", "1/s", "higher", 0.25),
    ("decide_s_p50", "s", "lower", None),
    ("decide_s_p90", "s", "lower", None),
    ("decide_s_iqm", "s", "lower", 0.25),
    ("pass_frac", "ratio", "higher", 0.1),
    ("min_residual_precision", "digits", "higher", 0.05),
    ("factors_per_op", "gen/op", "lower", 0.25),
    ("symmetries_only_frac", "ratio", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def interquartile_mean(values):
    """Mean of the values between the first and the third quartile (the
    middle half of the sorted values, at least one); None for no values."""
    if not values:
        return None
    xs = sorted(values)
    cut = len(xs) // 4
    return statistics.fmean(xs[cut:len(xs) - cut])


def percentile(values, q):
    """q-th percentile (0..100) by linear interpolation between the two
    closest ranks of the sorted values; None for no values."""
    if not values:
        return None
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# operations and their checks
# ---------------------------------------------------------------------------


def factor_op(item):
    """The acceptance round trip: factor, then certify."""
    fac = factorize.factor_unitary(item.lattice, item.phi)
    cert = factorize.verify_factorization(item.lattice, item.phi, fac)
    return fac, cert


def decide_op(item):
    """What ``hermlat isometric`` and ``hermlat classify`` compute."""
    ok, _, _ = classify.isometry_conditions(item.lattice, item.other)
    workloads.classify_record(item.other)
    return ok


OPS = {"factor": factor_op, "decide": decide_op}


def check_factor(item, result):
    """Reason the certified factorization is wrong, or None."""
    fac, cert = result
    lat = item.lattice
    diff_nonzero = any(not (a - b).is_zero()
                       for r1, r2 in zip(fac.matrix(), item.phi) for a, b in zip(r1, r2))
    if diff_nonzero:
        return "product does not reproduce the input"
    if cert.get("det_consistent") is not True:
        return "determinant not consistent"
    floor = lat.alg.base.precision - lat.alg.base.guard
    if cert.get("residual_precision") is None or cert["residual_precision"] < floor:
        return f"residual precision below {floor}"
    return None


def check_decide(item, verdict):
    if verdict is not item.truth:
        return f"verdict {verdict} for a pair built as {item.kind}"
    return None


CHECKS = {"factor": check_factor, "decide": check_decide}


class Sample:
    """One timed operation: normalized and wall seconds; `error` says why
    it failed (None if it did not); `wrong` marks a returned answer that
    failed its check; `factors` is (generator count, contains Eichler,
    residual precision) of a good factorization."""

    __slots__ = ("kind", "lattice", "seconds", "wall", "error", "wrong", "factors")

    def __init__(self, kind, lattice, seconds, wall, error, wrong, factors=None):
        self.kind = kind
        self.lattice = lattice
        self.seconds = seconds
        self.wall = wall
        self.error = error
        self.wrong = wrong
        self.factors = factors


def run_pass(schedule, ops=OPS, on_op=None):
    """One pass over the schedule; returns the samples.  `on_op(index)` is
    called before each operation (the tracer uses it for op ids)."""
    samples = []
    for index, (kind, item) in enumerate(schedule):
        if on_op is not None:
            on_op(index)
        result, error, dt, wall = timed(lambda: ops[kind](item))
        if error is not None:
            # a certificate that does not verify is a wrong answer; any
            # other exception is a failure without an answer
            samples.append(Sample(kind, item.lattice_name, dt, wall,
                                  f"{type(error).__name__}: {error}",
                                  isinstance(error, VerificationFailed)))
            continue
        try:
            reason = CHECKS[kind](item, result)
        except Exception as ex:  # noqa: BLE001 - an unusable result is a wrong one
            reason = f"check raised {type(ex).__name__}: {ex}"
        factors = None
        if kind == "factor" and reason is None:
            fac, cert = result
            factors = (len(fac), fac.contains_eichler, cert["residual_precision"])
        samples.append(Sample(kind, item.lattice_name, dt, wall, reason,
                              reason is not None, factors))
    return samples


def run_passes(schedule, seconds, **kw):
    """Complete passes until the operations' normalized time reaches
    `seconds`, at least one pass."""
    samples, passes = [], 0
    while not passes or sum(s.seconds for s in samples) < seconds:
        samples.extend(run_pass(schedule, **kw))
        passes += 1
    return samples, passes


def run_rounds(schedule, round_len, seconds, **kw):
    """Whole rounds from the start of the schedule until the operations'
    normalized time reaches `seconds`, at most one pass; returns the
    samples and the number of operations run."""
    samples, done = [], 0
    while done < len(schedule) and sum(s.seconds for s in samples) < seconds:
        samples.extend(run_pass(schedule[done:done + round_len], **kw))
        done += round_len
    return samples, done


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(samples, setup_times, wall=False):
    """{name: (value, sample count)} for every end-to-end metric, from the
    normalized times or, with `wall`, from the wall-clock ones."""
    fac = [s for s in samples if s.kind == "factor"]
    dec = [s for s in samples if s.kind == "decide"]
    good = [s for s in fac if s.error is None]
    fac_t = [s.wall if wall else s.seconds for s in fac]
    dec_t = [s.wall if wall else s.seconds for s in dec]
    failed = sum(1 for s in samples if s.error is not None)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "factor_s_p50": (percentile(fac_t, 50), len(fac_t)),
        "factor_s_p90": (percentile(fac_t, 90), len(fac_t)),
        "factor_per_s": (len(good) / sum(fac_t) if fac_t else 0.0, len(fac_t)),
        "decide_s_p50": (percentile(dec_t, 50), len(dec_t)),
        "decide_s_p90": (percentile(dec_t, 90), len(dec_t)),
        "decide_s_iqm": (interquartile_mean(dec_t), len(dec_t)),
        "pass_frac": (1.0 - failed / len(samples), len(samples)),
        "min_residual_precision": (min((s.factors[2] for s in good), default=0),
                                   len(good)),
        "factors_per_op": (statistics.fmean(s.factors[0] for s in good)
                           if good else 0.0, len(good)),
        "symmetries_only_frac": (sum(1 for s in good if not s.factors[1]) / len(good)
                                 if good else 0.0, len(good)),
        "peak_rss_mb": (rss_kb / 1024.0, 1),
    }


def failure_summary(samples):
    """Failed and wrong operations, grouped by reason."""
    by_reason = {}
    for s in samples:
        if s.error is not None:
            key = f"{s.kind} {s.lattice}: {s.error}"
            by_reason[key] = by_reason.get(key, 0) + 1
    failed = sum(by_reason.values())
    return {
        "attempted": len(samples),
        "failed": failed,
        "wrong": sum(1 for s in samples if s.wrong),
        "fail_frac": failed / len(samples) if samples else 0.0,
        "by_reason": by_reason,
    }
