"""Closed-loop timing of checked ops under a per-op time limit.

One client runs ops back to back: the next op starts only after the
previous one has finished and been judged.  An op is right when it returns
the answer its check expects, or when it raises the typed error it
declares; a wrong answer, any other exception, or running past the time
limit is a failure, so a hang cannot stall a run.

Op and set-up times are CPU time of the benchmark process and of its
children (see cpu_seconds); the wall-clock figures go into the full record
beside them.
"""

from __future__ import annotations

import contextlib
import resource
import signal
import statistics
import time

TAIL_SAMPLES = 10  # samples that must lie beyond the reported tail
# Set-up is built at least SETUP_REPEATS times and until SETUP_SECONDS
# have been spent, at most SETUP_MAX_REPEATS times.
SETUP_REPEATS = 9
SETUP_SECONDS = 3.0
SETUP_MAX_REPEATS = 5000


class OpTimeout(Exception):
    """An op ran past its time limit and was interrupted."""


class Op:
    """One timed unit of work and the way to judge its answer.

    run() does the work and returns its answer; check(answer) returns None
    when the answer is right and a short message otherwise.  When `expect`
    is an exception type, raising it is the right answer and check is not
    called.  `key` identifies the input, for determinism tests and reports.
    """

    __slots__ = ("kind", "key", "run", "check", "expect")

    def __init__(self, kind, key, run, check=None, expect=None):
        self.kind = kind
        self.key = key
        self.run = run
        self.check = check
        self.expect = expect


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise OpTimeout in the main thread once `seconds` have passed."""
    def on_alarm(signum, frame):
        raise OpTimeout(f"op exceeded {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def judge(op: Op, answer, error):
    """None when the op is right, else a one-line reason."""
    if isinstance(error, OpTimeout):
        return str(error)
    if op.expect is not None:
        if isinstance(error, op.expect):
            return None
        got = type(error).__name__ if error else f"answer {answer!r:.80}"
        return f"expected {op.expect.__name__}, got {got}"
    if error is not None:
        return f"unexpected {type(error).__name__}: {error}"[:200]
    try:
        return op.check(answer) if op.check else None
    except Exception as exc:  # a check that cannot read the answer
        return f"check raised {type(exc).__name__}: {exc}"[:200]


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has waited for.

    On a shared virtual machine the wall clock also runs while the
    hypervisor gives this guest's processor to another guest (steal time),
    which no change to charp can move and which comes in bursts: on a
    2-core guest, steal summed over both processors reached about 10 s
    during one 20-second run of the cli workload.  The process and child
    CPU clocks do not count it.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class RunStats:
    """Latencies of right ops and the failures of one measured run."""

    def __init__(self):
        self.latencies = []   # CPU seconds, right ops only
        self.busy = 0.0       # CPU seconds in ops, failed ones included
        self.wall_latencies = []  # wall seconds, right ops only
        self.wall_busy = 0.0
        self.attempted = 0
        self.failures = []    # (kind, key, reason)
        self.kinds = {}       # kind -> ops attempted

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_one(op: Op, limit: float, span=contextlib.nullcontext):
    """(reason, CPU seconds, wall seconds): run one op under the limit and
    judge it; reason is None when the op is right."""
    answer = error = None
    start, cpu_start = time.perf_counter(), cpu_seconds()
    try:
        with time_limit(limit), span():
            answer = op.run()
    except Exception as exc:  # judged below, like a wrong answer
        error = exc
    cpu, wall = cpu_seconds() - cpu_start, time.perf_counter() - start
    return judge(op, answer, error), cpu, wall


def measure(ops, seconds: float, limit: float, max_ops=None,
            span=contextlib.nullcontext) -> RunStats:
    """Run ops one after another until `seconds` of wall time have passed
    or `max_ops` have been attempted.

    `span` is a context manager factory entered around each op's work; the
    traced run uses it to mark the op as traced busy time.
    """
    stats = RunStats()
    deadline = time.perf_counter() + seconds
    for op in ops:
        if time.perf_counter() >= deadline or (
                max_ops is not None and stats.attempted >= max_ops):
            break
        stats.attempted += 1
        stats.kinds[op.kind] = stats.kinds.get(op.kind, 0) + 1
        reason, cpu, wall = run_one(op, limit, span)
        stats.busy += cpu
        stats.wall_busy += wall
        if reason is None:
            stats.latencies.append(cpu)
            stats.wall_latencies.append(wall)
        else:
            stats.failures.append((op.kind, str(op.key)[:120], reason))
    return stats


def tail(latencies):
    """(percentile, value): the highest percentile with TAIL_SAMPLES samples
    beyond it.  Needs more than TAIL_SAMPLES samples."""
    n = len(latencies)
    if n <= TAIL_SAMPLES:
        raise ValueError(f"{n} samples cannot give a tail with "
                         f"{TAIL_SAMPLES} beyond it")
    ordered = sorted(latencies)
    return 100.0 * (n - TAIL_SAMPLES) / n, ordered[n - TAIL_SAMPLES - 1]


def end_to_end(stats: RunStats, setup_s: float, peak_rss_mb: float):
    """The end-to-end metrics of one run, plus the tail's definition."""
    pct, tail_s = tail(stats.latencies)
    right = len(stats.latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (right / stats.busy, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(stats.latencies), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        # ok_ratio = 1 - failed_ratio: a relative bound needs a metric
        # that is never 0, and a right run has failed_ratio 0
        "ok_ratio": (right / stats.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {"failed_ratio": stats.failed / stats.attempted,
              "op_tail_percentile": round(pct, 3),
              "op_tail_samples_beyond": TAIL_SAMPLES,
              "ops_right": right,
              "busy_s": stats.busy,
              "wall_busy_s": stats.wall_busy,
              "wall_ops_per_s": right / stats.wall_busy,
              "wall_op_p50_ms": 1e3 * statistics.median(
                  stats.wall_latencies)}
    return metrics, detail


def timed_setup(build):
    """Build the workload state several times; (state, median seconds).

    A set-up of milliseconds is a median of many builds, taken once the
    processor has left any idle state; the last build is kept.  Repeating
    makes the set-up time a median, so a one-off page-cache miss does not
    decide it.
    """
    times = []
    state = None
    while len(times) < SETUP_MAX_REPEATS and (
            len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS):
        start = cpu_seconds()
        state = build()
        times.append(cpu_seconds() - start)
    return state, statistics.median(times)
