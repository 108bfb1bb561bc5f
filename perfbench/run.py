"""Benchmark of the ``thrcalc`` command line, one workload per run.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run writes the workload's description files for the seed under
``perfbench/_work/``, imports ``thrcalc`` from ``src/`` and calls
``thrcalc.cli.main(argv)`` with ``--format structured`` for every case, in
one process and one thread.  It repeats whole passes over the cases while
the next pass, taken to last as long as the one before, ends within ``S``
seconds (at least one pass), and checks every output against the
independent oracles in ``oracles.py``.

``--trace 0`` reports the end-to-end metrics, each case's CPU time scaled
to a nominal host speed by ``SpeedProbe``; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, the tracing
overhead among them, and writes the last traced pass's spans to
``perfbench/_work/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
progress goes to standard error.
"""

import argparse
import bisect
import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracles  # noqa: E402

SETUP_REPEATS = 11
LARGEST_CRITERION = 6  # the largest case of the selftest workload

# The benchmark runs on a few cores of a shared host whose speed drifts by
# tens of percent within a minute, so end-to-end times are scaled to a
# nominal speed: a fixed reference loop is timed before each case and
# after every PROBE_INTERVAL_S of CPU time during it, and the case's CPU
# time, less the loop's own, is multiplied by REFERENCE_NOMINAL_S over the
# loop's median time near it (``SpeedProbe.scaled``).  REFERENCE_NOMINAL_S
# is near the loop's median on the 2-core x86-64 host of the reference
# figures in README.md, so scaled figures read as seconds on that host.
# CPU times are read from the thread clock: while ITIMER_PROF is armed,
# Linux updates the process-wide CPU clock only at scheduler ticks.  The
# program runs in this one thread.
REFERENCE_ROUNDS = 4000
REFERENCE_NOMINAL_S = 0.0005
PROBE_INTERVAL_S = 0.025
PROBE_SPAN = 4  # samples on each side of a piece that set its speed
SETUP_SAMPLES = 5  # reference loops timed before and after each set-up probe

_REFERENCE_TABLE = tuple(range(64))
_REFERENCE_MAP = {i: i * 7 % 64 for i in range(64)}


def reference_loop(rounds=REFERENCE_ROUNDS):
    """Fixed bytecode, integer and lookup work.  It builds no container, so
    it never starts the cyclic garbage collector."""
    acc = 0
    table, mapping = _REFERENCE_TABLE, _REFERENCE_MAP
    for i in range(rounds):
        acc = (acc * 31 + table[mapping[i & 63]] * i) % 1000003
    return acc


class SpeedProbe:
    """Times ``reference_loop`` on demand and, inside ``with``, from a
    SIGPROF handler every ``interval`` seconds of the process's CPU time.
    The handler runs between the program's bytecodes and prints nothing."""

    def __init__(self, interval=PROBE_INTERVAL_S):
        self.interval = interval
        self.samples = []  # (thread CPU time at start, duration) of each loop
        self._busy = False
        self._previous = None

    def sample(self, *_signal):
        """Time one reference loop, keep it and return its duration."""
        if self._busy:  # a signal that arrives during a sample is dropped
            return None
        self._busy = True
        start = time.thread_time()
        reference_loop()
        duration = time.thread_time() - start
        self.samples.append((start, duration))
        self._busy = False
        return duration

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def scaled(self, start, end):
        """CPU seconds of the thread-CPU-time interval [start, end), less
        the probe's own, at nominal speed.  The samples in the interval cut
        it into pieces; each piece is scaled by the median of the
        2 * PROBE_SPAN samples nearest to it, so speed that drifts within
        a long case is followed."""
        starts = [s for s, _ in self.samples]
        loops = [d for _, d in self.samples]
        lo, hi = bisect.bisect_left(starts, start), bisect.bisect_left(starts, end)
        bounds = [start] + starts[lo:hi] + [end]
        total = 0.0
        for j in range(len(bounds) - 1):
            after = lo + j  # the first sample after this piece
            work = bounds[j + 1] - bounds[j] - (loops[after - 1] if j else 0.0)
            near = loops[max(0, after - PROBE_SPAN):after + PROBE_SPAN]
            total += work * REFERENCE_NOMINAL_S / statistics.median(near)
        return total


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def log(message):
    print(message, file=sys.stderr, flush=True)


def measure_setup(cases, probe):
    """Median wall time of a fresh interpreter importing ``thrcalc.cli`` and
    loading and validating every description file of the workload, each
    scaled by the speed ``probe`` measures just before and after it."""
    entries = []
    for case in cases:
        for entry in case.files:
            if list(entry) not in entries:
                entries.append(list(entry))
    command = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
               json.dumps(entries)]
    times = []
    for _ in range(SETUP_REPEATS):
        loops = [probe.sample() for _ in range(SETUP_SAMPLES)]
        start = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True,
                              cwd=ROOT, timeout=120)
        elapsed = time.perf_counter() - start
        loops += [probe.sample() for _ in range(SETUP_SAMPLES)]
        times.append(elapsed * REFERENCE_NOMINAL_S / statistics.median(loops))
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return statistics.median(times)


def import_program():
    sys.path.insert(0, str(SRC))
    import thrcalc.cli

    if Path(thrcalc.cli.__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"imported thrcalc from {thrcalc.cli.__file__}, not {SRC}")
    return thrcalc.cli


class CriterionWindows:
    """Records the thread-CPU-time interval of each selftest criterion, by
    wrapping ``selftest.run_criterion``, which ``run_all`` calls."""

    def __init__(self):
        import thrcalc.selftest

        self.windows = {}
        self._module = thrcalc.selftest
        self._run_criterion = thrcalc.selftest.run_criterion

        def run_criterion(criterion):
            start = time.thread_time()
            try:
                return self._run_criterion(criterion)
            finally:
                self.windows[criterion.number] = (start, time.thread_time())

        thrcalc.selftest.run_criterion = run_criterion

    def close(self):
        self._module.run_criterion = self._run_criterion


class Pass:
    """The results of one pass over the cases."""

    def __init__(self):
        self.seconds = 0.0
        self.case_seconds = {}
        self.windows = {}  # case name -> thread-CPU-time interval
        self.largest = None  # name of the largest case
        self.attempted = 0
        self.failed = 0
        self.mismatches = []


def run_pass(cli, cases, probe=None, tracer=None):
    gc.collect()  # no garbage from the previous pass is collected in this one
    result = Pass()
    for index, case in enumerate(cases):
        if tracer is not None:
            tracer.case = index
        if probe is not None:
            probe.sample()
        stdout, stderr = io.StringIO(), io.StringIO()
        cpu_start = time.thread_time()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(list(case.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not the end
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        result.windows[case.name] = (cpu_start, time.thread_time())
        result.case_seconds[case.name] = elapsed
        result.seconds += elapsed
        result.attempted += 1
        if case.largest:
            result.largest = case.name
        if code != 0:
            result.failed += 1
            log(f"FAILED {case.name}: exit {code}\n{stderr.getvalue()}")
            continue
        try:
            oracles.check(case, json.loads(stdout.getvalue()))
        except (oracles.Mismatch, ValueError, KeyError, TypeError) as exc:
            result.mismatches.append(f"{case.name}: {type(exc).__name__}: {exc}")
    if probe is not None:
        probe.sample()  # the sample after the last case
    return result


def time_left(start, seconds):
    return seconds - (time.perf_counter() - start)


def report(passes, metrics):
    mismatches = [m for p in passes for m in p.mismatches]
    for message in mismatches:
        log(f"MISMATCH {message}")
    print(json.dumps({
        "correct": not mismatches,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 1 if mismatches else 0


def end_to_end(cli, cases, seconds, setup_s, probe):
    criteria = CriterionWindows()
    passes, pass_s, largest_s = [], [], []
    start = time.perf_counter()
    try:
        with probe:
            while not passes or time_left(start, seconds) >= passes[-1].seconds:
                result = run_pass(cli, cases, probe)
                passes.append(result)
                pass_s.append(sum(probe.scaled(*w) for w in result.windows.values()))
                if LARGEST_CRITERION in criteria.windows:
                    largest_s.append(probe.scaled(*criteria.windows.pop(LARGEST_CRITERION)))
                else:
                    largest_s.append(probe.scaled(*result.windows[result.largest]))
                log(f"pass {len(passes)}: {result.seconds:.3f} s wall, "
                    f"{pass_s[-1]:.3f} s scaled, largest {largest_s[-1]:.3f} s scaled "
                    + json.dumps(result.case_seconds))
    finally:
        criteria.close()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return passes, {
        "wall_s": (statistics.median(pass_s), "s"),
        "largest_case_s": (statistics.median(largest_s), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(cli, cases, seconds, spans_path):
    from tracing import METRICS, Tracer

    tracer = Tracer()
    untraced, traced, samples = [], [], []
    start = time.perf_counter()
    while not traced or time_left(start, seconds) >= (
        untraced[-1].seconds + traced[-1].seconds
    ):
        untraced.append(run_pass(cli, cases))
        tracer.install()
        tracer.reset()
        try:
            traced.append(run_pass(cli, cases, tracer=tracer))
        finally:
            tracer.uninstall()
        samples.append(tracer.metrics())
        log(f"pair {len(traced)}: untraced {untraced[-1].seconds:.3f} s, "
            f"traced {traced[-1].seconds:.3f} s")
    tracer.dump(spans_path)
    overhead = (statistics.median(p.seconds for p in traced)
                - statistics.median(p.seconds for p in untraced))
    metrics = {}
    for name, unit in METRICS:
        if name == "trace.overhead_s":
            metrics[name] = (overhead, unit)
        else:
            metrics[name] = (statistics.median(s[name] for s in samples), unit)
    return untraced + traced, metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "thrcalc" / "cli.py").is_file():
        log(f"no thrcalc sources under {SRC}; run from a source checkout")
        return 2
    workdir = WORK / f"{args.workload}-seed{args.seed}"
    cases = inputs.build(args.workload, args.seed, workdir)
    if args.trace:
        cli = import_program()
        passes, metrics = per_layer(
            cli, cases, args.seconds, WORK / f"spans-{args.workload}-seed{args.seed}.json"
        )
    else:
        probe = SpeedProbe()
        setup_s = measure_setup(cases, probe)
        cli = import_program()
        passes, metrics = end_to_end(cli, cases, args.seconds, setup_s, probe)
    return report(passes, metrics)


if __name__ == "__main__":
    sys.exit(main())
