"""qcdist benchmark: four CLI workloads, checked against references.

Run from the repository root:

    python3 bench/run.py --workload reduction --seed 1 --seconds 25 --trace 0

Each workload is a pool of unit jobs ("instances") built from ``--seed`` by
``instances.py`` and run in-process through ``qcdist.cli.main``, the same
entry point as the ``qcdist`` command, on the files it writes.  The timed
window runs whole passes over the pool, in order, and stops at the pass
boundary nearest to ``--seconds``.  Every instance's output is then checked
against its reference; a repeated pass must print the same bytes.

Set-up is timed from cold: seven times, each in a fresh interpreter that
imports ``qcdist`` (and numpy), writes the pool and runs a warm-up job, and
reported as the median.  The measured process then sets up once more,
untimed, and runs the timed window.

Times are reported in reference seconds.  The host is shared, and its
speed changes by a third and more from one second to the next, so wall
time from one run to the next mostly measures the neighbours.  A fixed
probe computation that does not use ``qcdist`` (``Probe``) samples the
host's speed: an interval timer runs it every ``SAMPLE_EVERY_S`` while the
commands run, and five times around every cold set-up.  Its own time is
taken out of the command's.  Each command's wall time is then scaled by
the probe's reference time ``PROBE_REF_S`` over its time in the samples
taken while the command ran (the mean of the reference time over each
sample's time, with one sample on either side): a reference second is a
wall second on a machine that runs the probe in exactly its reference
time.  The wall-clock figures are kept on the summary lines and in the
record.

BLAS runs single-threaded.  The program is single-threaded Python over
matrices of side <= 512, and on a shared two-core machine threaded OpenBLAS
made the amplify workload both slower and about three times as spread
from run to run.

With ``--trace 0`` the last line reports the end-to-end metrics of the
untraced run: instances_per_s (successful instances over the summed time of
every instance), instance_s.p50 (the median time of a successful instance),
setup_s and peak_rss_mb (peak resident memory at the end of the timed
window).
With ``--trace 1`` the same window runs untraced first, then one more pass
runs with every public ``qcdist`` function wrapped (``tracing.py``), and the
last line reports the per-layer metrics of that pass together with the
tracing overhead: the traced pass's time minus the median untraced pass.
The traced pass must print byte-identical output.

An instance fails when an exception escapes ``cli.main``, a command exits
with a code it should not give, or its output disagrees with the reference.
``correct`` is false when any output disagreed with its reference or a
repeated or traced run printed different bytes; an escaped exception is a
failure but not a wrong answer.  Each run also writes a record with the
environment, per-command sha256 digests, raw instance times and every
failure to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = Path(".bench_out")
SETUP_REPS = 7
#: the probe's time on the reference machine (a shared 2-vCPU VM)
PROBE_REF_S = 0.002
SAMPLE_EVERY_S = 0.05


@dataclass
class Outcome:
    """One executed instance: its stdouts and their digests, time, problems."""

    instance: int
    seconds: float
    #: each command's wall time, without the probe's, and when it started and ended
    step_s: list[float] = field(default_factory=list)
    spans: list[tuple[float, float]] = field(default_factory=list)
    ref_seconds: float = 0.0
    stdouts: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    failure: str | None = None  # exception or exit code; the rest is checked later
    problems: list[str] = field(default_factory=list)
    wrong: bool = False

    @property
    def ok(self) -> bool:
        return self.failure is None and not self.problems


class Probe:
    """A fixed computation that does not use ``qcdist``, sampled for its time.

    The benchmark's own simulator on a 2-input circuit, then a spectrum:
    the seesaw's mix of Python and numpy on small matrices, about 2 ms.
    ``start`` runs it from an interval timer, between the bytecodes of
    whatever the main thread runs; ``busy`` is the total time it took.
    """

    def __init__(self):
        import numpy as np
        from instances import BASE_ENTROPY, wide_random_gates

        rng = np.random.default_rng([BASE_ENTROPY, 2**21])
        self.gates, _ = wide_random_gates(rng, 2, 20, 4)
        self.rho = np.eye(16) / 16
        self.starts: list[float] = []
        self.times: list[float] = []
        self.busy = 0.0
        self.running = False

    def __call__(self, *_signal) -> None:
        import numpy as np
        from instances import apply_ext

        if self.running:  # the timer fired during a slow sample
            return
        self.running = True
        t0 = time.perf_counter()
        np.linalg.eigvalsh(apply_ext(2, self.gates, self.rho, 2))
        seconds = time.perf_counter() - t0
        self.starts.append(t0)
        self.times.append(seconds)
        self.busy += seconds
        self.running = False

    def start(self) -> None:
        self()
        signal.signal(signal.SIGALRM, self)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self()

    def scale(self, start: int, stop: int) -> float:
        """Reference seconds per wall second over samples ``start:stop``."""
        return statistics.fmean(PROBE_REF_S / t for t in self.times[start:stop])

    def rescale(self, outcomes: list[Outcome]) -> None:
        """Set each outcome's ``ref_seconds``: every command's wall time scaled
        by the samples taken while it ran, and one on either side."""
        for o in outcomes:
            o.ref_seconds = sum(
                t * self.scale(bisect.bisect_left(self.starts, a) - 1,
                               bisect.bisect_right(self.starts, b) + 1)
                for t, (a, b) in zip(o.step_s, o.spans))


def import_qcdist():
    """Fresh import of qcdist from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "qcdist" or m.startswith("qcdist.")]:
        del sys.modules[name]
    cli = importlib.import_module("qcdist.cli")
    if Path(cli.__file__).resolve().parent != SRC / "qcdist":
        raise SystemExit(f"error: imported qcdist from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload, seed: int, workdir: Path):
    """Import qcdist, write the seeded pool and run the warm-up job."""
    cli = import_qcdist()
    pool = workload.pool(seed, workdir)
    run_instance(cli, workload.warmup(workdir), -1)
    return cli, pool


def cold_setup_seconds(workload, seed: int, workdir: Path) -> float:
    """Wall time of ``setup`` in a fresh interpreter, from its start to its exit."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
            f"import run; from instances import WORKLOADS; "
            f"run.setup(WORKLOADS[{workload.name!r}], {seed}, run.Path({str(workdir)!r}))")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up failed in a fresh interpreter:\n{proc.stderr}")
    return seconds


def run_instance(cli, inst, index: int, tracer=None, probe=None) -> Outcome:
    """Run the instance's commands in order; stop at the first failure.

    ``probe``, if given, is sampling; its time is taken out of the command's."""
    outcome = Outcome(index, 0.0)
    for step in inst.steps:
        out = io.StringIO()
        t0 = time.perf_counter()
        busy = probe.busy if probe else 0.0  # a sample in between counts as the command's
        rec = tracer.begin(tracer.command_id) if tracer else None
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                rc = cli.main(list(step.argv))
        except SystemExit as exc:  # argparse refusing the arguments
            rc = exc.code
        except Exception as exc:  # a traceback for the user: count it, go on
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            outcome.failure = (f"{step.argv[0]}: {type(exc).__name__}: {exc} "
                               f"({Path(frame.filename).name}:{frame.lineno})")
        finally:
            if rec is not None:
                tracer.end(rec)
            busy = (probe.busy if probe else 0.0) - busy
            t1 = time.perf_counter()
            outcome.spans.append((t0, t1))
            outcome.step_s.append(t1 - t0 - busy)
            outcome.seconds += outcome.step_s[-1]
        outcome.stdouts.append(out.getvalue())
        if outcome.failure is None and rc not in step.ok_codes:
            outcome.failure = f"{' '.join(step.argv[:2])}: exit code {rc}"
            outcome.wrong = True
        if outcome.failure is not None:
            break
    outcome.digests = [hashlib.sha256(x.encode()).hexdigest() for x in outcome.stdouts]
    return outcome


def check(inst, outcome: Outcome, first: Outcome | None = None) -> None:
    """Check against the reference, or against ``first``: the same instance
    in the first pass, whose output has been checked already."""
    if outcome.failure is not None:
        return
    if first is not None:
        if first.failure is not None or outcome.digests != first.digests:
            outcome.problems = ["output differs from the first pass"]
        else:
            outcome.problems = list(first.problems)
        outcome.wrong = bool(outcome.problems)
        return
    try:
        parsed = [json.loads(s) for s in outcome.stdouts]
        outcome.problems = inst.check(inst.reference, parsed)
    except (ValueError, AttributeError, TypeError, KeyError) as exc:  # malformed JSON or shape
        outcome.problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    outcome.wrong = bool(outcome.problems)


def timed_passes(cli, pool, seconds: float, tracer=None, passes: int | None = None, probe=None):
    """Whole passes over the pool, in order, for about ``seconds`` (stopping at
    the pass boundary nearest to it), or exactly ``passes`` passes.

    A pass's time is the sum of its instances' times.  Only the first pass
    keeps its stdouts; later passes keep their digests.
    """
    outcomes, pass_times = [], []
    t0 = time.perf_counter()
    while True:
        tp = time.perf_counter()
        for i, inst in enumerate(pool):
            if tracer is not None:
                tracer.instance = i
                rec = tracer.begin(tracer.instance_id)
            outcome = run_instance(cli, inst, i, tracer, probe)
            if tracer is not None:
                tracer.end(rec)
            if pass_times:
                outcome.stdouts = []
            outcomes.append(outcome)
        pass_times.append(sum(o.seconds for o in outcomes[-len(pool):]))
        elapsed = time.perf_counter() - t0
        pass_wall = time.perf_counter() - tp
        if len(pass_times) == passes or (not passes and elapsed + pass_wall / 2 >= seconds):
            return outcomes, pass_times, elapsed


def check_all(pool, outcomes: list[Outcome]) -> None:
    for o in outcomes:
        first = outcomes[o.instance]
        check(pool[o.instance], o, None if o is first else first)


def combined_digest(outcomes: list[Outcome], pool_size: int) -> str:
    """sha256 over every command digest of the first pass, in pool order."""
    h = hashlib.sha256()
    for o in outcomes[:pool_size]:
        for d in o.digests:
            h.update(d.encode())
    return h.hexdigest()


def blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        vendor = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def traced_pass(cli, pool, first: list[Outcome], untraced_pass_s: float, spans_path: Path):
    """One more pass with every public qcdist function wrapped.

    Returns the per-layer metrics and a record of the pass.  Tracing
    overhead is this pass's time minus the median untraced pass's.
    """
    from tracing import PER_LAYER, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        traced, (seconds,), _ = timed_passes(cli, pool, 0, tracer, passes=1)
    finally:
        tracer.uninstall()
    tracer.counts["stdout_bytes"] = sum(len(s.encode()) for o in traced for s in o.stdouts)
    check_all(pool, traced)
    mismatched = [pool[o.instance].id for o, u in zip(traced, first) if o.digests != u.digests]
    overhead = seconds - untraced_pass_s
    units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {k: {"value": v, "unit": units[k]}
               for k, v in tracer.metrics(overhead, overhead / untraced_pass_s).items()}
    tracer.write_spans(spans_path)
    return metrics, {
        "correct": not mismatched and not any(o.wrong for o in traced),
        "traced_pass_s": seconds,
        "untraced_pass_s": untraced_pass_s,
        "digests_match": not mismatched,
        "mismatched": mismatched,
        "combined_digest": combined_digest(traced, len(pool)),
        "spans_file": spans_path.as_posix(),
        "per_layer": metrics,
        "layer_times": tracer.layer_times(),
    }


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    if not (SRC / "qcdist" / "cli.py").is_file():
        print(f"error: no qcdist sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # read once, when numpy loads
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    from instances import WORKLOADS  # and numpy, before set-up timing starts

    args = parse_args(argv, WORKLOADS)
    os.chdir(ROOT)

    workload = WORKLOADS[args.workload]
    workdir = OUT / f"work-{workload.name}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    OUT.mkdir(exist_ok=True)

    setup_probe, probe = Probe(), Probe()
    setup_probe(), probe()  # the first calls pay for numpy's lazy set-up
    setup_dir = OUT / f"setup-{workload.name}-{args.seed}"
    setup_times = []
    for k in range(SETUP_REPS + 1):
        for _ in range(5):
            setup_probe()
        if k < SETUP_REPS:
            setup_times.append(cold_setup_seconds(workload, args.seed, setup_dir))
    # set-up k is bracketed by samples 1 + 5k .. 10 + 5k
    setup_ref = [t * setup_probe.scale(1 + 5 * k, 11 + 5 * k) for k, t in enumerate(setup_times)]
    shutil.rmtree(setup_dir, ignore_errors=True)
    cli, pool = setup(workload, args.seed, workdir)

    since = len(probe.times)
    probe.start()
    try:
        outcomes, pass_times, wall = timed_passes(cli, pool, args.seconds, probe=probe)
    finally:
        probe.stop()
    probe.rescale(outcomes)
    scale = sum(o.ref_seconds for o in outcomes) / sum(pass_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_all(pool, outcomes)
    first = outcomes[: len(pool)]

    ok = [o for o in outcomes if o.ok]
    failed = len(outcomes) - len(ok)
    timed = ok or outcomes
    wall_metrics = {
        "instances_per_s": len(ok) / sum(pass_times),
        "instance_s.p50": statistics.median(o.seconds for o in timed),
        "setup_s": statistics.median(setup_times),
    }
    end_to_end = {
        "instances_per_s": {"value": len(ok) / sum(o.ref_seconds for o in outcomes), "unit": "1/s"},
        "instance_s.p50": {"value": statistics.median(o.ref_seconds for o in timed), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    failed_ratio = failed / len(outcomes)
    correct = not any(o.wrong for o in outcomes)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "pool_size": len(pool),
        "passes": len(pass_times),
        "pass_s": pass_times,
        "wall_s": wall,
        "setup_s": setup_times,
        "setup_ref_s": setup_ref,
        "setup_probe_s": setup_probe.times[1:],
        "probe_s": probe.times[since:],
        "scale": scale,
        "end_to_end": end_to_end,
        "wall": wall_metrics,
        "failed_ratio": failed_ratio,
        "instance_s_samples": len(timed),
        "instances": [
            {"instance": pool[o.instance].id, "seconds": o.seconds, "ref_seconds": o.ref_seconds,
             "step_s": o.step_s, "ok": o.ok,
             "failure": o.failure, "problems": o.problems, "digests": o.digests}
            for o in outcomes
        ],
        "combined_digest": combined_digest(outcomes, len(pool)),
    }

    metrics = end_to_end
    if args.trace:
        spans_path = OUT / f"{workload.name}-seed{args.seed}.spans.csv"
        metrics, record["trace_record"] = traced_pass(
            cli, pool, first, statistics.median(pass_times), spans_path)
        correct = correct and record["trace_record"]["correct"]

    record_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))
    shutil.rmtree(workdir, ignore_errors=True)

    print(f"{workload.name} seed {args.seed}: {len(outcomes)} instances in {len(pass_times)} "
          f"passes of {len(pool)}, {failed} failed; record {record_path.as_posix()}")
    print(f"  reference seconds per wall second {scale:.4g} ({len(probe.times) - since} samples, "
          f"median {statistics.median(probe.times[since:]) * 1e3:.3g} ms, "
          f"reference {PROBE_REF_S * 1e3:.3g} ms)")
    for name, m in end_to_end.items():
        raw = f"  (wall {wall_metrics[name]:.6g})" if name in wall_metrics else ""
        print(f"  {name:<16} {m['value']:.6g} {m['unit']}{raw}")
    print(f"  {'failed_ratio':<16} {failed_ratio:.6g} ({failed}/{len(outcomes)})")
    print(f"  instance_s.p50 over {len(timed)} samples; setup_s median of {SETUP_REPS} cold set-ups")
    for inst_id, msg in dict.fromkeys(
        (pool[o.instance].id, msg) for o in outcomes for msg in [o.failure, *o.problems] if msg
    ):
        print(f"  FAILED {inst_id}: {msg}")
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
