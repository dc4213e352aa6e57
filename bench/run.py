"""ri-kit benchmark: one workload, one process, one thread, one caller.

    python3 bench/run.py --workload {halfline,balls,programs} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else.  The job list of the workload
is generated from the seed and run as a closed loop (the next job starts
when the previous one returns) for ``--seconds`` seconds, in whole passes.
Every job's output is checked outside its timed span; a failed check
counts in ``failed`` and never aborts the run.  Passes take turns on the
allowed CPUs (see ``on_cpu``).  Each job's latency is its best time over
the passes (see ``best_times``); ``wall_s`` is their sum and
``job_p50_ms`` / ``job_p90_ms`` are percentiles over the jobs.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics of ``BENCHMARK.json``.  End-to-end numbers never come
from traced passes.  A result file and, when traced, the spans are written
to ``.bench_out/`` in the checkout.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# Pinned before numpy is imported: BLAS threads slow the solver on small cores.
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "RIKIT_THREADS")
ENV_BEFORE = {k: os.environ.get(k) for k in PINNED}
for _k in PINNED:
    os.environ[_k] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

try:
    import rikit  # noqa: E402
    import scipy  # noqa: E402

    import jobs  # noqa: E402
    import spans  # noqa: E402
    IMPORT_ERROR = None
except ImportError as err:
    rikit = None
    IMPORT_ERROR = err
IMPORT_S = time.perf_counter() - _T0

SETUP_REPS = 3
CPUS = sorted(os.sched_getaffinity(0))
WORKLOADS = ("halfline", "balls", "programs")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_p50_ms", "ms"),
              ("job_p90_ms", "ms"), ("near1_s", "s"), ("peak_rss_mb", "MB"))


class Tally:
    """Attempted and failed jobs, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.bytes_out = 0

    def record(self, job, out, err):
        self.attempted += 1
        why = None
        if err is not None:
            why = f"raised {type(err).__name__}: {err}"
        else:
            try:
                why = job.check(out)
            except Exception:
                why = "check raised " + traceback.format_exc(limit=2).strip().splitlines()[-1]
        if why is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{job.kind}: {why}")
        if job.out_dir is not None and err is None:
            self.bytes_out += len(out[1].encode()) + sum(
                f.stat().st_size for f in job.out_dir.iterdir() if f.is_file())


def run_pass(job_list, tally, recorder=None):
    """Run every job once; return the per-job seconds (checks excluded)."""
    times = []
    for idx, job in enumerate(job_list):
        if recorder is not None:
            recorder.job = idx
            recorder.on = True
        t0 = time.perf_counter()
        try:
            out, err = job.call(), None
        except Exception as e:  # a failing job is counted, the run goes on
            out, err = None, e
        times.append(time.perf_counter() - t0)
        if recorder is not None:
            recorder.on = False
        tally.record(job, out, err)
    return times


def warm_up(job_list):
    """Call the first job of each kind once, untimed and unchecked."""
    seen = set()
    for job in job_list:
        if job.kind not in seen:
            seen.add(job.kind)
            try:
                job.call()
            except Exception:
                pass  # the timed passes count the failure


def setup(workload, seed, work, recorder=None):
    """Generate the inputs and warm up; a recorder traces the generation only."""
    t0 = time.perf_counter()
    if work.exists():
        shutil.rmtree(work)
    if recorder is not None:
        recorder.on = True
    wl = jobs.GENERATORS[workload](seed, work)
    if recorder is not None:
        recorder.on = False
    warm_up(wl.jobs)
    return wl, time.perf_counter() - t0


def on_cpu(k):
    """Pin the process to the k-th allowed CPU, cycling through them.

    The host slows each CPU in phases of its own: on a 2-core host the two
    CPUs' speeds at the same moment correlated at 0.08.  Passes that take
    turns on the CPUs give each job samples from all of them.
    """
    os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})


def best_times(passes):
    """Each job's fastest time over the passes of the run.

    The host's speed swings by up to 1.7x in phases of a few seconds (CPU
    time tracks wall time there, so it is not preemption), and that noise
    only ever adds time; the best of several passes per job removes most of
    it.
    """
    return np.min(np.asarray(passes), axis=0)


def measure_untraced(args, work, tally):
    setups = []
    for k in range(SETUP_REPS):
        on_cpu(k)
        wl, dt = setup(args.workload, args.seed, work)
        setups.append(dt)
    deadline = time.perf_counter() + args.seconds
    passes = []
    while True:
        on_cpu(len(passes))
        passes.append(run_pass(wl.jobs, tally))
        if time.perf_counter() >= deadline:
            break
    best = best_times(passes)
    near1 = np.array([job.p == jobs.NEAR1 for job in wl.jobs])
    metrics = {
        "setup_s": IMPORT_S + statistics.median(setups),
        "wall_s": float(np.sum(best)),
        "job_p50_ms": float(np.percentile(best, 50)) * 1e3,
        "job_p90_ms": float(np.percentile(best, 90)) * 1e3,
        "near1_s": float(np.sum(best[near1])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"passes": len(passes), "jobs_per_pass": len(wl.jobs),
            "setup_reps_s": setups, "import_s": IMPORT_S,
            "pass_wall_s": [sum(p) for p in passes],
            "job_best_s": [[job.kind, job.p, job.size, float(t)]
                           for job, t in zip(wl.jobs, best)]}
    return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}, info


def measure_traced(args, work, tally):
    rec = spans.Recorder()
    with spans.Installed(rec) as inst:
        wl, _ = setup(args.workload, args.seed, work, rec)
        absent = inst.absent
    known = list(wl.spaces) + [make() for make in
                               getattr(rikit.demo, "HERZ_FAMILIES", {}).values()]
    balls = {spans.fingerprint(s): spans.ball_count(s) for s in known}
    deadline = time.perf_counter() + args.seconds
    plain, traced = [], []
    bytes_before = tally.bytes_out
    while True:
        on_cpu(len(plain))
        plain.append(run_pass(wl.jobs, tally))
        rec.pass_no = len(traced)
        with spans.Installed(rec):
            traced.append(run_pass(wl.jobs, tally, rec))
        if time.perf_counter() >= deadline:
            break
    overhead = float(np.sum(best_times(traced)) / np.sum(best_times(plain))) - 1.0
    bytes_out = (tally.bytes_out - bytes_before) / (2 * len(traced))
    values = spans.layer_metrics(rec.spans, wl.jobs, len(traced), balls, bytes_out,
                                 overhead)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.json",
                      rec.spans, absent)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, *_ in spans.METRICS}
    info = {"passes": len(traced), "jobs_per_pass": len(wl.jobs), "absent": absent,
            "untraced_wall_s": [sum(p) for p in plain],
            "traced_wall_s": [sum(p) for p in traced], "spans": len(rec.spans)}
    return metrics, info


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(CPUS),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {k: os.environ.get(k) for k in PINNED},
        "threads_before_pinning": ENV_BEFORE,
        "ladders": jobs.LADDERS,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = (ROOT / "src").resolve()
    if rikit is None or src not in Path(rikit.__file__).resolve().parents:
        print(f"error: cannot import rikit from {src}: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    tally = Tally()
    try:
        measure = measure_traced if args.trace else measure_untraced
        metrics, info = measure(args, work, tally)
    finally:
        os.sched_setaffinity(0, CPUS)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    env = environment()
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "env": env, "run": info,
                    "failures": tally.reasons}, indent=1))

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{info['passes']} passes of {info['jobs_per_pass']} jobs, "
          f"{tally.attempted} attempted, {tally.failed} failed, "
          f"fail_frac {tally.failed / tally.attempted:.4g}")
    for why in tally.reasons:
        print(f"  failure: {why}")
    moves = {m[0]: f"  (moves {m[3]} on {m[4]})" for m in spans.METRICS}
    for name, rec in metrics.items():
        print(f"{name} {rec['value']:.6g} {rec['unit']}{moves.get(name, '')}")
    if args.trace and info["absent"]:
        print("absent: " + " ".join(info["absent"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
