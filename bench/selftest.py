"""Smoke test of the benchmark itself.

    python3 bench/selftest.py

Runs one pass of each workload untraced and traced, and asserts that every
metric named in BENCHMARK.json is emitted with its unit and that no job
failed.  Then feeds deliberately corrupted outputs to the checker and
asserts they are counted as failures, and checks that tracing survives a
wrapped name that no longer exists without altering return values.
"""

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins the thread variables and finds src/)

import numpy as np  # noqa: E402

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0, f"{workload}: exit code {code}"
    result = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0, (workload, result["failed"])
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, workload
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"])
        assert isinstance(got["value"], float), m["name"]
    print(f"ok   {workload} trace={trace}: {result['attempted']} jobs")


def corrupted_outputs_fail():
    work = ROOT / ".bench_work" / "selftest"
    try:
        tally = run.Tally()
        half = run.jobs.build_halfline(7, work / "h")
        rearr = next(j for j in half.jobs if j.kind == "rearrange")
        star = rearr.call()
        star.values[0] = np.nextafter(star.values[0], np.inf)  # one ulp off
        tally.record(rearr, star, None)
        norm = next(j for j in half.jobs if j.kind == "cli.norm")
        code, text = norm.call()
        tally.record(norm, (code, text.strip() + "1\n"), None)
        balls = run.jobs.build_balls(7, work / "b")
        maximal = next(j for j in balls.jobs if j.kind == "maximal")
        tally.record(maximal, 0.5 * maximal.call(), None)
        tally.record(maximal, None, RuntimeError("raised by the job"))
        assert tally.attempted == 4 and tally.failed == 4, tally.reasons
        ok = next(j for j in half.jobs if j.kind == "norm")
        tally.record(ok, ok.call(), None)
        assert tally.failed == 4, tally.reasons
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("ok   corrupted outputs count as failures")


def tracing_tolerates_missing_names():
    rec = run.spans.Recorder()
    extra = ("rikit.solver", "no_such_stage", "solver.gone", None, None)
    run.spans.TARGETS.append(extra)
    try:
        spec = run.rikit.NormSpec.intersection_max(run.rikit.NormSpec.lp(2.0),
                                                   run.rikit.NormSpec.lorentz(3.0, 1.0))
        u = run.rikit.WeightedSamples([3.0, -1.0, 2.0], [0.5, 1.0, 0.25])
        plain = run.rikit.norm(u, spec)
        with run.spans.Installed(rec) as inst:
            rec.on = True
            traced = run.rikit.norm(u, spec)
            rec.on = False
        assert "rikit.solver.no_such_stage" in inst.absent
        assert traced == plain
        assert [s[0] for s in rec.spans][:2] == ["spaces.norm", "rearrange"]
        assert run.rikit.norm is not None and not hasattr(run.rikit.norm, "__wrapped__")
    finally:
        run.spans.TARGETS.remove(extra)
    print("ok   tracing reports absent names and passes values through")


if __name__ == "__main__":
    corrupted_outputs_fail()
    tracing_tolerates_missing_names()
    for name in ("halfline", "balls", "programs"):
        for trace in (0, 1):
            smoke(name, trace)
