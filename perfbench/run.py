"""tensorlab benchmark: three CLI workloads, checked payloads, layer tracing.

    python3 perfbench/run.py --workload terracini|kron|search --seed N \
        --seconds S --trace 0|1

Closed loop, one client: passes run one at a time, each in a fresh Python
interpreter (passrun.py), until --seconds have gone by.  A pass runs every
case of the workload in order through `tensorlab.cli.main`, and every payload
is checked against answers that hold at any seed (see inputs.py).

--trace 0 reports the end-to-end metrics (medians over the passes):
  wall_s       wall time of one pass after import
  cpu_s        user+sys CPU of the pass, all threads
  setup_s      interpreter start to `tensorlab.cli` imported (import-only
               probes and every pass)
  peak_rss_mb  peak resident set of the pass process
The three times are in reference seconds: scaled by the speed of a fixed
stdlib-only computation (passrun.reference_speed) that the same process
times right after its import and every 0.2 s while its cases run.  On a
shared machine whose speed drifts by tens of percent within minutes, the raw
times of one seed spread as much as a regression would move them; the scaled
ones move with the program only.  Raw medians (wall_raw_s, cpu_raw_s,
setup_raw_s) are printed and kept in the results file.
--trace 1 alternates plain and traced passes and reports per-layer metrics
(tracer.py, medians over the traced passes, raw seconds) and
trace.overhead_s, the median traced wall minus the median plain wall, both
in reference seconds.

Failed cases (raised, non-zero exit, wrong payload) are counted in the
`attempted`/`failed` fields of the last line and as failed_ratio in the
report above it.  Inputs, CLI outputs, results and spans live under
.perfbench/ in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SETUP_PROBES = 8
RUN_LIMIT_S = 150  # no pass starts after this; every pass ends by ~170 s

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("TENSORLAB_THREADS", None)  # the library's own default applies
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args: list[str], result: Path, timeout: float) -> dict | None:
    """Run passrun.py; return its result with set-up time, or None if it failed."""
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "passrun.py"), "--result", str(result), *args],
                              cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.exists():
        print(f"pass exited with code {proc.returncode}", file=sys.stderr)
        return None
    out = json.loads(result.read_text())
    result.unlink()
    out["setup_raw_s"] = out["imported_at"] - started
    out["setup_s"] = out["setup_raw_s"] * out["speed_at_import"]
    return out


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _provenance(seed: int, workload: str, numpy_version: str | None) -> dict:
    commit = "unknown"  # a checkout without .git has no commit to name
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tensorlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "TENSORLAB_THREADS": "unset",
        "caller_TENSORLAB_THREADS": os.environ.get("TENSORLAB_THREADS", "unset"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def measure(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    run_start = time.monotonic()
    deadline = run_start + seconds
    plan = inputs.build(seed, work / "inputs")
    plan_args = ["--plan", str(work / "inputs" / "plan.json"), "--workload", workload]
    result = work / "result.json"

    _spawn(["--probe"], result, 60)  # warm-up: byte-compilation is not set-up
    setups = []
    for _ in range(SETUP_PROBES):
        probe = _spawn(["--probe"], result, 60)
        if probe is not None:
            setups.append((probe["setup_s"], probe["setup_raw_s"]))

    passes: list[dict] = []
    cases = inputs.cases_of(workload)
    attempted = failed = 0
    failures: dict[str, list[str]] = {}
    last_duration = 0.0
    while True:
        # with tracing, plain and traced passes alternate, plain first
        traced = trace and 2 * sum(p["traced"] for p in passes) < len(passes)
        enough = passes and (not trace or any(p["traced"] for p in passes))
        now = time.monotonic()
        # a pass starts only if one like the last would end by the deadline
        if enough and (now + last_duration > deadline or now - run_start > RUN_LIMIT_S):
            break
        k = len(passes)
        out_dir = work / f"out{k}"
        out_dir.mkdir()
        args = plan_args + ["--work", str(out_dir), "--trace", str(int(traced))]
        if traced:
            spans_dir = STATE / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            args += ["--spans", str(spans_dir / f"{workload}-seed{seed}.jsonl")]
        started = time.monotonic()
        res = _spawn(args, result, max(10.0, 170 - (started - run_start)))
        last_duration = time.monotonic() - started
        attempted += len(cases)
        if res is None:
            failed += len(cases)
            failures.setdefault(f"pass {k}", []).append("pass did not finish")
            break
        res["traced"] = traced
        passes.append(res)
        failed += len(res["failures"])
        for case, problems in res["failures"].items():
            failures.setdefault(case, []).extend(problems)
        setups.append((res["setup_s"], res["setup_raw_s"]))

    return {
        "plan": plan,
        "plain": [p for p in passes if not p["traced"]],
        "traced": [p for p in passes if p["traced"]],
        "setups": setups,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }


def summarize(m: dict, trace: bool) -> tuple[dict, dict]:
    """(metrics for the last line, report with quartiles and sample counts)."""
    report: dict = {}
    metrics: dict = {}
    if not trace:
        samples = {name: [p[name] for p in m["plain"]] for name in ("wall_s", "wall_raw_s", "cpu_s",
                                                                  "cpu_raw_s", "peak_rss_mb")}
        samples["setup_s"] = [scaled for scaled, _ in m["setups"]]
        samples["setup_raw_s"] = [raw for _, raw in m["setups"]]
        units = dict(END_TO_END, wall_raw_s="s", cpu_raw_s="s", setup_raw_s="s")
        for name, values in samples.items():
            if not values:
                continue
            q1, q3 = _quartiles(values)
            value = statistics.median(values)
            report[name] = {"median": value, "q1": q1, "q3": q3, "n": len(values), "unit": units[name]}
        metrics = {name: {"value": report[name]["median"], "unit": unit}
                   for name, unit in END_TO_END if name in report}
        return metrics, report
    if not m["traced"]:
        return metrics, report
    # a traced pass only follows a finished plain one
    overhead = (statistics.median(p["wall_s"] for p in m["traced"])
                - statistics.median(p["wall_s"] for p in m["plain"]))
    for name, unit in tracing.per_layer_metrics():
        if name == "trace.overhead_s":
            value = overhead
        else:
            value = statistics.median(p["layers"][name] for p in m["traced"])
        metrics[name] = {"value": value, "unit": unit}
    report["absent"] = sorted({a for p in m["traced"] for a in p["absent"]})
    counted = [name for name, unit in tracing.per_layer_metrics() if unit == "count"]
    report["counts_repeat"] = all(
        [p["layers"][n] for n in counted] == [m["traced"][0]["layers"][n] for n in counted]
        for p in m["traced"])
    return metrics, report


def main() -> int:
    parser = argparse.ArgumentParser(description="tensorlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "tensorlab" / "cli.py").is_file():
        print(f"error: no tensorlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    STATE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, report = summarize(m, bool(args.trace))
    passes = m["plain"] + m["traced"]
    numpy_version = passes[0]["numpy"] if passes else None
    provenance = _provenance(args.seed, args.workload, numpy_version)
    attempted, failed = m["attempted"], m["failed"]
    report["failed_ratio"] = failed / attempted
    report["failures"] = m["failures"]
    report["passes"] = [{k: p[k] for k in ("traced", "wall_s", "wall_raw_s", "cpu_s", "cpu_raw_s",
                                           "speed_samples", "speed_at_import", "case_s")}
                        for p in passes]
    report["setups"] = m["setups"]
    report["cases"] = {c: m["plan"]["cases"][c]["why"] for c in inputs.cases_of(args.workload)}
    results = STATE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, "report": report, "metrics": metrics}, indent=1) + "\n")

    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, row in report.items():
        if isinstance(row, dict) and "median" in row:
            print(f"{name:<14} {row['median']:.4f} {row['unit']}  q1 {row['q1']:.4f}  "
                  f"q3 {row['q3']:.4f}  n {row['n']}")
    if args.trace:
        for name, entry in metrics.items():
            print(f"{name:<58} {entry['value']:.6g} {entry['unit']}")
        print(f"absent targets: {report.get('absent', [])}; counts repeat: {report.get('counts_repeat')}")
    print(f"failed_ratio   {report['failed_ratio']:.4f} ({failed} of {attempted} cases)")
    for case, problems in m["failures"].items():
        for problem in problems[:5]:
            print(f"FAILED {case}: {problem.strip().splitlines()[-1]}")
    print(json.dumps({"correct": failed == 0 and bool(passes), "attempted": attempted,
                      "failed": failed, "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
