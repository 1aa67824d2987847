"""One benchmark pass, run by run.py in a fresh interpreter.

Module caches start cold, as they do for a CLI user.  The workload's cases
that the plan holds run in CASES order in this process through `cli.main`,
each invocation with its own new `--output` file, so scan resumption never
skips work.
Right after the import, and every SAMPLE_EVERY_S while the cases run, the
pass times a fixed reference computation (`reference_speed`), and it scales
its times to one machine speed by it (`Speedometer`).  Payloads are checked
after the timed loop.  The result (raw and scaled timings, the speed at
import, check outcome and, when traced, per-layer metrics) goes to the
--result file.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tensorlab import cli  # noqa: E402  -- set-up ends with this import

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402


def _resolve(argv: list[str], inputs_dir: Path) -> list[str]:
    return [str(inputs_dir / a[1:]) if a.startswith("@") else a for a in argv]


def _invoke(argv: list[str]) -> tuple[int | None, str | None]:
    try:
        return cli.main(argv), None
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), None
    except Exception:  # a failing case is counted, the pass goes on
        return None, traceback.format_exc(limit=3)


REF_KEYS = 4096
REF_MODULUS = (1 << 521) - 1
# one reference round on one core of a 2.1 GHz x86-64 server with Python
# 3.11, at its fastest: every time of the pass is scaled to this speed
REF_ROUND_S = 0.0025
IMPORT_ROUNDS = 24
SAMPLE_EVERY_S = 0.2


def reference_speed(rounds: int) -> tuple[float, float, float, float]:
    """(start, end, cpu, speed) of `rounds` rounds of a fixed computation:
    start and end on the perf_counter clock, the CPU time of this thread, and
    REF_ROUND_S * rounds over that CPU time.  CPU time, because a sample that
    waits for a core would otherwise read as a slow machine.

    The computation shares no code with tensorlab but is made of what its
    inner loops do: int-keyed dict stores and lookups and big-integer
    arithmetic, so its time moves with the machine's speed only.  It keeps
    under 1 MB and allocates no object the cyclic collector tracks, so it
    neither moves peak RSS nor depends on the size of the program's heap."""
    start, cpu0 = time.perf_counter(), time.thread_time()
    table = {}
    x = 3
    for _ in range(rounds):
        for k in range(REF_KEYS):
            x = x * 6364136223846793005 % REF_MODULUS
            table[k * 40503 % 65521] = x
        for k in range(REF_KEYS):
            x ^= table[k * 40503 % 65521]
    cpu = time.thread_time() - cpu0
    return start, time.perf_counter(), cpu, REF_ROUND_S * rounds / cpu


class Speedometer:
    """Samples the machine's speed while a pass runs.

    A shared machine's speed can change by half within one case, so a
    daemon thread runs one reference round (about 2 ms, holding the
    interpreter lock) every SAMPLE_EVERY_S.  `scaled` leaves the samples' own
    wall and CPU time out of a case's and scales the rest by the mean speed
    sampled during the case, or next to it for a case shorter than the
    period."""

    def __init__(self, first: tuple[float, float, float, float]):
        self.samples = [first]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-speed", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            self.samples.append(reference_speed(1))

    def __enter__(self) -> "Speedometer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scaled(self, start: float, end: float, wall: float, cpu: float) -> tuple[float, float]:
        """Wall and CPU seconds of a case run over [start, end], in reference seconds."""
        inside = [s for s in self.samples if start <= s[0] and s[1] <= end]
        near = inside or sorted(self.samples, key=lambda s: max(start - s[1], s[0] - end))[:2]
        speed = statistics.fmean(s[3] for s in near)
        return ((wall - sum(e - b for b, e, _, _ in inside)) * speed,
                (cpu - sum(c for _, _, c, _ in inside)) * speed)


def run_pass(plan: dict, cases: list[str], work_dir: Path, inputs_dir: Path,
             at_import: tuple[float, float, float, float], tracer=None) -> dict:
    seed = str(plan["seed"])
    steps = []
    case_seconds = {}
    timed = []  # (start, end, cpu seconds) of each case
    with Speedometer(at_import) as speed:
        for case in cases:
            if tracer is not None:
                tracer.case = case
            start, cpu0 = time.perf_counter(), time.process_time()
            for k, step in enumerate(plan["cases"][case]["steps"]):
                out = work_dir / f"{case}.{k}.jsonl"
                code, error = _invoke(_resolve(step["argv"], inputs_dir) + ["--seed", seed, "--output", str(out)])
                steps.append((case, step, code, error, out))
            end = time.perf_counter()
            case_seconds[case] = end - start
            timed.append((start, end, time.process_time() - cpu0))
    failures: dict[str, list[str]] = {}
    for case, step, code, error, out in steps:
        try:
            records = checks.read_records(out)
        except ValueError as exc:
            records, error = [], error or f"unreadable output: {exc}"
        problems = checks.check_step(step["expect"], code, records, error)
        if problems:
            failures.setdefault(case, []).extend(f"{' '.join(step['argv'])}: {p}" for p in problems)
    scaled = [speed.scaled(b, e, e - b, cpu) for b, e, cpu in timed]
    return {
        "wall_s": sum(wall for wall, _ in scaled),
        "cpu_s": sum(cpu for _, cpu in scaled),
        "wall_raw_s": sum(e - b for b, e, _ in timed),
        "cpu_raw_s": sum(cpu for _, _, cpu in timed),
        "speed_samples": len(speed.samples),
        "case_s": case_seconds,
        "failures": failures,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--result", required=True, help="JSON file this pass writes")
    parser.add_argument("--probe", action="store_true", help="only time the import")
    parser.add_argument("--plan", help="plan.json written by inputs.build")
    parser.add_argument("--workload")
    parser.add_argument("--work", help="directory for the CLI output files")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="JSON-lines file for the spans of a traced pass")
    args = parser.parse_args()
    at_import = reference_speed(IMPORT_ROUNDS)
    result: dict = {"imported_at": IMPORTED_AT, "speed_at_import": at_import[3]}
    if not args.probe:
        import numpy
        import inputs

        plan_path = Path(args.plan)
        plan = json.loads(plan_path.read_text())
        cases = [c for c in inputs.cases_of(args.workload) if c in plan["cases"]]
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        wrapped = tracing.wrapped_names()
        try:
            result.update(run_pass(plan, cases, Path(args.work), plan_path.parent, at_import, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        result.update(
            cases=cases,
            wrapped_during_pass=wrapped,
            wrapped_after_pass=tracing.wrapped_names(),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            python=sys.version.split()[0],
            numpy=numpy.__version__,
        )
        if tracer is not None:
            result["layers"] = tracer.metrics(result["case_s"])
            result["absent"] = tracer.absent
            if args.spans:
                with open(args.spans, "w") as fh:
                    for row in tracer.span_rows():
                        fh.write(json.dumps(row) + "\n")
    Path(args.result).write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
