"""fuzzysoft benchmark: one workload per invocation, timed from outside.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-digests

The benchmark generates the workload's cohort (and spec) from the seed,
warms up with in-process ``run_pipeline`` calls on the default-seed inputs,
and then, for ``--seconds``, repeats one cycle, so that every timing samples
the whole window:

- in-process ``run_pipeline`` calls, one at a time, for about as long as the
  last CLI run took, at least one call (``run_s``, ``rows_per_s``);
- one ``python -m fuzzysoft.cli run`` in a fresh process (``cli_s``);
- one ``import fuzzysoft`` in a fresh interpreter (``setup_s``).

The speed of the shared machine the benchmark was written on drifts by up
to 1.7x over seconds to hours, for every process at once. So every timed
sample is bracketed by two runs of a fixed pure-Python reference loop that
calls no program code, and the reported times are reference-scaled: the
sample's wall time times ``REFERENCE_S`` over the mean of its two reference
times, i.e. the time the sample would take on a machine where the reference
loop takes ``REFERENCE_S``. The summary line holds the raw wall-time medians
too. ``peak_rss_mb`` is the benchmark process's own peak RSS, read before the
correctness checks. Every run is checked: each in-process and CLI run must
write byte-identical outputs, ``scores.csv`` must match the independent
oracle, and the outputs at the default seed must match ``digests.json``.

With ``--trace 1`` untraced and traced calls alternate for the whole window,
and the per-layer metrics come from the spans of the traced ones. The last
line of standard output is the JSON result; the line before it is a summary
with sample counts and the failed fraction. ``--record-digests`` rewrites
``digests.json`` from the current program.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path
from statistics import median, quantiles

import cohort
import oracle
import spans
from workloads import DEFAULT_SEED, WORKLOADS, generate, output_digests, strip_footer, stripped_digests

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = Path(BENCH.name) / ".work"
RESULTS = Path(BENCH.name) / ".results"
DIGESTS = BENCH / "digests.json"
PACKAGE = Path("src") / "fuzzysoft" / "__init__.py"

IMPORT_PROBE = "import time; t = time.perf_counter(); import fuzzysoft; print(time.perf_counter() - t)"
WARMUP_S = 1.0  # time-based, so short calls also reach a steady state first
MIN_SAMPLES = 3  # of each timing, whatever --seconds says
P90_MIN_SAMPLES = 100  # so that at least ten samples lie beyond the 90th percentile
CHILD_TIMEOUT_S = 150
REFERENCE_LOOPS = 200_000
REFERENCE_S = 0.025  # about what the reference loop takes on the baseline machine when it is quiet


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes; it calls no program code."""
    t0 = time.perf_counter()
    total, table = 0, {}
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
        table[i & 1023] = total
    return time.perf_counter() - t0


class Reference:
    """Scales each timed sample by the machine's speed around it.

    The reference loop runs once at the start and once after every sample,
    so each sample lies between two reference runs; its scaled time is its
    wall time times ``REFERENCE_S`` over the mean of those two.
    """

    def __init__(self) -> None:
        self.last = reference_loop()
        self.loops = [self.last]

    def scale(self, seconds: float) -> float:
        """Scaled ``seconds`` of the sample that ended just now."""
        now = reference_loop()
        self.loops.append(now)
        scaled = seconds * REFERENCE_S * 2 / (self.last + now)
        self.last = now
        return scaled


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH="src")


def import_time() -> float:
    """Seconds ``import fuzzysoft`` takes in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=child_env(), capture_output=True,
        text=True, check=True, timeout=CHILD_TIMEOUT_S,
    )
    return float(out.stdout)


def cli_run(cmd: list[str], out: Path) -> tuple[float, dict | None, str]:
    """One fresh-process CLI run: (seconds, output digests or None, error)."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        return elapsed, None, f"cli exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return elapsed, output_digests(out), ""


class InProcess:
    """Timed ``run_pipeline`` calls on one config, one at a time, no threads.

    Each call is timed alone and then scaled by ``reference``; the digest of
    its outputs is taken after that and must equal the first call's. With ``trace`` on, untraced
    and traced calls alternate, so the wrappers' overhead is measured under
    the same conditions; the tracer keeps the spans in memory.
    """

    def __init__(self, pipeline, cfg, trace: bool, reference: Reference) -> None:
        self.pipeline, self.cfg, self.trace, self.reference = pipeline, cfg, trace, reference
        self.out = Path(cfg.out_dir)
        self.tracer = spans.Tracer()
        self.digests: dict | None = None
        self.run_s: list[float] = []  # untraced calls, wall time
        self.scaled_s: list[float] = []  # the same calls, reference-scaled
        self.traced_s: list[float] = []
        self.traced_ids: list[int] = []  # the traced calls that succeeded
        self.failed = 0
        self.errors: list[str] = []
        self.calls = 0
        self._last = 0.0

    def chunk(self, seconds: float, min_calls: int) -> None:
        """Calls for about ``seconds`` and at least ``min_calls``; a call that
        would likely end past the chunk's end is not started."""
        end = time.perf_counter() + seconds
        start_calls = self.calls
        while self.calls - start_calls < min_calls or time.perf_counter() + self._last < end:
            self._call()

    def _call(self) -> None:
        i = self.calls
        self.calls += 1
        traced = self.trace and i % 2 == 1
        try:
            t0 = time.perf_counter()
            if traced:
                self.tracer.run(self.pipeline, i, self.cfg)
            else:
                self.pipeline.run_pipeline(self.cfg)
            elapsed = self._last = time.perf_counter() - t0
        except Exception as exc:  # a failed run is counted, and the loop goes on
            self.reference.scale(0.0)  # the next sample's reference follows this failure
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return
        scaled = self.reference.scale(elapsed)
        digests = output_digests(self.out)
        if self.digests is None:
            self.digests = digests
        if digests != self.digests:
            self.failed += 1
            self.errors.append(f"run {i}: outputs differ from the first run's")
            return
        if traced:
            self.traced_s.append(elapsed)
            self.traced_ids.append(i)
        else:
            self.run_s.append(elapsed)
            self.scaled_s.append(scaled)


def oracle_problems(inputs, workload, out: Path) -> list[str]:
    """Differences between ``scores.csv`` in ``out`` and the oracle."""
    from fuzzysoft import PipelineConfig, default_variable_specs, specs_to_json

    cfg = PipelineConfig(**inputs.config(workload))
    spec_text = Path(inputs.spec).read_text(encoding="utf-8") if inputs.spec else specs_to_json(
        default_variable_specs()
    )
    reduction_txt, scores_csv = (strip_footer((out / name).read_text(encoding="utf-8"))
                                 for name in ("reduction.txt", "scores.csv"))
    return oracle.check_scores(
        inputs.header, inputs.rows, json.loads(spec_text), reduction_txt, scores_csv, cfg.combiner, cfg.mode
    )


def checks(workload, inputs, out: Path, default: dict) -> list[str]:
    """Problems with the outputs that every run reproduced; empty when all hold.

    ``out`` holds the outputs of the run's seed; ``default`` the stripped
    digests and accuracy of the default-seed outputs. The digests were
    recorded only after the oracle agreed with those outputs, so matching
    them covers the oracle check at the default seed too.
    """
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))[workload.name]
    problems = oracle_problems(inputs, workload, out)[:5]
    if default != {"stripped": recorded["outputs"], "accuracy": recorded["accuracy"]}:
        problems.append(f"default-seed outputs differ from digests.json: {default}")
    return problems


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, bool]:
    """(summary, metrics, correct) for one workload run."""
    from fuzzysoft import pipeline

    inputs = generate(workload, seed, WORK)
    default_inputs = generate(workload, DEFAULT_SEED, WORK / "default")

    # Warm up on the default-seed inputs, whose outputs are also checked
    # against the recorded digests; the workload has the same shape there.
    default_out = WORK / "default" / "out"
    default_cfg = pipeline.PipelineConfig(out_dir=str(default_out), **default_inputs.config(workload))
    start = time.perf_counter()
    result = pipeline.run_pipeline(default_cfg)
    while time.perf_counter() - start < WARMUP_S:
        pipeline.run_pipeline(default_cfg)
    default = {"stripped": stripped_digests(default_out), "accuracy": result.accuracy}

    reference = Reference()
    cfg = pipeline.PipelineConfig(out_dir=str(WORK / "out"), **inputs.config(workload))
    loop = InProcess(pipeline, cfg, trace, reference)
    summary: dict = {"workload": workload.name, "seed": seed, "n": workload.n}
    setup: list[float] = []  # wall times, and reference-scaled ones
    setup_scaled: list[float] = []
    cli_times: list[float] = []
    cli_scaled: list[float] = []
    cli_digests: list[dict | None] = []
    errors: list[str] = []
    if trace:
        loop.chunk(seconds, 2 * MIN_SAMPLES)
    else:
        # In-process calls, a CLI run and an import alternate over the whole
        # window, so each metric samples the same spells of machine load.
        cmd = [sys.executable, "-m", "fuzzysoft.cli", "run", "--data", inputs.data,
               *inputs.cli_flags(workload), "--out", str(WORK / "cli")]
        import_time()  # the first import may compile bytecode; not counted
        reference.scale(0.0)  # so the first sample's reference follows the import
        deadline = time.perf_counter() + seconds
        cycle, cli_last = 0.0, 0.0
        while time.perf_counter() + cycle < deadline or min(loop.calls, len(cli_times), len(setup)) < MIN_SAMPLES:
            t0 = time.perf_counter()
            loop.chunk(cli_last, 1)
            cli_last, digests, error = cli_run(cmd, WORK / "cli")
            cli_times.append(cli_last)
            cli_scaled.append(reference.scale(cli_last))
            cli_digests.append(digests)
            errors += [error] if error else []
            setup.append(import_time())
            setup_scaled.append(reference.scale(setup[-1]))
            cycle = time.perf_counter() - t0
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # before the oracle allocates

    cli_ok = [(t, s) for t, s, d in zip(cli_times, cli_scaled, cli_digests) if d == loop.digests]
    cli_failed = len(cli_times) - len(cli_ok)
    errors = loop.errors + errors
    problems = checks(workload, inputs, loop.out, default)
    attempted = len(loop.run_s) + len(loop.traced_s) + loop.failed + len(cli_times)
    failed = attempted if problems else loop.failed + cli_failed
    summary.update(attempted=attempted, failed=failed, failed_frac=failed / attempted)
    if problems or errors:
        summary["problems"] = (problems + errors)[:10]

    if trace:
        metrics = per_layer(workload, seed, loop, summary)
    else:
        summary["wall_s"] = {
            "run_s": median(loop.run_s),
            "cli_s": median(t for t, _ in cli_ok),
            "setup_s": median(setup),
            "reference_loop": median(reference.loops),
        }
        metrics = end_to_end(workload, loop.scaled_s, setup_scaled, [s for _, s in cli_ok], maxrss_kb, summary)
    return summary, metrics, failed == 0 and "problems" not in summary


def end_to_end(workload, run_times: list[float], setup: list[float], cli_times: list[float],
               maxrss_kb: int, summary: dict) -> dict:
    """The end-to-end metrics from reference-scaled times."""
    run_s = median(run_times)
    summary["samples"] = {"run_s": len(run_times), "cli_s": len(cli_times), "setup_s": len(setup)}
    if len(run_times) >= P90_MIN_SAMPLES:
        summary["run_s.p90"] = quantiles(run_times, n=10)[-1]
    return {
        "run_s": {"value": run_s, "unit": "s"},
        "rows_per_s": {"value": workload.n / run_s, "unit": "1/s"},
        "cli_s": {"value": median(cli_times), "unit": "s"},
        "setup_s": {"value": median(setup), "unit": "s"},
        "peak_rss_mb": {"value": maxrss_kb / 1024, "unit": "MB"},
    }


def per_layer(workload, seed: int, loop: InProcess, summary: dict) -> dict:
    span_list, run_ids = loop.tracer.spans, loop.traced_ids
    per_run = [spans.run_metrics(span_list, r) for r in run_ids]
    metrics = spans.medians(per_run)
    for name in spans.EXACT_COUNTS:
        values = {run[name] for run in per_run}
        if len(values) != 1:
            summary.setdefault("problems", []).append(f"{name} differs between runs: {sorted(values)}")
        metrics[name] = values.pop()
    run_s = median(loop.run_s)
    metrics["trace.overhead_s"] = median(loop.traced_s) - run_s
    summary["samples"] = {"run_s": len(loop.run_s), "traced_s": len(run_ids)}
    summary["run_s"] = run_s
    summary["function_s"] = spans.medians([spans.function_times(span_list, r) for r in run_ids])
    traced_run_s = summary["function_s"][spans.PARENT]
    summary["share_of_traced_run"] = {
        name: metrics[name] / traced_run_s for name, unit in spans.UNITS.items() if unit == "s"
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{workload.name}-seed{seed}.spans.json").write_text(json.dumps([asdict(s) for s in span_list]))
    return {name: {"value": value, "unit": spans.UNITS[name]} for name, value in metrics.items()}


def record_digests() -> None:
    """Write digests.json from the current program, after checking it against the oracle."""
    from fuzzysoft.pipeline import PipelineConfig, run_pipeline

    table = {}
    for workload in WORKLOADS.values():
        inputs = generate(workload, DEFAULT_SEED, WORK)
        out = WORK / "out"
        result = run_pipeline(PipelineConfig(out_dir=str(out), **inputs.config(workload)))
        problems = oracle_problems(inputs, workload, out)
        if problems:
            raise SystemExit(f"{workload.name}: outputs disagree with the oracle: {problems[:3]}")
        table[workload.name] = {"seed": DEFAULT_SEED, "outputs": stripped_digests(out), "accuracy": result.accuracy}
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    os.chdir(ROOT)
    if not PACKAGE.is_file() or not cohort.SOURCE_CSV.is_file():
        print(f"error: {ROOT} has no {PACKAGE} or {cohort.SOURCE_CSV}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        if args.record_digests:
            record_digests()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        summary, metrics, correct = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(summary))
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
