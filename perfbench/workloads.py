"""The benchmark's workloads and the program inputs each one generates."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import cohort

DEFAULT_SEED = 1  # the seed whose outputs digests.json records
RECORDED_OUTPUTS = ("scores.csv", "product.csv", "comparison.csv", "reduction.txt")


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    flags: tuple[str, ...]
    fine_spec: bool


# Each workload stresses a different layer; BENCHMARK.json records why.
WORKLOADS = {
    w.name: w
    for w in (
        # the real file's size: per-run fixed costs (fuzzify, rendering) dominate
        Workload("study-116", 116, (), False),
        # 432-column product: the dense n x n x m comparison tensor dominates
        Workload("wide-1k", 1000, ("--reduction", "off"), False),
        # other combiner and scoring mode: rendering 1M comparison.csv cells dominates
        Workload("tall-1k-diff", 1000, ("--combiner", "min", "--mode", "difference"), False),
        # the reduct search walks 5 x (2^14 - 1) subsets; the min combiner and
        # difference mode cover the other branches of product and scoring
        Workload("fine-spec-14", 116, ("--combiner", "min", "--mode", "difference"), True),
    )
}

_CONFIG_FIELDS = {"--reduction": "reduction", "--combiner": "combiner", "--mode": "mode", "--spec": "spec_path"}


@dataclass(frozen=True)
class Inputs:
    data: str
    spec: str | None
    header: list[str]
    rows: object  # the cohort values exactly as the program parses them

    def cli_flags(self, workload: Workload) -> list[str]:
        flags = list(workload.flags)
        if self.spec is not None:
            flags += ["--spec", self.spec]
        return flags

    def config(self, workload: Workload) -> dict:
        """``PipelineConfig`` keyword arguments equal to the CLI flags."""
        flags = self.cli_flags(workload)
        kwargs = {_CONFIG_FIELDS[f]: v for f, v in zip(flags[::2], flags[1::2])}
        return {"data_source": self.data, **kwargs}


def generate(workload: Workload, seed: int, work_dir: Path) -> Inputs:
    """Write the workload's cohort (and spec) for ``seed`` under ``work_dir``."""
    work_dir.mkdir(parents=True, exist_ok=True)
    header, real = cohort.read_source()
    text = cohort.cohort_csv(header, cohort.resample(header, real, workload.n, seed))
    data = work_dir / f"cohort-{seed}.csv"
    data.write_text(text, encoding="utf-8")
    spec = None
    if workload.fine_spec:
        spec = work_dir / "fine-spec.json"
        spec.write_text(cohort.fine_spec_json(), encoding="utf-8")
    header, rows = cohort.parse_cohort(text)
    return Inputs(str(data), None if spec is None else str(spec), header, rows)


def output_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file a run wrote, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path(out_dir).iterdir())}


def stripped_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of the recorded outputs without their ``# config=`` footer line.

    The config hash covers the data path string, which is not part of what a
    run computes, so the footer is left out of the recorded digests.
    """
    return {
        name: hashlib.sha256(strip_footer((Path(out_dir) / name).read_text(encoding="utf-8")).encode()).hexdigest()
        for name in RECORDED_OUTPUTS
    }


def strip_footer(text: str) -> str:
    """``text`` without its ``# config=`` line."""
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith("# config="))
