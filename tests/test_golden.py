"""Golden outputs: every file of five reference runs, byte for byte.

The digests were recorded from the pipeline before its comparison table and
table rendering were vectorized; they pin those outputs to the per-cell
implementation. Each text output's ``# config=`` footer is stripped and the
manifest's ``data_source`` and ``config_hash`` are dropped first, because the
config hash covers the data path string, which differs between checkouts.

The digests live in ``data/golden_digests.json``. To re-record them after an
intended output change: ``PYTHONPATH=src python tests/test_golden.py``.

``data/curves_digests.json`` pins the default ``fuzzysoft curves`` files the
same way. It was recorded while each curve column was its own
``evaluate_many`` call, and the command above does not re-record it.
"""
import concurrent.futures
import hashlib
import json
import sys
import threading
from pathlib import Path

import pytest

from fuzzysoft.cli import main

CSV_116 = Path(__file__).parent / "data" / "blood_markers_116.csv"

CONFIGS = {
    "default": (),
    "data": ("--data", str(CSV_116)),
    "reduction-off": ("--data", str(CSV_116), "--reduction", "off"),
    "min-difference": ("--data", str(CSV_116), "--combiner", "min", "--mode", "difference"),
    "computed": ("--product-source", "computed"),
}

GOLDEN_FILE = Path(__file__).parent / "data" / "golden_digests.json"
GOLDEN = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
CURVES = json.loads((Path(__file__).parent / "data" / "curves_digests.json").read_text(encoding="utf-8"))


def normalized_digests(out: Path) -> dict[str, str]:
    """sha256 of each output, footer-stripped and with path-dependent manifest keys dropped."""
    digests = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            del manifest["config"]["data_source"], manifest["config_hash"]
            data = json.dumps(manifest, indent=2, sort_keys=True, ensure_ascii=False).encode("utf-8")
        else:
            data = b"".join(
                line for line in data.splitlines(keepends=True) if not line.startswith(b"# config=")
            )
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def run_config(name: str, out: Path) -> dict[str, str]:
    assert main(["run", "--out", str(out), *CONFIGS[name]]) == 0
    return normalized_digests(out)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_golden_digests(name, tmp_path):
    assert run_config(name, tmp_path / "out") == GOLDEN[name]


def test_curves_match_recorded_digests(tmp_path):
    # the curves have no footer and no manifest, so their digests are plain sha256
    assert main(["curves", "--out", str(tmp_path / "curves")]) == 0
    assert normalized_digests(tmp_path / "curves") == CURVES


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_reference_runs_start_no_thread(name, tmp_path, monkeypatch):
    # every reference run's table is below scoring._PARALLEL_TESTS pairwise
    # tests (116 rows by at most 432 columns), so it is filled on the calling thread
    def refuse(*args, **kwargs):
        raise AssertionError("a thread or pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert run_config(name, tmp_path / "out") == GOLDEN[name]


if __name__ == "__main__":
    import contextlib
    import tempfile

    recorded = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        for name in sorted(CONFIGS):
            recorded[name] = run_config(name, Path(tmp) / name)
    GOLDEN_FILE.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
