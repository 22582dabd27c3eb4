"""Byte-level mutation of the two inputs a run reads: the CLI never tracebacks.

Each example edits a 20-row excerpt of the 116-row CSV or the JSON of the
default variable specs (the other input stays intact, so edits to one reach
past the other's parsing), runs ``fuzzysoft run`` on both in a fresh directory,
and checks that the run ends in a documented exit code and that a failed run
leaves no output behind. Both inputs are small, so no edit can make a large
product or comparison table.
"""
import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzysoft import default_variable_specs, specs_to_json
from fuzzysoft.cli import main

CSV_EXCERPT = b"".join(
    (Path(__file__).parent / "data" / "blood_markers_116.csv").read_bytes().splitlines(keepends=True)[:21]
)
SPEC_JSON = specs_to_json(default_variable_specs()).encode("utf-8")


@st.composite
def byte_edits(draw, base: bytes) -> bytes:
    """``base`` with up to four bytes replaced, inserted or deleted."""
    data = bytearray(base)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        pos = draw(st.integers(min_value=0, max_value=len(data)))
        op = draw(st.sampled_from(("replace", "insert", "delete")))
        byte = draw(st.integers(min_value=0, max_value=255))
        if op == "insert":
            data.insert(pos, byte)
        elif pos < len(data):
            if op == "replace":
                data[pos] = byte
            else:
                del data[pos]
    return bytes(data)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.one_of(
    st.tuples(byte_edits(CSV_EXCERPT), st.just(SPEC_JSON)),
    st.tuples(st.just(CSV_EXCERPT), byte_edits(SPEC_JSON)),
))
def test_mutated_inputs_exit_cleanly_and_leave_no_partial_outputs(inputs):
    csv_bytes, spec_bytes = inputs
    with tempfile.TemporaryDirectory() as tmp:
        data, spec, out = Path(tmp, "data.csv"), Path(tmp, "spec.json"), Path(tmp, "out")
        data.write_bytes(csv_bytes)
        spec.write_bytes(spec_bytes)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", "--data", str(data), "--spec", str(spec), "--out", str(out)])
        assert code in (0, 1, 2)
        if code != 0:
            assert not out.exists() or not any(out.iterdir())
