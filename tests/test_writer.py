"""The streaming result writer against the text it replaced.

A JSON result or manifest must be exactly json.dumps(obj, indent=2) + "\\n" of
the same object with every Table written out as a list of row dicts, and a CSV
result exactly the header line plus one '%.10g' line per row, whatever the
block boundaries.
"""

import hashlib
import io
import json
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from photonlab import cli, runner
from photonlab.cli import Table
from photonlab.csvout import write_csv


def _plain(value):
    """The object json.dumps would have rendered: tables as lists of row dicts."""
    if isinstance(value, Table):
        columns = [c.tolist() if isinstance(c, np.ndarray) else c
                   for c in value.columns.values()]
        return [dict(zip(value.columns, row)) for row in zip(*columns)]
    if isinstance(value, dict):
        return {key: _plain(member) for key, member in value.items()}
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return value


def _streamed(write, value) -> str:
    fh = io.StringIO()
    write(fh, value)
    return fh.getvalue()


def _csv_0_7_0(table: Table) -> str:
    """photonlab 0.7.0's _render_csv over the table's rows."""

    def cell(value):
        if isinstance(value, str):
            return value
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, int):
            return str(value)
        return format(float(value), ".10g")

    rows = [row.values() for row in _plain(table)]
    return "\n".join([",".join(table.columns), *(",".join(map(cell, r)) for r in rows), ""])


keys = st.text(alphabet=st.sampled_from("ab%_é☃\"\\\n"), min_size=1, max_size=6)
scalars = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308]),
    st.integers(-2**32, 2**32),
    st.integers(10**300, 10**400),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
)
# columns as the runners fill them, one kind of number each; tables() also mixes kinds
numeric_columns = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=9),
    st.lists(st.integers(-2**32, 2**32), max_size=9),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(keys, inner, max_size=4)),
    max_leaves=12,
)


@st.composite
def tables(draw, columns=st.one_of(numeric_columns, st.lists(scalars, max_size=9))):
    names = draw(st.lists(keys, min_size=1, max_size=4, unique=True))
    n = draw(st.integers(0, 9))
    cells = [draw(columns.map(lambda c: (c * (n + 1))[:n] if c else [0.5] * n))
             for _ in names]
    as_array = draw(st.booleans())
    return Table(**{name: np.array(c, dtype=np.float64)
                    if as_array and all(type(v) is float for v in c) else c
                    for name, c in zip(names, cells)})


@settings(max_examples=300)
@given(st.dictionaries(keys, st.one_of(values, tables()), max_size=5), st.integers(1, 4))
def test_streamed_json_equals_json_dumps(head, write_rows):
    with mock.patch.object(runner, "WRITE_ROWS", write_rows):
        text = _streamed(cli._write_json, head)
    assert text == json.dumps(_plain(head), indent=2) + "\n"


@settings(max_examples=200)
@given(tables(st.one_of(numeric_columns, st.lists(scalars.filter(lambda v: v is not None),
                                            max_size=9))), st.integers(1, 4))
def test_streamed_csv_equals_0_7_0_rendering(table, write_rows):
    with mock.patch.object(runner, "WRITE_ROWS", write_rows):
        text = _streamed(write_csv, table)
    assert text == _csv_0_7_0(table)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_slice_boundaries(offset):
    n = cli.WRITE_ROWS + offset
    rng = np.random.default_rng(n)
    table = Table(k=list(range(n)), x=rng.random(n), y=(rng.random(n) * 1e-300).tolist())
    head = {"params": {"grid": rng.random(n).tolist(), "mode": "mc"}, "rows": table,
            "tail": None}
    assert _streamed(cli._write_json, head) == json.dumps(_plain(head), indent=2) + "\n"
    assert _streamed(write_csv, table) == _csv_0_7_0(table)


def _json_write_peak(rows: int) -> int:
    """tracemalloc's peak while a 4-column float table of rows is written as JSON."""
    rng = np.random.default_rng(rows)
    table = Table(**{name: rng.random(rows) for name in ("a", "b", "c", "d")})
    with open(os.devnull, "w", encoding="utf-8") as sink:
        tracemalloc.start()
        try:
            cli._write_json(sink, {"rows": table})
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_the_json_writer_holds_one_block_of_rows_at_a_time():
    # beyond its columns the writer holds one block's cells and text, so a
    # table 16 times longer peaks about as high (the whole text of 2^15 rows
    # is several MB)
    few, many = _json_write_peak(2**11), _json_write_peak(2**15)
    assert many < 2**20
    assert many < 1.1 * few


def test_failed_write_leaves_no_file(tmp_path):
    out = tmp_path / "result.json"
    with pytest.raises(TypeError):
        cli._write(str(out), cli._write_json, {"rows": Table(x=[1.0, object()])})
    assert not out.exists()


# sha256 of the default result files at seed 7, on x86-64 Linux with Python
# 3.11 and numpy 2.4. They are photonlab 0.7.0's files, except that since
# 0.9.0 every JSON file names the generator "numpy-philox-4x64" and the iid
# protocol run draws its bits from the receiver's law, and that since 0.10.0
# the Monte Carlo runs (bell, nosignal, protocol and mzi here) draw their
# counts from the package's sampler and name it "numpy-philox-4x64/btrd".
# Since 0.18.0 malus and entropy compute their closed forms in Python floats:
# the analytic stage fractions multiply the snapped pass probabilities (0.25
# and 0.125 become 0.25000000000000006 and 0.12500000000000006), and
# before_bits is H(p0) from p0 itself (H(1/2) is now exactly 1).
DEFAULTS_SEED_7 = {
    "malus.json": "25ba96337a4ab26e6f260d864e544b273890061da9ee0f4fc35c7d556cd86a02",
    "malus.csv": "3e68c388456eaa2f34b894a4b02d3570fdb922221a4712d8f6754c04ec640ed1",
    "entropy.json": "c18727e7ea81beb5a8437f05cf0421f93e34a2624c3600eeac96a176442fbff1",
    "entropy.csv": "e6533fecd378af9d06980f1c4027f0376c3073f1edf70a13fb91bc22d8783987",
    "bell.json": "9b87f66b34160b2c8141c0d5317634a11d163857e48d42c04f684e172a38556a",
    "bell.csv": "00b8c9802505fdec553d54cff1add69d3c9f28bc7adbd99ab51509b422d0b0a0",
    "nosignal.json": "8b9bff66ee1b81585b48c2054cd22556e3eb45a08127eec2e63eba1db9314c53",
    "nosignal.csv": "3ef548706944142f2af7e7d774ffd826607702635ea34d2474c21a0e388f46e4",
    "protocol.json": "aef97447628a68bd9b3fa71d20f39d5d35c2772dcae40b74be3b6c4176a55451",
    "mzi.json": "6779b5433d6d97c3eeb36e584a51f869af2760540e3a0c841493fb478c7d3d59",
    "mzi.csv": "6e6fca6f14f5b804806276ee87a491b5086804fd7163080151890bcf3576228b",
}


@pytest.mark.parametrize("name", DEFAULTS_SEED_7)
def test_default_results_match_0_7_0(tmp_path, name):
    experiment, fmt = name.split(".")
    out = tmp_path / name
    assert cli.main([experiment, "--seed", "7", "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULTS_SEED_7[name]
