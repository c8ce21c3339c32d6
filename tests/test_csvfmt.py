"""The block row encoder of the CSV writers against Python's own ``%``."""

import io
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrcwpt import _csvfmt
from mrcwpt._csvfmt import RowFormat


def _percent(template, rows):
    """The text the writers produced before the encoder: one ``%`` per block."""
    return (template * len(rows)) % tuple(np.asarray(rows, dtype=float).ravel().tolist())


def _assert_blocks_match(template, rows):
    """The whole block and every row on its own encode as ``%`` formats them."""
    rows = np.asarray(rows, dtype=float)
    encode = RowFormat(template)
    assert encode(rows) == _percent(template, rows)
    for k in range(len(rows)):
        assert encode(rows[k : k + 1]) == _percent(template, rows[k : k + 1])


def _neighbours(values, ulps=2):
    """The values and their ``np.nextafter`` neighbours, ``ulps`` each way."""
    out = []
    for v in np.asarray(values, dtype=float):
        lo = hi = v
        out.append(v)
        for _ in range(ulps):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            out += [lo, hi]
    return np.array(out)


def _midpoints():
    """Doubles nearest to d.ddddddddddd5 * 10**e: halfway between two
    12-digit decimals, where rounding is decided below the last digit."""
    rng = np.random.default_rng(11)
    digits = rng.integers(10**11, 10**12, 40).tolist() + [10**11, 10**12 - 1]
    exponents = [-12, -11, -5, -1, 0, 1, 2, 11, 12, 21, 22, 23, 33, 34, 200]
    return [float(f"{d}5e{e - 12}") for d in digits for e in exponents]


def _near_ties():
    """Doubles a little over 1e-4 of a last-digit unit from a half: just
    outside the band the encoder leaves to ``%``."""
    rng = np.random.default_rng(12)
    out = []
    for d in rng.integers(10**11, 10**12, 20).tolist():
        for e in (-11, -3, 0, 2, 11, 22, 33):
            for offset in ("0.50011", "0.5002", "0.5005", "0.49989", "0.4998", "0.4995"):
                out.append(float((Decimal(d) + Decimal(offset)).scaleb(e - 11)))
    return out


def _round_ups():
    """Values whose 12 significant digits round up into the next decade."""
    return [float(f"9.999999999995e{e}") for e in range(-13, 36)] + [
        999999999999.5,
        9.9999999999995e22,
        9.99999999999949e-1,
    ]


_SPECIAL = [
    0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
    2.225073858507201e-308, 1e308, -1e308, 1.7976931348623157e308, 1.0, -1.0,
    0.1, 1e-11, 1e-12, 1e33, 1e34, 1e22, 1e23, 123456789012345.0,
]


@pytest.mark.parametrize(
    "values",
    [
        _neighbours(_midpoints()),
        np.array(_near_ties()),
        _neighbours([10.0**e for e in range(-323, 309)]),
        _neighbours(_round_ups()),
        np.array(_SPECIAL),
    ],
    ids=["midpoints", "near-ties", "powers-of-ten", "round-ups", "special"],
)
@pytest.mark.parametrize("columns", [1, 3])
def test_hard_values_match_percent_formatting(values, columns):
    rows = values[: len(values) // columns * columns].reshape(-1, columns)
    _assert_blocks_match(",".join(["%.11e"] * columns) + ",points\r\n", rows)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(st.floats(), st.floats(1e-12, 1e35), st.floats(1e-3, 1e3)),
        min_size=1,
        max_size=24,
    ),
    st.integers(1, 3),
)
def test_any_floats_match_percent_formatting(values, columns):
    # the values repeated to fill whole rows
    rows = np.resize(values, (-(-len(values) // columns), columns))
    _assert_blocks_match(",".join(["%.11e"] * columns) + "\r\n", rows)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.integers(0, 10**9), st.integers(-5, 5), st.just(2.5), st.just(-0.0)),
            st.floats(1e-6, 1e6),
            st.integers(0, 99),
        ),
        min_size=1,
        max_size=24,
    )
)
def test_integer_columns_match_percent_formatting(rows):
    _assert_blocks_match("%d,%.11e,%d\r\n", rows)


@pytest.mark.parametrize("start", [1, 9_990, 99_990, 9_999_990])
def test_counters_across_a_power_of_ten(start):
    # the first column changes digit count inside the block; the second
    # cycles through 1..12 like the receiver number of a 12-receiver trace
    n = 30
    rows = np.column_stack([
        np.arange(start, start + n),
        np.arange(n) % 12 + 1,
        np.geomspace(1e-3, 1e3, n),
    ])
    template = "%d,%d,%.11e\r\n"
    assert RowFormat(template)(rows) == _percent(template, rows)


def test_empty_block_and_literal_text():
    encode = RowFormat("x=%.11e;n=%d|\r\n")
    assert encode(np.zeros((0, 2))) == ""
    rows = [[1.5, 7], [0.25, 12]]
    assert encode(rows) == _percent(encode.template, rows)


@pytest.mark.parametrize("budget", [1, 7, _csvfmt._BLOCK_VALUES])
def test_write_in_blocks_is_the_whole_text(budget, monkeypatch):
    monkeypatch.setattr(_csvfmt, "_BLOCK_VALUES", budget)
    rng = np.random.default_rng(23)
    n = 5_000
    # counters that gain a digit, and a few rows left to ``%``
    rows = np.column_stack([np.arange(9_990, 9_990 + n), rng.standard_normal(n),
                            10.0 ** rng.uniform(-12, 12, n)])
    encode = RowFormat("%d,%.11e,%.11e\r\n")
    stream = io.StringIO()
    encode.write(stream, rows)
    assert stream.getvalue() == encode(rows)
    empty = io.StringIO()
    encode.write(empty, rows[:0])
    assert empty.getvalue() == ""


def test_other_conversions_are_rejected():
    with pytest.raises(ValueError, match="unsupported conversion"):
        RowFormat("%.6e,%d\r\n")
