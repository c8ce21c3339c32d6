"""Exact vectorized rendering of CSV rows through a ``%d``/``%.11e`` template;
owner of the 12-digit ``fmt`` (``_FLOAT``) and the ``_columns`` x_k, p_k, fb_k.

``RowFormat(template)(rows)`` returns the text that
``(template * len(rows)) % tuple(rows.ravel().tolist())`` gives, without
a ``printf``-style call per value.

A ``%.11e`` value v with decimal exponent e = floor(log10 v) prints the
12-digit integer round(v * 10**(11 - e)). For -22 <= 11 - e <= 22 the
power of ten is an exact double, so the scaled value y is that product
(or quotient) rounded once. In [1e11, 1e12) y is within 6.1e-5 (half an
ulp below 2**40) of the exact product, so ``rint(y)`` is the correctly
rounded integer unless y lies within 1e-4 of a half. A carry to 10**12
moves one decade up. Digits are written four at a time from a table of
ASCII quadruples into a fixed-width byte row, so a block of rows is one
buffer.

Rows holding a value the fast path does not cover are formatted with the
template itself: negative values and -0.0 (one more byte), subnormal and
non-finite values, exponents outside [-11, 33], near-ties, log10
estimates that miss the decade by one, and integers that are negative
or of 9 or more digits. ``%d`` columns of varying digit count
are rendered at the block's widest count and the leading padding is
dropped, so consecutive counters and receiver numbers of any width stay
in the fast path.
"""

from __future__ import annotations

import contextlib
import re

import numpy as np

# "0000" .. "9999" as ASCII bytes, and the same four bytes read as one uint32;
# filled by broadcasting, so building it allocates nothing larger
_DIGITS = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
_TEN = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_DIGITS[..., 0] = _TEN[:, None, None, None]
_DIGITS[..., 1] = _TEN[:, None, None]
_DIGITS[..., 2] = _TEN[:, None]
_DIGITS[..., 3] = _TEN
_DIGITS = _DIGITS.reshape(10_000, 4)
_QUADS = _DIGITS.view(np.uint32).ravel()
# "d.ddd" for the first four significant digits, padded to eight bytes
_HEADS = np.zeros((10_000, 8), dtype=np.uint8)
_HEADS[:, [0, 2, 3, 4]] = _DIGITS
_HEADS[:, 1] = ord(".")
_HEADS = _HEADS.view(np.uint64).ravel()
# by j = e + 11 for decimal exponents e = -11 .. 34: the exact power of
# ten that scales 10**e to 10**11, as a factor or a divisor, and "e+dd"
_SCALE_MUL = np.array([10 ** max(11 - e, 0) for e in range(-11, 34)], dtype=float)
_SCALE_DIV = np.array([10 ** max(e - 11, 0) for e in range(-11, 34)], dtype=float)
_EXPONENTS = np.frombuffer(b"".join(b"e%+03d" % e for e in range(-11, 35)), dtype=np.uint32)
# an integer of d digits is >= exactly d - 1 of these
_INT_STEPS = 10 ** np.arange(1, 8)
_FLOAT = "%.11e"  # the CLI's number format: 12 significant digits
_FLOAT_WIDTH = len(_FLOAT % 0.0)
# values RowFormat.write encodes per call: the scratch memory is about six
# times a block's float bytes, under 1 MiB here
_BLOCK_VALUES = 13_312


def fmt(value: float) -> str:
    """Fixed scientific notation, 12 significant digits."""
    return _FLOAT % value


def _columns(name: str, n: int) -> list[str]:
    """The column names ``name_1`` .. ``name_n``, one per receiver."""
    return [f"{name}_{k + 1}" for k in range(n)]


def _float_words(v: np.ndarray):
    """The bytes of ``'%.11e' % v`` for every entry of v as four words:
    "d.ddd" (eight bytes, the last three overwritten by the next word),
    the next four digits, the last four, and "e+dd"; and where they are
    exact."""
    # arrays are updated in place where they can be: a block's peak memory
    # is a few of them
    with np.errstate(all="ignore"):
        # NaN for negative and NaN input, out of range for 0, subnormals and inf
        e = np.floor(np.log10(v))
        fast = (e >= -11) & (e <= 33)
        e[~fast] = 0.0
        j = (e + 11).astype(np.intp)
        y = np.multiply(v, _SCALE_MUL[j], out=e)
        y /= _SCALE_DIV[j]
        fast &= (y >= 1e11) & (y < 1e12)
        m = np.rint(y)
        y -= m
        fast &= np.abs(y, out=y) < 0.5 - 1e-4
    carry = m == 1e12
    m[carry] = 1e11
    j[carry] += 1
    # +0.0 prints as 0.00000000000e+00 (digits 0, j = 11); -0.0 has a sign
    fast |= (v == 0.0) & ~np.signbit(v)
    m[~fast] = 0.0
    m = m.astype(np.int64)
    head = m // 10**8
    m -= head * 10**8
    mid = m // 10**4
    m -= mid * 10**4
    return _HEADS[head], _QUADS[mid], _QUADS[m], _EXPONENTS[j], fast


def _int_digits(v: np.ndarray):
    """(value, digit count, fast) of ``'%d' % v`` for 0 <= v < 10**8; both
    truncate a fraction."""
    with np.errstate(invalid="ignore"):
        fast = (v >= 0.0) & (v < 1e8)
    i = np.where(fast, v, 0.0).astype(np.int64)
    return i, 1 + np.searchsorted(_INT_STEPS, i, side="right"), fast


@contextlib.contextmanager
def csv_file(path, what: str):
    """``path`` opened for ``what``, the one opener of every ``--out`` file."""
    try:
        with open(path, "w", newline="") as handle:
            yield handle
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


class RowFormat:
    """A row template of ``%d`` and ``%.11e`` conversions between literal
    text, rendered a block of rows at a time (see the module docstring)."""

    def __init__(self, template: str):
        parts = re.split(f"(%d|{re.escape(_FLOAT)})", template)
        if any("%" in text for text in parts[0::2]):
            raise ValueError(f"unsupported conversion in row template {template!r}")
        self.template = template
        self._literals = [text.encode("ascii") for text in parts[0::2]]
        self._is_int = np.array([conv == "%d" for conv in parts[1::2]], dtype=bool)

    def __call__(self, rows: np.ndarray) -> str:
        """The text of ``rows`` (one row per template), exactly as ``%``
        formats it."""
        rows = np.asarray(rows, dtype=float)
        if len(rows) == 0:
            return ""
        buf, keep, slow = self._render(rows)
        if not slow.any():
            return str(buf if keep is None else buf[keep], "ascii")
        if keep is None:
            data = memoryview(buf).cast("B")
            starts = np.arange(len(rows)) * buf.shape[1]
            ends = starts + buf.shape[1]
        else:
            keep[slow] = False
            data = memoryview(buf[keep])
            ends = np.cumsum(keep.sum(axis=1))
            starts = ends  # slow rows keep nothing
        out = []
        cursor = 0
        for i in np.flatnonzero(slow):
            out += [data[cursor : starts[i]], (self.template % tuple(rows[i].tolist())).encode()]
            cursor = ends[i]
        out.append(data[cursor:])
        return b"".join(out).decode("ascii")

    def write(self, stream, rows: np.ndarray) -> None:
        """Write the text of ``rows`` to ``stream``, encoded ``_BLOCK_VALUES``
        values (one row at least) a call: where blocks split changes no byte."""
        step = max(1, _BLOCK_VALUES // len(self._is_int))
        for a in range(0, len(rows), step):
            stream.write(self(rows[a : a + step]))

    def _render(self, rows: np.ndarray):
        """Every row as bytes, each field at the block's width for it:
        (bytes, mask of the bytes to keep or None to keep all, rows to
        leave to ``%``)."""
        # one contiguous row of values per column, floats and integers apart
        *words, float_fast = _float_words(rows.T[~self._is_int])
        ints, digits, int_fast = _int_digits(rows.T[self._is_int])
        slow = ~(float_fast.all(axis=0) & int_fast.all(axis=0))
        # a %d value outside the fast path has digit count 1
        int_widths = digits.max(axis=1).tolist()
        row_len = (
            sum(map(len, self._literals)) + sum(int_widths)
            + _FLOAT_WIDTH * len(float_fast)
        )
        buf = np.empty((len(rows), row_len), dtype=np.uint8)
        keep = None
        float_cols = zip(*words)
        int_cols = zip(ints, digits, int_widths)
        at = _put_literal(buf, 0, self._literals[0])
        for is_int, literal in zip(self._is_int, self._literals[1:]):
            if is_int:
                value, count, width = next(int_cols)
                _put_int(buf, at, width, value)
                pad = width - count
                if pad[~slow].any():
                    if keep is None:
                        keep = np.ones(buf.shape, dtype=bool)
                    keep[:, at : at + width] = np.arange(width) >= pad[:, None]
            else:
                head, mid, low, exponent = next(float_cols)
                # head first: its last three bytes are mid's
                buf[:, at : at + 8].view(np.uint64)[:, 0] = head
                buf[:, at + 5 : at + 9].view(np.uint32)[:, 0] = mid
                buf[:, at + 9 : at + 13].view(np.uint32)[:, 0] = low
                buf[:, at + 13 : at + 17].view(np.uint32)[:, 0] = exponent
                width = _FLOAT_WIDTH
            at = _put_literal(buf, at + width, literal)
        return buf, keep, slow


def _put_int(buf: np.ndarray, at: int, width: int, value: np.ndarray) -> None:
    """Write ``value`` zero-padded to ``width`` digits at byte ``at`` of
    every row, four digits at a time from the right."""
    end = at + width
    while end - at > 4:
        buf[:, end - 4 : end].view(np.uint32)[:, 0] = _QUADS[value % 10**4]
        value = value // 10**4
        end -= 4
    buf[:, at:end] = _DIGITS[value][:, 4 - (end - at) :]


def _put_literal(buf: np.ndarray, at: int, text: bytes) -> int:
    """Write ``text`` at byte ``at`` of every row; returns where it ends."""
    if text:
        buf[:, at : at + len(text)] = np.frombuffer(text, dtype=np.uint8)
    return at + len(text)
