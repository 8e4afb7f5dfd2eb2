"""Number text: ``text`` renders one number as covrage prints it, ``write_table`` a CSV table.

A number is ``'%.10g'`` of ``x + 0.0`` (-0 is ``0``) and NaN is ``out``. A
table is header lines, then one comma-separated row per entry, in blocks. A
cell is its bytes left-aligned in a fixed-width slot and padded with NUL,
which no cell holds; a block is the columns' slot matrices joined by commas
and newlines, written with the NULs removed. ``cells`` vectorises only the
fixed form (decimal exponent -4 to 9); the exponent form (``1.5e-05``) is
rare and takes ``text``. The commands import this module when they print or
write, so that importing the CLI neither compiles it nor builds its tables.
"""

from __future__ import annotations

from collections import namedtuple
from pathlib import Path

import numpy as np

_U64 = np.uint64
# Cells whose scaled value lies this close to a rounding tie take ``%``.
_TIE_WINDOW = 1e-5
# Float cells are 24 bytes, three words: '%.10g' needs at most 17.
_FLOAT_CELL = 24
# Floats are rendered this many at a time, which keeps their working arrays
# small: rendering whole blocks raised the peak memory of a run of the four
# commands on a 1024x1024 array by 16 MiB.
_FLOAT_CHUNK = 1 << 14
# Rows per write: amortises rendering without a file-sized string. Smaller blocks
# cost memory, not heap layout: 1 << 14 read 99.1-99.3 MiB cli-bulk peak RSS, 1 << 16 89.9-96.4.
_BLOCK_ROWS = 1 << 16


def text(x: float) -> str:
    """One number as covrage prints and writes it: ``'%.10g' % (x + 0.0)``, or ``out`` for NaN."""
    return "out" if np.isnan(x) else "%.10g" % (x + 0.0)


def _bytes_le(s: str) -> int:
    return int.from_bytes(s.encode(), "little")


def _span(start: int, stop: int) -> int:
    """Mask of bytes ``start`` to ``stop`` (not before ``start``) of a little-endian word."""
    return (1 << 8 * stop) - (1 << 8 * start)


def _layout(form: int, nd: int) -> list[int]:
    """How a positive cell with ``nd`` significant digits is laid out in words.

    ``form`` is the decimal exponent, -4 to 9. The ten digits sit in bytes
    0-9 of two words. Those in ``stay`` keep their place, those in ``move``
    shift one byte up to make room for the point, and the rest are trailing
    zeros to drop. Then the prefix ("0.00" for small numbers, with the point
    already placed) is shifted in front. Returns ``stay``, ``move`` and the
    prefix as low and high words, the prefix shift in bits and the text
    length.
    """
    if form < 0:
        shown, point, prefix = nd, None, "0." + "0" * (-form - 1)
    else:
        whole = form + 1
        shown, point, prefix = max(nd, whole), (whole if nd > whole else None), ""
    pre = _bytes_le(prefix)
    if point is None:
        stay, move = _span(0, shown), 0
    else:
        stay, move = _span(0, point), _span(point, shown)
        pre |= ord(".") << 8 * (len(prefix) + point)
    words = [w >> shift & (1 << 64) - 1 for w in (stay, move, pre) for shift in (0, 64)]
    return words + [8 * len(prefix), len(prefix) + shown + (point is not None)]


class _Tables:
    """Lookup tables of the float renderer; ``j`` indexes a decimal exponent e as j = e + 5."""

    def __init__(self) -> None:
        exps = np.arange(-5, 11)
        n = np.arange(10**4, dtype=_U64)
        four = sum((48 + n // _U64(10 ** (3 - i)) % _U64(10)) << _U64(8 * i) for i in range(4))
        # By j: 10**(9 - e) correctly rounded, whether e takes the fixed form,
        # and if so the layout key of a positive cell with ten significant digits.
        self.pow10 = np.array([float(f"1e{9 - e}") for e in exps.tolist()])
        self.fixed = (exps >= -4) & (exps < 10)
        self.key = (np.where(self.fixed, exps + 4, 0) * 11 + 10) * 2
        # By 0..9999: the last two digits as bytes 0-1 of a word, all four as
        # bytes 2-5, the first two as bytes 6-7, and twice the count of
        # trailing zero digits.
        self.two_at_0, self.four_at_2, self.four_at_6 = four >> _U64(16), four << _U64(16), four << _U64(48)
        self.zeros2 = 2 * sum((n % _U64(10**k) == 0).astype(np.intp) for k in range(1, 5))
        # By key (form * 11 + nd) * 2 + neg: the columns of ``_layout``. A
        # negative cell is the positive one with one more prefix byte, "-".
        pos = np.array([_layout(form, nd) for form in range(-4, 10) for nd in range(11)], dtype=_U64)
        neg = pos.copy()
        neg[:, 5] = pos[:, 5] << _U64(8) | pos[:, 4] >> _U64(56)
        neg[:, 4] = pos[:, 4] << _U64(8) | _U64(ord("-"))
        neg[:, 6:] += np.array([8, 1], dtype=_U64)
        self.layouts = np.stack([pos, neg], axis=1).reshape(-1, 8).T.copy()


_TABLES = _Tables()


def _float_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``text`` of every float as NUL-padded cells.

    Returns ``(cells, length)``: an ``(n, 3)`` uint64 array whose rows, read
    as bytes, are the left-aligned text, and each text's length.
    """
    x = np.asarray(values, dtype=np.float64)
    cells = np.empty((len(x), 3), _U64)
    length = np.empty(len(x), _U64)
    for start in range(0, len(x), _FLOAT_CHUNK):
        part = slice(start, start + _FLOAT_CHUNK)
        _render_floats(x[part], cells[part], length[part])
    return cells, length


def _render_floats(x: np.ndarray, cells: np.ndarray, length: np.ndarray) -> None:
    """Fill ``cells`` and ``length`` as ``_float_cells`` returns them for ``x``.

    For |x| = M * 10**(e - 9) with M in [1e9, 1e10), the ten significant
    digits are M rounded to an integer. M is |x| times a correctly rounded
    power of ten, so it carries two roundings of half an ulp each: its error
    is at most 10**10 * 2**-53 + 2**-20 < 2.1e-6, as M < 2**34. A cell whose M
    lies within ``_TIE_WINDOW`` of a half-integer could round either way, so
    it is rendered by ``text`` instead. So is every cell outside 1e-5 <= |x| <
    1e10, where the fixed form cannot occur, or whose rounded exponent lies
    outside -4 to 9. NaN and zeros have fixed texts.
    """
    t = _TABLES
    a = np.abs(x)
    fast = a >= 1e-5
    fast &= a < 1e10
    a[~fast] = 1.0
    e = np.log10(a)
    np.floor(e, out=e)
    e += 5
    j = e.astype(np.intp)
    m = t.pow10[j]
    m *= a
    # log10 can floor to a neighbouring exponent next to a power of ten (at
    # 1e-5, to j = -1, which reads the last scale): such a cell takes ``text``.
    bad = np.flatnonzero((m < 1e9) | (m >= 1e10))
    fast[bad] = False
    m[bad] = 1e9
    digits = np.rint(m)
    m -= digits
    fast &= np.abs(m, out=m) <= 0.5 - _TIE_WINDOW
    digits = digits.astype(np.int64)
    carry = np.flatnonzero(digits == 10**10)
    digits[carry] = 10**9
    j[carry] += 1
    fast &= t.fixed[j]
    # Ten digits as groups of 2, 4 and 4 fill bytes 0-1, 2-5 and 6-9 of two words.
    top = digits // 10**8
    digits -= top * 10**8
    mid = digits // 10**4
    digits -= mid * 10**4
    low = digits
    lo = t.four_at_2[mid]
    lo |= t.two_at_0[top]
    lo |= t.four_at_6[low]
    hi = t.two_at_0[low]
    key = t.key[j]
    key -= t.zeros2[low]
    rows = np.flatnonzero(low == 0)
    if len(rows):
        key[rows] -= t.zeros2[mid[rows]] + t.zeros2[top[rows]] * (mid[rows] == 0)
    key += x < 0
    stay_lo, stay_hi, move_lo, move_hi, pre_lo, pre_hi, shift, length_of_key = t.layouts
    # The point goes in front of the first moved digit.
    moved_lo = lo & move_lo[key]
    moved_hi = hi & move_hi[key]
    moved_hi <<= _U64(8)
    moved_hi |= moved_lo >> _U64(56)
    moved_lo <<= _U64(8)
    lo &= stay_lo[key]
    lo |= moved_lo
    hi &= stay_hi[key]
    hi |= moved_hi
    # Then the prefix goes in front of everything. numpy shifts by 64 or more
    # to 0, which a cell without prefix relies on.
    shift = shift[key]
    cells[:, 2] = 0
    np.left_shift(lo, shift, out=cells[:, 0])
    cells[:, 0] |= pre_lo[key]
    np.left_shift(hi, shift, out=cells[:, 1])
    cells[:, 1] |= lo >> (_U64(64) - shift)
    cells[:, 1] |= pre_hi[key]
    np.take(length_of_key, key, out=length)
    # NaN and zeros have fixed texts; the other slow cells take ``text``.
    rows = np.flatnonzero(~fast)
    nan, zero = np.isnan(x[rows]), x[rows] == 0.0
    for hit, fixed in ((nan, "out"), (zero, "0")):
        cells[rows[hit]] = (_bytes_le(fixed), 0, 0)
        length[rows[hit]] = len(fixed)
    rows = rows[~(nan | zero)]
    slow = [text(v) for v in x[rows].tolist()]
    cells[rows] = np.array(slow, dtype=f"S{_FLOAT_CELL}").view(_U64).reshape(-1, 3)
    length[rows] = [len(t) for t in slow]


def cells(parts: list[np.ndarray]) -> list[np.ndarray]:
    """A matrix of NUL-padded bytes per column: a row per value, as wide as the column's longest.

    Floats are rendered as ``_float_cells`` renders them, those of all the
    columns in one pass, as each pass has a fixed cost; other values as ``str``.
    """
    floats = [p for p in parts if p.dtype.kind == "f"]
    if floats:
        matrix, length = _float_cells(np.concatenate(floats))
        ends = np.cumsum([len(p) for p in floats]).tolist()
        floats = iter(matrix[a:b].view(np.uint8)[:, :int(length[a:b].max())] for a, b in zip([0, *ends], ends))
    return [next(floats) if p.dtype.kind == "f" else _plain(p) for p in parts]


def _plain(part: np.ndarray) -> np.ndarray:
    """``cells`` of a column of integers, booleans or strings."""
    if part.dtype.kind in "iub":
        width = max(len(str(part.min())), len(str(part.max())))
        text = part.astype(f"S{width}")
    else:
        text = np.array([str(v).encode() for v in part.tolist()], dtype="S")
    return text.view(np.uint8).reshape(len(part), -1)


# The column ``values[row // stride % len(values)]``: one index of a row-major grid.
_Axis = namedtuple("_Axis", "values stride")


def grid(rows: np.ndarray, cols: np.ndarray) -> tuple[_Axis, _Axis]:
    """Row-major columns pairing each entry of ``rows`` with each of ``cols``."""
    return _Axis(rows, len(cols)), _Axis(cols, 1)


def _items(matrix: np.ndarray) -> np.ndarray:
    """A byte matrix whose rows are contiguous as one item per row, so a row moves as one."""
    return matrix.view(f"V{matrix.shape[1]}")[:, 0]


def write_table(path: Path, header: list[str], columns: list) -> None:
    """Write ``header`` lines, then one comma-separated row per entry of the equal-length columns.

    A column is a sequence of values or one of ``grid``'s, whose values are
    rendered once and then picked by row; the sequences set the row count.
    Rows are rendered and written ``_BLOCK_ROWS`` at a time, each block as
    one byte matrix.
    """
    columns = [c if isinstance(c, _Axis) else np.asarray(c) for c in columns]
    axes = {k: c for k, c in enumerate(columns) if isinstance(c, _Axis)}
    plain = [c for c in columns if not isinstance(c, _Axis)]
    labels = dict(zip(axes, cells([np.asarray(c.values) for c in axes.values()])))
    n = len(plain[0])
    with open(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in header).encode())
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(n, start + _BLOCK_ROWS)
            rows = np.arange(start, stop)
            rendered = iter(cells([c[start:stop] for c in plain]))
            parts = [labels[k].take(rows // c.stride % len(labels[k]), axis=0) if k in labels else next(rendered)
                     for k, c in enumerate(columns)]
            block = np.empty((stop - start, sum(p.shape[1] + 1 for p in parts)), np.uint8)
            at = 0
            for part in parts:
                _items(block[:, at:at + part.shape[1]])[:] = _items(part)
                at += part.shape[1] + 1
                block[:, at - 1] = ord(",")
            block[:, -1] = ord("\n")
            fh.write(block.tobytes().translate(None, b"\0"))
