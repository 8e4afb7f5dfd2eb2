"""Text of CSV cells as matrices of NUL-padded bytes, with an exact vectorised ``'%.10g'``.

A cell is its bytes left-aligned in a fixed-width slot and padded with NUL,
which no cell holds, so a block of rows is its matrix with the NULs removed.
``cli.write_table`` imports this module on the first table it writes, so that
importing the CLI neither compiles it nor builds its lookup tables.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
# Cells outside 10**-_EXP_LIMIT <= |x| < 10**_EXP_LIMIT take ``%``: the limit
# keeps every scale 10**(9 - e) that the others need a normal float.
_EXP_LIMIT = 290
# Cells whose scaled value lies this close to a rounding tie take ``%``.
_TIE_WINDOW = 1e-5
# Float cells are 24 bytes, three words: '%.10g' needs at most 17.
_FLOAT_CELL = 24
# Floats are rendered this many at a time, which keeps their working arrays
# small: rendering whole blocks raised the peak memory of a run of the four
# commands on a 1024x1024 array by 16 MiB.
_FLOAT_CHUNK = 1 << 14


def _bytes_le(text: str) -> int:
    return int.from_bytes(text.encode(), "little")


def _span(start: int, stop: int) -> int:
    """Mask of bytes ``start`` to ``stop`` (not before ``start``) of a little-endian word."""
    return (1 << 8 * stop) - (1 << 8 * start)


def _layout(form: int | None, nd: int) -> list[int]:
    """How a positive cell with ``nd`` significant digits is laid out in words.

    ``form`` is the decimal exponent for the fixed form (-4 to 9) or None for
    the exponent form. The ten digits sit in bytes 0-9 of two words. Those in
    ``stay`` keep their place, those in ``move`` shift one byte up to make
    room for the point, and the rest are trailing zeros to drop. Then the
    prefix ("0.00" for small fixed numbers, with the point already placed) is
    shifted in front. Returns ``stay``, ``move`` and the prefix as low and
    high words, the prefix shift in bits and the text length before any
    exponent suffix.
    """
    if form is not None and form < 0:
        shown, point, prefix = nd, None, "0." + "0" * (-form - 1)
    else:
        whole = (form or 0) + 1
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
    """Lookup tables of the float renderer; ``j`` indexes a decimal exponent e as j = 309 - e."""

    def __init__(self) -> None:
        exps = 309 - np.arange(601)
        n = np.arange(10**4, dtype=_U64)
        four = sum((48 + n // _U64(10 ** (3 - i)) % _U64(10)) << _U64(8 * i) for i in range(4))
        forms = [*range(-4, 10), None]
        # By j: 10**(9 - e) correctly rounded, whether e takes the fixed form,
        # the layout key of a positive cell with ten significant digits, and
        # the exponent form's suffix "e+XX" as a word.
        self.pow10 = np.array([float(f"1e{9 - e}") for e in exps.tolist()])
        self.fixed = (exps >= -4) & (exps < 10)
        self.key = (np.where(self.fixed, exps + 4, 14) * 11 + 10) * 2
        mag, sign = np.abs(exps), np.where(exps < 0, ord("-"), ord("+")).astype(_U64)
        exp_digits = np.where(mag < 100, four[mag] >> _U64(16), four[mag] >> _U64(8))
        self.suffix = _U64(ord("e")) | sign << _U64(8) | exp_digits << _U64(16)
        self.suffix_len = np.where(mag < 100, 4, 5).astype(_U64)
        # By 0..9999: the last two digits as bytes 0-1 of a word, all four as
        # bytes 2-5, the first two as bytes 6-7, and twice the count of
        # trailing zero digits.
        self.two_at_0, self.four_at_2, self.four_at_6 = four >> _U64(16), four << _U64(16), four << _U64(48)
        self.zeros2 = 2 * sum((n % _U64(10**k) == 0).astype(np.intp) for k in range(1, 5))
        # By key (form * 11 + nd) * 2 + neg: the columns of ``_layout``. A
        # negative cell is the positive one with one more prefix byte, "-".
        pos = np.array([_layout(form, nd) for form in forms for nd in range(11)], dtype=_U64)
        neg = pos.copy()
        neg[:, 5] = pos[:, 5] << _U64(8) | pos[:, 4] >> _U64(56)
        neg[:, 4] = pos[:, 4] << _U64(8) | _U64(ord("-"))
        neg[:, 6:] += np.array([8, 1], dtype=_U64)
        self.layouts = np.stack([pos, neg], axis=1).reshape(-1, 8).T.copy()


_TABLES = _Tables()


def _float_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``'%.10g' % (x + 0.0)`` of every float, or ``out`` for NaN, as NUL-padded cells.

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
    it is formatted by ``%`` instead, as are subnormals, infinities and
    cells beyond ``_EXP_LIMIT``. NaN and zeros have fixed texts.
    """
    t = _TABLES
    a = np.abs(x)
    fast = a >= 10.0**-_EXP_LIMIT
    fast &= a < 10.0**_EXP_LIMIT
    a[~fast] = 1.0
    e = np.log10(a)
    np.floor(e, out=e)
    np.subtract(309, e, out=e)
    j = e.astype(np.intp)
    m = t.pow10[j]
    m *= a
    # log10 can floor to a neighbouring exponent next to a power of ten.
    off = np.flatnonzero((m < 1e9) | (m >= 1e10))
    if len(off):
        j[off] += np.where(m[off] < 1e9, 1, -1)
        m[off] = a[off] * t.pow10[j[off]]
        bad = off[(m[off] < 1e9) | (m[off] >= 1e10)]
        fast[bad] = False
        m[bad] = 1e9
    digits = np.rint(m)
    m -= digits
    fast &= np.abs(m, out=m) <= 0.5 - _TIE_WINDOW
    digits = digits.astype(np.int64)
    carry = np.flatnonzero(digits == 10**10)
    digits[carry] = 10**9
    j[carry] -= 1
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
    # The exponent form appends e+XX at the end of the text.
    rows = np.flatnonzero(fast & ~t.fixed[j])
    if len(rows):
        at, suffix = length[rows], t.suffix[j[rows]]
        length[rows] += t.suffix_len[j[rows]]
        word, bits = (at >> _U64(3)).astype(np.intp), (at & _U64(7)) << _U64(3)
        cells[rows, word] |= suffix << bits
        cells[rows, word + 1] |= suffix >> (_U64(64) - bits)
    # NaN and zeros have fixed texts; the other slow cells take '%'.
    rows = np.flatnonzero(~fast)
    nan, zero = np.isnan(x[rows]), x[rows] == 0.0
    for hit, text in ((nan, "out"), (zero, "0")):
        cells[rows[hit]] = (_bytes_le(text), 0, 0)
        length[rows[hit]] = len(text)
    rows = rows[~(nan | zero)]
    text = ["%.10g" % v for v in x[rows].tolist()]
    cells[rows] = np.array(text, dtype=f"S{_FLOAT_CELL}").view(_U64).reshape(-1, 3)
    length[rows] = [len(t) for t in text]


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
