"""Doubles written at 15 significant digits as rows of a byte matrix, in numpy.

float_matrix(x) gives, for each double, the bytes of repr(float("%.15g" % x))
without a Python call per value. A row holds the text's bytes at fixed slots
with 0 in every unused slot, so the text is the row with its 0 bytes removed:

    column   0      1-5       8-25                      26-30
             sign   "0.000"   digits and at most one "."   "e+XXX"

The decimal exponent e comes from log10, corrected by one where it is off.
The 15-digit mantissa m = round(|x| 10^(14-e)) comes from one exact product:
Dekker's TwoProduct (Numer. Math. 18, 224 (1971)) of |x| and the high part of
10^(14-e), plus |x| times the low part, from a table built once from exact
fractions. Values below 1e-280 are first scaled by 2^200, which is exact, so
that 10^(14-e) stays a finite double. A 15-digit text is the repr of the
double it reads back as (DBL_DIG = 15), so the layout is repr's: positional
for -4 <= e <= 15, d[.ddd]e+XX otherwise, trailing zeros dropped and ".0"
kept after an integral positional text.

Subnormals, values above 1e280 and values within 1e-7 of a rounding tie are
left to the caller, marked in the second result.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

__all__ = ["BLOCK", "WIDTH", "float_matrix"]

WIDTH = 32

# rows formatted at a time: each temporary stays within 128 kB, where the
# allocator reuses freed memory instead of mapping fresh pages
BLOCK = 4096

_TINY = 2.2250738585072014e-308  # smallest normal double
_LARGEST = 1e280  # Dekker's split of a larger value overflows
_SCALED_BELOW = -280  # decimal exponents below this are scaled by 2^200
_SPLITTER = 134217729.0  # 2^27 + 1
_TIE = 1e-7

# the decimal exponents a table row is kept for: every normal value up to
# _LARGEST, and one more either side for the log10 correction
_E_MIN, _E_MAX = -309, 281

_BODY = 8  # column of the first body byte
_NONE = 18  # the dot position of a text without "."


def _split(a):
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


def _words(table: np.ndarray) -> np.ndarray:
    """Byte rows of WIDTH as rows of 64-bit words."""
    return np.ascontiguousarray(table, dtype=np.uint8).view(np.uint64)


def _power(k: int) -> tuple[float, float]:
    """10^(14 - k), times 2^-200 where values of exponent k are scaled, as hi + lo."""
    q = 14 - k
    num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
    if k < _SCALED_BELOW:
        den <<= 200
    # int true division rounds correctly, so hi is the double nearest num/den
    hi = num / den
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b)


def _fixed_bytes(k: int) -> bytes:
    """The bytes a value of decimal exponent k has outside its digits, at their columns."""
    if -4 <= k < 0:  # "0." and -k - 1 zeros before the digits
        return b"\0" + f"0.{'0' * (-k - 1)}".encode().ljust(WIDTH - 1, b"\0")
    if 0 <= k <= 15:
        return bytes(WIDTH)
    # e, sign and two or three digits after them
    return bytes(26) + f"e{k:+03d}".encode().ljust(WIDTH - 26, b"\0")


@functools.cache
def _tables() -> SimpleNamespace:
    e = np.arange(_E_MIN, _E_MAX + 1)
    hi, lo = np.array([_power(k) for k in e.tolist()]).T
    scale = np.where(e < _SCALED_BELOW, 2.0**200, 1.0)
    fixed = np.frombuffer(b"".join(map(_fixed_bytes, e.tolist())), np.uint8)

    # per exponent and count of significant digits: where the "." goes (after
    # digit e + 1 of a positional value of at least 1, after the first digit
    # of a scientific value with more than one) and how many body bytes are
    # kept: every significant digit, every integer digit, one fractional digit
    k, sig = e[:, None], np.arange(16)
    whole = (k >= 0) & (k <= 15)
    scientific = (k < -4) | (k > 15)
    dot = np.where(whole, k + 1, np.where(scientific & (sig > 1), 1, _NONE))
    end = np.where(whole, np.maximum(sig, k + 2), sig) + (dot < _NONE)

    # per (dot, end): the body bytes read from the next column (before the
    # "."), the ones read from their own column (after it), and the "."
    dots, ends = np.divmod(np.arange(19 * 20), 20)
    j = np.arange(18)
    body = np.zeros((3, 19 * 20, WIDTH), np.uint8)
    body[0, :, _BODY:_BODY + 18] = 255 * ((j < dots[:, None]) & (j < ends[:, None]))
    body[1, :, _BODY:_BODY + 18] = 255 * ((j > dots[:, None]) & (j < ends[:, None]))
    body[2, :, _BODY:_BODY + 18] = 46 * (j == dots[:, None])

    i = np.arange(10_000)
    chunks = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1) + 48
    # per chunk j of m and its value: the count of m's digits up to the
    # chunk's last nonzero one, or 0 (the first chunk's digits start at its
    # second byte; a zero m counts 1, as 0.0 has one digit)
    last = 4 - (i % 10 == 0) - (i % 100 == 0) - (i % 1000 == 0)
    upto = np.where(i > 0, last + 4 * np.arange(4)[:, None] - 1, 0).astype(np.uint8)
    upto[0, 0] = 1
    return SimpleNamespace(
        product=np.stack([scale, hi, *_split(hi), lo]), fixed=_words(fixed.reshape(len(e), WIDTH)),
        code=(dot * 20 + end).ravel(), body=_words(body),
        chunks=np.ascontiguousarray(chunks, dtype=np.uint8).view(np.uint32).ravel(),
        upto=upto, zeros=np.frombuffer(b"000\0", np.uint32)[0])


def _mantissa(t, x, row):
    """round(v) for v = x 10^(14-e), e the exponent of table row row; whether v < 10^14,
    and whether v is near a tie."""
    scale, hi, hi_hi, hi_lo, lo = np.take(t.product, row, axis=1)
    xs = x * scale
    p = xs * hi
    x_hi, x_lo = _split(xs)
    err = ((x_hi * hi_hi - p) + x_hi * hi_lo + x_lo * hi_hi) + x_lo * hi_lo
    m = np.rint(p)
    # v = m + frac; p - m is exact, they are within one half of each other
    frac = (p - m) + (err + xs * lo)
    below = (m < 1e14) | ((m == 1e14) & (frac < 0.0))
    # |frac| < 1, so rint(frac) is the step to the nearest integer (0 at a tie)
    m += np.rint(frac)
    return m, below, np.abs(np.abs(frac) - 0.5) < _TIE


def _format_block(x, out, rest) -> None:
    t = _tables()
    ax = np.abs(x)
    zero = ax == 0.0
    rest[:] = ((ax < _TINY) & ~zero) | (ax > _LARGEST)
    live = ~(zero | rest)
    safe = np.where(live, ax, 1.0)
    row = np.floor(np.log10(safe)).astype(np.intp) - _E_MIN
    m, below, near_tie = _mantissa(t, safe, row)
    # log10 may be one off next to a power of ten, and rounding may carry
    # to 10^15; a text that carries is 1 at the next exponent
    up = m >= 1e15
    off = np.flatnonzero(up | below)
    if off.size:
        row[off] += np.where(up[off], 1, -1)
        m[off], _, tie = _mantissa(t, safe[off], row[off])
        # the first flag stays: a value that carries was rounded at its exponent
        near_tie[off] |= tie
        carry = off[m[off] >= 1e15]
        m[carry] = 1e14
        row[carry] += 1
        # never seen: log10 two off; the caller writes such a value
        near_tie[off] |= m[off] < 1e14
    rest |= near_tie & live
    # a zero is written as the positional 0.0
    m[zero] = 0.0
    row[zero] = -_E_MIN

    # m in 4-digit chunks (the first has 3 digits and a leading zero); each
    # floor is exact because m < 2^53
    high = np.floor(m / 1e8)
    low = m - high * 1e8
    chunk = np.empty((len(x), 4))
    chunk[:, 0] = np.floor(high / 1e4)
    chunk[:, 1] = high - chunk[:, 0] * 1e4
    chunk[:, 2] = np.floor(low / 1e4)
    chunk[:, 3] = low - chunk[:, 2] * 1e4
    chunk = chunk.astype(np.intp)
    sig = np.maximum(np.maximum(t.upto[0][chunk[:, 0]], t.upto[1][chunk[:, 1]]),
                     np.maximum(t.upto[2][chunk[:, 2]], t.upto[3][chunk[:, 3]]))

    # the digits from the body's first column on, then three zeros for a
    # 16th integer digit and a first fractional one
    digits = np.empty((len(x), WIDTH // 4), np.uint32)
    digits[:, _BODY // 4:_BODY // 4 + 4] = np.take(t.chunks, chunk)
    digits[:, _BODY // 4 + 4] = t.zeros
    own = digits.view(np.uint64).ravel()
    # each byte moved one column left: the digit after the one in its column
    following = own >> np.uint64(8)
    following[:-1] |= own[1:] << np.uint64(56)

    words = out.view(np.uint64)
    before, after, point = np.take(t.body, np.take(t.code, row * 16 + sig), axis=1)
    np.bitwise_and(following.reshape(words.shape), before, out=words)
    words |= own.reshape(words.shape) & after
    words |= point
    words |= np.take(t.fixed, row, axis=0)
    out[:, 0] |= np.signbit(x).view(np.uint8) * np.uint8(45)


def float_matrix(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Texts of finite doubles as a (len, WIDTH) uint8 matrix, and the rows left out.

    Each row holds the bytes of repr(float("%.15g" % x)) with 0 bytes in
    between; a row marked in the second result (a subnormal, |x| > 1e280 or
    a near-tie) is left for the caller to write.
    """
    values = np.asarray(values, dtype=float)
    out = np.empty((len(values), WIDTH), np.uint8)
    rest = np.empty(len(values), bool)
    for start in range(0, len(values), BLOCK):
        stop = start + BLOCK
        _format_block(values[start:stop], out[start:stop], rest[start:stop])
    return out, rest
