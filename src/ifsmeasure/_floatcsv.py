"""Float tables as CSV text, byte for byte what ``"%.17g"`` prints.

Digits come from array arithmetic in the style of Grisu (Loitsch,
"Printing Floating-Point Numbers Quickly and Accurately with Integers",
PLDI 2010): each |x| is scaled by 10^(16 - X) in double-double arithmetic
and rounded to the 17-digit integer D, X being the decimal exponent.  The
scaled value is within 1e-14 of exact, so a fraction further than 2e-13
from one half rounds as the exact value does.  Values nearer a tie, and
±0, subnormals, non-finite values and magnitudes outside [1e-289, 1e300],
go through ``"%.17g"``, a chunk's all in one ``%`` call.

Text is laid out in 48 bytes a value, six uint64 words, each word the AND
of a template chosen by layout and a digit overlay (byte by byte, so byte
order does not matter); bytes left zero are padding, deleted at the end.
"""

from __future__ import annotations

import functools

import numpy as np

# 10^p for p = 16 - X: the fast range has X in [-290, 300], one more each
# way when log10 rounds across a power of ten; 2^k overflows beyond 10^307
_P_MIN, _P_MAX = -290, 307
_FAST_MIN, _FAST_MAX = 1e-289, 1e300
_TIE_MARGIN = 2e-13
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter
_D_MIN, _D_MAX = 10**16, 10**17


@functools.cache
def _pow10():
    """(hi, hi split in two halves, lo, 2^k) with (hi + lo)·2^k = 10^p to 2^-106."""
    rows = []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        k = num.bit_length() - den.bit_length()
        num, den = (num, den << k) if k >= 0 else (num << -k, den)
        hi = num / den  # int division rounds correctly, as does lo's
        a, b = hi.as_integer_ratio()
        rows.append((hi, (num * b - a * den) / (den * b), 2.0 ** k))
    hi, lo, scale = np.array(rows).T
    t = _SPLIT * hi
    h1 = t - (t - hi)
    return hi, h1, hi - h1, lo, scale


def _scaled(ax, X):
    """floor(ax·10^(16 - X)), whether it rounds up, whether it is too near a tie."""
    hi, h1, h2, lo, scale = (c.take(16 - X - _P_MIN) for c in _pow10())
    p = ax * hi
    t = _SPLIT * ax
    a1 = t - (t - ax)
    a2 = ax - a1
    # Dekker's exact product ax·hi = p + err, then the ax·lo term
    low = (((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2 + ax * lo) * scale
    big = p * scale
    whole = np.floor(big)
    r = (big - whole) + low
    carry = np.floor(r)
    frac = r - carry
    floor = whole.astype(np.int64) + carry.astype(np.int64)
    return floor, frac > 0.5, np.abs(frac - 0.5) < _TIE_MARGIN


def _digits(ax):
    """17-digit D, exponent X and a fallback flag for each positive ax."""
    X = np.floor(np.log10(ax)).astype(np.int64)
    floor, up, slow = _scaled(ax, X)
    # log10 rounded across a power of ten: X is right when the scaled
    # value, before rounding, has 17 digits
    off = (floor < _D_MIN) | (floor >= _D_MAX)
    if off.any():
        X[off] += np.where(floor[off] < _D_MIN, -1, 1)
        floor[off], up[off], slow[off] = _scaled(ax[off], X[off])
        slow |= (floor < _D_MIN) | (floor >= _D_MAX)
    D = floor + up
    decade = D == _D_MAX  # rounding carried into the next decade
    D[decade] = _D_MIN
    X[decade] += 1
    return D, X, slow


# a value's 48 bytes: sign, "0.000", then d0..d16 each followed by a slot
# for the point, "e", exponent sign, three exponent digits, separator and
# two pad bytes.  Layouts: X = -4..16 in fixed notation, then e+XX, e-XX,
# e+XXX, e-XXX; times 17 digit counts, 2 signs, 2 separators.
_NKEY = 25 * 17 * 2


def _digit_bytes(n, width):
    """ASCII digits of 0..n-1, zero-padded to ``width``, one row each."""
    powers = 10 ** np.arange(width - 1, -1, -1)
    return (np.arange(n)[:, None] // powers % 10 + ord("0")).astype(np.uint8)


def _overlay(n, columns, width):
    """uint64 words of 0xff bytes with the digits of 0..n-1 at ``columns``."""
    words = np.full((n, 8), 0xff, np.uint8)
    words[:, columns] = _digit_bytes(n, width)
    return words.view(np.uint64).ravel()


@functools.cache
def _tables():
    """Templates by layout key and overlays by lead digit, 4-digit limb and |X|.

    Template bytes are the literal character, 0 to drop, or 0xff where the
    overlay supplies a digit; overlays are 0xff outside their digits.
    """
    cat, nd, neg = (a.ravel() for a in np.meshgrid(
        np.arange(25), np.arange(1, 18), np.arange(2), indexing="ij"))
    # X < 0 in fixed notation writes "0." and -X - 1 zeros first; X >= 0
    # keeps its X + 1 integer digits and puts the point after d_X
    lead0, expo = cat < 4, cat >= 21
    keep = np.where(expo | lead0, nd, np.maximum(nd, cat - 3))
    point = np.where(expo, 0, np.where(lead0, -1, cat - 4))
    j = np.arange(17)
    rows = np.zeros((2, _NKEY, 48), np.uint8)
    rows[..., 0] = ord("-") * neg
    rows[..., 1] = ord("0") * lead0
    rows[..., 2] = ord(".") * lead0
    rows[..., 3:6] = ord("0") * ((np.arange(3) < 3 - cat[:, None]) & lead0[:, None])
    rows[..., 6:40:2] = 0xff * (j < keep[:, None])
    rows[..., 7:40:2] = ord(".") * ((j == point[:, None]) & (j + 1 < keep[:, None]))
    rows[..., 40] = ord("e") * expo
    rows[..., 41] = np.where(cat % 2 == 0, ord("-"), ord("+")) * expo
    rows[..., 42] = 0xff * (expo & (cat >= 23))
    rows[..., 43:45] = 0xff * expo[:, None]
    rows[..., 45] = [[ord(",")], [ord("\n")]]
    limb = np.arange(10000)
    zeros = sum(limb % 10**i == 0 for i in range(1, 5))  # trailing, 4 for 0
    X = np.arange(-999, 1000)
    by_x = np.where((X >= -4) & (X < 17), X + 4,
                    21 + (X < 0) + 2 * (np.abs(X) >= 100))
    return (rows.reshape(2 * _NKEY, 48).view(np.uint64),
            _overlay(10, [6], 1), _overlay(10000, slice(0, 8, 2), 4),
            _overlay(1000, slice(2, 5), 3), zeros, 34 * by_x)


def csv_bytes(table) -> bytes:
    """Rows of a 2-d float64 array as CSV: ``"%.17g"`` values, ``,`` and ``\\n``."""
    n_rows, n_cols = table.shape
    x = np.asarray(table, dtype=np.float64).ravel()
    ax = np.abs(x)
    fast = (ax >= _FAST_MIN) & (ax <= _FAST_MAX)
    # values outside the fast range take 1.0's digits, then the fallback's
    D, X, slow = _digits(np.where(fast, ax, 1.0))
    slow |= ~fast
    templates, lead_t, limb_t, expo_t, zeros_t, layout_t = _tables()
    lead = D // 10**16
    r = D - lead * 10**16
    a = r // 10**8
    b = r - a * 10**8
    a1 = a // 10**4
    b1 = b // 10**4
    limbs = (a1, a - a1 * 10**4, b1, b - b1 * 10**4)
    tz = zeros_t.take(limbs[3])  # trailing zeros of D
    tail = limbs[3] == 0
    for limb in limbs[2::-1]:
        if not tail.any():
            break
        tz += tail * zeros_t.take(limb)
        tail &= limb == 0
    # layout, then 17 - tz significant digits, then sign, then separator
    key = layout_t.take(X + 999) + (16 - tz) * 2 + np.signbit(x)
    key.reshape(n_rows, n_cols)[:, -1] += _NKEY
    out = templates.take(key, axis=0)
    out[:, 0] &= lead_t.take(lead)
    for w, limb in enumerate(limbs, 1):
        out[:, w] &= limb_t.take(limb)
    out[:, 5] &= expo_t.take(np.abs(X))
    i = np.flatnonzero(slow)
    fallback = (b"%.17g " * len(i) % tuple(x[i].tolist())).split()
    # each row but its separator, NUL-padded to 45 bytes
    padded = np.array(fallback, "S45").view(np.uint8).reshape(-1, 45)
    out.view(np.uint8)[i, :45] = padded
    return out.tobytes().translate(None, b"\0")
