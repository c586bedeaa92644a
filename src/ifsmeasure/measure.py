"""Vector measures on [0, 1] with finite exact representations.

A measure is a finite set of Dirac atoms plus a finite set of
constant-density pieces, with coefficients in R^n or C^n:

    mu(B)  =  sum_{atoms: t_j in B} w_j  +  sum_{pieces k} d_k * len(B n I_k)

All point mass lives in atoms; pieces are absolutely continuous, so endpoint
membership of a query set never affects their contribution.  The class is
closed under affine pushforward, application of a matrix operator to the
coefficients, and linear combination, which keeps Markov-type operator
iterates exactly representable.

Canonical form: atoms sorted with coincident points merged (points within
1e-12 of each other also merge, absorbing rounding in mapped positions) and
zero weights dropped; pieces resolved into disjoint segments with densities
summed, zero densities dropped, and adjacent segments with exactly equal
densities merged.  Equality is structural on the canonical arrays.

Pieces are summed one way, by ``_sum_runs``: over sorted, disjoint runs
of pieces, each segment between their distinct endpoints starts at zero
and adds, in run order, the density covering it in each run, so a small
density next to a large one keeps its bits.  ``accumulate``, ``combine``
and ``VectorMeasure.variation_distance`` pass their terms as the runs;
raw input that overlaps or is out of order (the constructor,
``from_dict``) is first dealt into runs.  Input already sorted and
disjoint, as ``pushforward``, ``apply_operator`` and ``prune`` produce
it, keeps its coefficients: only zero rows go, and equal contiguous
pieces merge.  A sum that overflows raises ValueError.
"""

from __future__ import annotations

import heapq

import numpy as np

from .exceptions import DimensionMismatch
from .hilbert import _field_cast
from .space import AffineMap, QuerySet, _span_rows

__all__ = ["VectorMeasure", "pushforward", "apply_operator", "combine",
           "accumulate", "prune"]

_SNAP = 1e-12

# size of the first partial selection in prune; it grows fourfold until
# the budget runs out inside it
_PRUNE_START = 1 << 17


# rows whose norm comes out outside this range are recomputed, scaled by
# their largest entry, so that no square overflows or underflows to zero;
# every other row keeps the plain formula's result
_NORM_LO, _NORM_HI = 1e-150, 1e150


def _row_norms(a: np.ndarray) -> np.ndarray:
    # squares summed column by column, left to right: the order numpy's
    # reduction along a row of fewer than eight takes, several times faster
    mag = np.abs(a)
    with np.errstate(over="ignore"):
        sq = mag[:, 0] ** 2
        for j in range(1, a.shape[1]):
            sq += mag[:, j] ** 2
        out = np.sqrt(sq)
    odd = (out < _NORM_LO) | (out > _NORM_HI)
    if odd.any():
        m = mag[odd]
        top = np.max(m, axis=1, initial=0.0)
        top[top == 0.0] = 1.0  # zero rows stay zero
        out[odd] = np.sqrt(np.sum((m / top[:, None]) ** 2, axis=1)) * top
    return out


def _rows_differ(a: np.ndarray, b) -> np.ndarray:
    """``np.any(a != b, axis=1)`` for ``b`` an array of a's shape or 0.

    A loop over the few columns runs several times faster than a
    reduction along the short axis.
    """
    b = np.broadcast_to(b, a.shape)
    out = np.zeros(len(a), dtype=bool)
    for j in range(a.shape[1]):
        out |= a[:, j] != b[:, j]
    return out


def _canonical_atoms(points, weights):
    if len(points) > 1 and not np.all(np.diff(points) > _SNAP):
        order = np.argsort(points, kind="stable")
        p = points[order]
        w = weights[order]
        starts = np.concatenate(([True], np.diff(p) > _SNAP))
        idx = np.flatnonzero(starts)
        points, weights = p[idx], np.add.reduceat(w, idx, axis=0)
    keep = _rows_differ(weights, 0)
    if keep.all():
        return points, weights
    return points[keep], weights[keep]


def _scatter_rows(n, idx, rows):
    """Rows summed by index, as an ``(n, dim)`` array.

    ``idx`` lines up with the stacked ``rows``; row k of the result is 0
    plus the rows at k, in input order.  ``np.bincount`` sums each bin
    from 0.0 in input order, so this is bitwise what ``np.add.at`` into
    zeros gives, at a fraction of its cost.  It runs once per real column
    (the real and imaginary parts of complex ones), and every column is
    summed before the result is allocated.
    """
    dim, dtype = rows[0].shape[1], np.result_type(*rows)
    parts = (np.real, np.imag) if dtype.kind == "c" else (np.real,)
    columns = [(j, part) for j in range(dim) for part in parts]
    sums = [np.bincount(idx, np.concatenate([part(r[:, j]) for r in rows]),
                        minlength=n)
            for j, part in columns]
    out = np.empty((n, dim), dtype=dtype)
    for (j, part), s in zip(columns, sums):
        part(out)[:, j] = s
    return out


def _covering(lo, hi, dens, left):
    """``(a, rows)``: for the sorted points ``left[a:a + len(rows)]`` in the
    span of the sorted, disjoint, nonempty run ``(lo, hi, dens)``, whose
    starts are among the points, the density of the piece each lies in
    (zero in a gap), by a mark at each start and a cumulative sum."""
    a, b = np.searchsorted(left, (lo[0], hi[-1]))
    k = np.zeros(b - a, dtype=np.intp)
    k[np.searchsorted(left[a:b], lo[1:])] = 1
    np.cumsum(k, out=k)
    rows = dens.take(k, axis=0)
    rows[hi[k] <= left[a:b]] = 0
    return a, rows


def _sum_runs(runs, dtype):
    """``(lo, hi, dens)``: the sum of sorted, disjoint runs of pieces.

    Each segment between the runs' distinct endpoints starts at zero and
    adds, in run order, the density covering it in each run (zero in a
    gap adds exactly), so it is rounded once per covering piece.  Zero
    segments are dropped; an overflow comes out inf or nan.
    """
    # each run's ends lo_0, hi_0, lo_1, ... are sorted; a timsort merges them
    ends = np.concatenate([np.stack((lo, hi), axis=1).ravel()
                           for lo, hi, _ in runs])
    ends.sort(kind="stable")
    first = np.ones(len(ends), dtype=bool)
    np.not_equal(ends[1:], ends[:-1], out=first[1:])
    events = ends[first]
    del ends
    left = events[:-1]
    dens = np.zeros((len(left), runs[0][2].shape[1]), dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, d in runs:
            if len(lo):
                a, rows = _covering(lo, hi, d, left)
                dens[a:a + len(rows)] += rows
    keep = _rows_differ(dens, 0)
    if keep.all():
        return left, events[1:], dens
    return left[keep], events[1:][keep], dens[keep]


def _first_fit(lo, hi):
    """Run of each piece, ``lo`` sorted: the lowest-numbered run whose last
    piece ends by the piece's start, else a new one."""
    run, free, busy = [], [], []  # free run numbers; (end, run) in use
    for a, b in zip(lo.tolist(), hi.tolist()):
        while busy and busy[0][0] <= a:
            heapq.heappush(free, heapq.heappop(busy)[1])
        run.append(heapq.heappop(free) if free else len(busy))
        heapq.heappush(busy, (b, run[-1]))
    return np.array(run, dtype=np.int64)


def _sum_overlapping(lo, hi, dens):
    """Disjoint segments and summed densities of unsorted or overlapping
    pieces: dealt by ``_first_fit`` into sorted, disjoint runs, grouped by
    one stable argsort and summed pairwise, round after round.  Each round
    is one ``_sum_runs`` call: an endpoint's key is run * M + its rank
    among the M distinct endpoints, shifted to pair * M for the round, so
    the pairs lie apart.  R runs of S pieces cost O(S log R).
    """
    order = np.argsort(lo, kind="stable")
    run = _first_fit(lo[order], hi[order])
    group = np.argsort(run, kind="stable")
    order, run = order[group], run[group]
    events = np.unique(np.concatenate([lo, hi]))
    m = len(events)
    k_lo = run * m + np.searchsorted(events, lo[order])
    k_hi = run * m + np.searchsorted(events, hi[order])
    dens = dens[order]
    while len(run) and run[-1] > 0:
        shift, even = (run - run // 2) * m, run % 2 == 0
        k_lo, k_hi, dens = _sum_runs(
            [(k_lo[s] - shift[s], k_hi[s] - shift[s], dens[s])
             for s in (even, ~even)], dens.dtype)
        run = k_lo // m
    return events[k_lo % m], events[k_hi % m], dens


def _canonical_pieces(lo, hi, dens):
    keep = (hi > lo) & _rows_differ(dens, 0)
    if not keep.all():
        lo, hi, dens = lo[keep], hi[keep], dens[keep]
    if np.any(lo[1:] < hi[:-1]):  # out of order or overlapping
        lo, hi, dens = _sum_overlapping(lo, hi, dens)
    # merge runs of contiguous segments carrying bitwise-equal densities
    contiguous = lo[1:] == hi[:-1]
    same = ~_rows_differ(dens[1:], dens[:-1])
    starts = np.concatenate(([True], ~(contiguous & same)))
    if starts.all():
        return lo, hi, dens
    idx = np.flatnonzero(starts)
    ends = np.concatenate((idx[1:], [len(lo)])) - 1
    return lo[idx], hi[ends], dens[idx]


class VectorMeasure:
    """Finitely representable vector measure: Dirac atoms + density pieces."""

    __slots__ = ("atom_points", "atom_weights", "piece_lo", "piece_hi",
                 "piece_density", "dim")

    def __init__(self, atoms=(), pieces=(), dim=None, field=None):
        """Build from iterables of ``(point, weight)`` and
        ``((lo, hi), density)``; ``dim`` is only needed when both
        lists are empty.  ``field`` is "real", "complex", or None to infer
        from the coefficients.  Non-finite points, endpoints or
        coefficients raise ValueError.
        """
        a_pts, a_wts, p_lo, p_hi, p_d = [], [], [], [], []
        for t, w in atoms:
            a_pts.append(float(t))
            a_wts.append(np.atleast_1d(np.asarray(w)))
        for (lo_, hi_), d in pieces:
            p_lo.append(float(lo_))
            p_hi.append(float(hi_))
            p_d.append(np.atleast_1d(np.asarray(d)))
        coeffs = a_wts + p_d
        if dim is None:
            if not coeffs:
                raise ValueError("dim is required for an empty measure")
            dim = len(coeffs[0])
        for c in coeffs:
            if c.shape != (dim,):
                raise DimensionMismatch(
                    f"coefficient of shape {c.shape} in a dimension-{dim} measure")
        _, (wts, dd) = _field_cast(
            [np.stack(c) if c else np.zeros((0, dim)) for c in (a_wts, p_d)],
            field, "coefficients in a real measure")
        pts = np.asarray(a_pts, dtype=float)
        lo = np.asarray(p_lo, dtype=float)
        hi = np.asarray(p_hi, dtype=float)
        if not all(np.isfinite(a).all() for a in (pts, wts, lo, hi, dd)):
            raise ValueError("non-finite atom point, piece endpoint or coefficient")
        self._finish(pts, wts, lo, hi, dd, dim)

    def _finish(self, pts, wts, lo, hi, dens, dim):
        if np.any(pts < 0.0) or np.any(pts > 1.0):
            raise ValueError("atom outside [0, 1]")
        if np.any(lo > hi) or (len(lo) and (lo.min() < 0.0 or hi.max() > 1.0)):
            raise ValueError("piece interval outside [0, 1] or reversed")
        # sums of finite coefficients can overflow; the check below
        # refuses the inf or nan that results, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            pts, wts = _canonical_atoms(pts, wts)
            lo, hi, dens = _canonical_pieces(lo, hi, dens)
        if not (np.isfinite(wts).all() and np.isfinite(dens).all()):
            raise ValueError("a coefficient overflows to a non-finite value")
        for arr in (pts, wts, lo, hi, dens):
            arr.setflags(write=False)
        for name, value in zip(self.__slots__, (pts, wts, lo, hi, dens, dim)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("VectorMeasure is immutable")

    @classmethod
    def _from_arrays(cls, pts, wts, lo, hi, dens, dim):
        self = cls.__new__(cls)
        self._finish(np.asarray(pts, float), np.asarray(wts),
                     np.asarray(lo, float), np.asarray(hi, float),
                     np.asarray(dens), dim)
        return self

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dim: int, field: str = "real") -> "VectorMeasure":
        return cls(dim=dim, field=field)

    @classmethod
    def dirac(cls, t: float, weight) -> "VectorMeasure":
        return cls(atoms=[(t, weight)])

    @classmethod
    def lebesgue(cls, density) -> "VectorMeasure":
        """Lebesgue measure on [0, 1] carrying a constant vector density."""
        return cls(pieces=[((0.0, 1.0), density)])

    # -- basic queries ------------------------------------------------

    @property
    def field(self) -> str:
        return "complex" if np.iscomplexobj(self.atom_weights) else "real"

    @property
    def n_atoms(self) -> int:
        return len(self.atom_points)

    @property
    def n_pieces(self) -> int:
        return len(self.piece_lo)

    def is_zero(self) -> bool:
        return self.n_atoms == 0 and self.n_pieces == 0

    def evaluate(self, B: QuerySet) -> np.ndarray:
        """mu(B) for an evaluable set, exactly from the representation."""
        return self.evaluate_many([B])[0]

    def evaluate_many(self, sets) -> np.ndarray:
        """``[mu(B) for B in sets]`` as one ``(len(sets), dim)`` array pass:
        ``evaluate_rows`` of the sets' spans and points, summed by set."""
        sets = list(sets)
        *rows, owner = _span_rows(sets)
        return self.evaluate_rows(*rows, owner=owner, n=len(sets))

    def evaluate_rows(self, lo, hi, lo_incl, hi_incl, owner=None, n=None):
        """mu of each single span ``[lo, hi]`` (ends included as flagged)
        and point (``lo == hi``, included) of flat arrays, the set
        evaluation's array entry; with ``owner``, the rows summed into
        ``n`` sets instead.

        Rows are located among the sorted canonical atoms and pieces by
        ``searchsorted``, so memory and time are O(rows + atoms +
        pieces), never their product.  Atoms in a span are a difference
        of atom prefix sums, the endpoint flags choosing the search side;
        points match atoms by exact equality.  Canonical pieces are
        disjoint and sorted, so a span meets a contiguous run of them: the
        two end pieces count by their overlap lengths, the ones strictly
        inside by a difference of piece-mass prefix sums.  Each set sums
        its span atoms, then its points, then its span pieces.
        """
        if owner is None:
            owner, n = np.arange(len(lo)), len(lo)
        owners, rows = [], []  # summed by owner in one scatter
        span = np.flatnonzero(lo < hi)
        owner, q_owner, q = owner[span], owner[lo == hi], lo[lo == hi]
        lo, hi = lo[span], hi[span]
        prefix, mass = self._prefixes()
        if self.n_atoms:
            pts, wts = self.atom_points, self.atom_weights
            a0 = np.where(lo_incl[span], np.searchsorted(pts, lo, side="left"),
                          np.searchsorted(pts, lo, side="right"))
            a1 = np.where(hi_incl[span], np.searchsorted(pts, hi, side="right"),
                          np.searchsorted(pts, hi, side="left"))
            owners.append(owner)
            rows.append(prefix[a1] - prefix[a0])
            i = np.minimum(np.searchsorted(pts, q), len(pts) - 1)
            hit = pts[i] == q
            owners.append(q_owner[hit])
            rows.append(wts[i[hit]])
        if self.n_pieces and len(span):
            p_lo, p_hi, dens = self.piece_lo, self.piece_hi, self.piece_density
            first = np.searchsorted(p_hi, lo, side="right")  # ends after lo
            stop = np.searchsorted(p_lo, hi, side="left")    # starts before hi
            last = stop - 1
            meets = np.flatnonzero(stop > first)
            first, last = first[meets], last[meets]
            lo, hi = lo[meets], hi[meets]

            def end_piece(k, lo, hi):
                ov = np.minimum(p_hi[k], hi) - np.maximum(p_lo[k], lo)
                return dens[k] * ov[:, None]

            val = end_piece(first, lo, hi)
            inner = np.flatnonzero(last > first)
            val[inner] += mass[last[inner]] - mass[first[inner] + 1]
            val[inner] += end_piece(last[inner], lo[inner], hi[inner])
            owners.append(owner[meets])
            rows.append(val)
        if not rows:
            return np.zeros((n, self.dim), dtype=self.atom_weights.dtype)
        return _scatter_rows(n, np.concatenate(owners), rows)

    def total(self) -> np.ndarray:
        """mu([0, 1]): all atom weights plus density mass."""
        out = self.atom_weights.sum(axis=0) if self.n_atoms else np.zeros(
            self.dim, dtype=self.atom_weights.dtype)
        if self.n_pieces:
            out = out + (self.piece_density
                         * (self.piece_hi - self.piece_lo)[:, None]).sum(axis=0)
        return out

    def variation_norm(self) -> float:
        """Total variation: sum of atom weight norms plus density norm * length.

        Exact for this representation because atoms and pieces (after
        canonicalization) live on disjoint parts of the interval.
        """
        v = float(_row_norms(self.atom_weights).sum()) if self.n_atoms else 0.0
        if self.n_pieces:
            v += float((_row_norms(self.piece_density)
                        * (self.piece_hi - self.piece_lo)).sum())
        return v

    def variation_distance(self, other: "VectorMeasure") -> float:
        """``(self - other).variation_norm()`` without building the difference.

        Atoms and pieces are summed as ``combine`` sums them, other's
        coefficients negated, but no measure is built: each segment adds
        ||d_self - d_other|| * width, its difference rounded once, to the
        bit the density of ``self - other``.  Swapping the operands negates
        every difference, so the distance is the same unless three or more
        atoms snap together across an exact tie.  A difference that
        overflows raises ValueError.
        """
        pts, wts, lo, hi, dens, _ = _summed([(1.0, self), (-1.0, other)])
        with np.errstate(over="ignore", invalid="ignore"):
            _, wts = _canonical_atoms(pts, wts)
        if not (np.isfinite(wts).all() and np.isfinite(dens).all()):
            raise ValueError("a coefficient overflows to a non-finite value")
        return (float(_row_norms(wts).sum())
                + float((_row_norms(dens) * (hi - lo)).sum()))

    def cumulative(self, t: float) -> np.ndarray:
        """mu([0, t]) as a function of the right endpoint."""
        return self.cumulative_all(np.array([float(t)]))[0]

    def cumulative_all(self, ts) -> np.ndarray:
        """Vectorized ``cumulative`` for an array of points.

        Canonical pieces are disjoint and sorted, so with k the last piece
        starting at or before t, F(t) is the atom prefix up to t, plus the
        mass of the pieces before k, plus d_k * min(t - lo_k, hi_k - lo_k):
        (points + atoms + pieces) log(atoms + pieces) in all.
        """
        ts = np.asarray(ts, dtype=float)
        atoms, mass = self._prefixes()
        # added to zeros, so a -0.0 prefix entry reads 0.0 in exports
        out = np.zeros((len(ts), self.dim), dtype=self.atom_weights.dtype)
        out += atoms[np.searchsorted(self.atom_points, ts, side="right")]
        if self.n_pieces:
            lo, hi = self.piece_lo, self.piece_hi
            k = np.maximum(np.searchsorted(lo, ts, side="right") - 1, 0)
            inside = np.clip(ts - lo[k], 0.0, hi[k] - lo[k])  # 0 before lo_0
            out += mass[k] + self.piece_density[k] * inside[:, None]
        return out

    def _prefixes(self):
        """Prefix sums of the atom weights and of the piece masses, each
        with a leading zero row."""
        def prefix(a):
            return np.concatenate([np.zeros((1, self.dim), dtype=a.dtype),
                                   np.cumsum(a, axis=0)])
        return (prefix(self.atom_weights),
                prefix(self.piece_density
                       * (self.piece_hi - self.piece_lo)[:, None]))

    def breakpoints(self) -> np.ndarray:
        """Sorted points where the cumulative changes slope or jumps,
        always including 0 and 1."""
        return np.unique(np.concatenate(
            [self.atom_points, self.piece_lo, self.piece_hi, [0.0, 1.0]]))

    def panels(self):
        """``(bps, F, rho)``: the breakpoints, ``F = cumulative_all(bps)``
        and the density ``rho[j]`` on the open panel (bps[j], bps[j+1]),
        so F(t) = F[j] + (t - bps[j]) rho[j] inside it.
        """
        bps = self.breakpoints()
        F = self.cumulative_all(bps)
        rho = np.zeros((len(bps) - 1, self.dim), dtype=F.dtype)
        if self.n_pieces:
            # canonical pieces are disjoint, sorted and end on breakpoints;
            # left ends, not midpoints, so a one-ulp panel cannot round over
            a, rows = _covering(self.piece_lo, self.piece_hi,
                                self.piece_density, bps[:-1])
            rho[a:a + len(rows)] = rows
        return bps, F, rho

    # -- algebra ------------------------------------------------------

    def scaled(self, a) -> "VectorMeasure":
        return VectorMeasure._from_arrays(
            self.atom_points, a * self.atom_weights,
            self.piece_lo, self.piece_hi, a * self.piece_density, self.dim)

    def __add__(self, other):
        return combine(1.0, self, 1.0, other)

    def __sub__(self, other):
        return combine(1.0, self, -1.0, other)

    def __neg__(self):
        return self.scaled(-1.0)

    def __mul__(self, a):
        return self.scaled(a)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, VectorMeasure):
            return NotImplemented
        return all(np.array_equal(getattr(self, k), getattr(other, k))
                   for k in self.__slots__)

    def __repr__(self):
        return (f"VectorMeasure(dim={self.dim}, {self.n_atoms} atoms, "
                f"{self.n_pieces} pieces, |mu|={self.variation_norm():.6g})")

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        def enc(row):
            if self.field == "complex":
                return [[float(c.real), float(c.imag)] for c in row]
            return [float(c) for c in row]
        return {
            "dimension": self.dim,
            "field": self.field,
            "atoms": [[float(t), enc(w)] for t, w in
                      zip(self.atom_points, self.atom_weights)],
            "pieces": [[float(lo), float(hi), enc(d)] for lo, hi, d in
                       zip(self.piece_lo, self.piece_hi, self.piece_density)],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VectorMeasure":
        field = d.get("field", "real")

        def dec(row):
            if field == "complex":
                return np.array([complex(c[0], c[1]) for c in row])
            return np.array([float(c) for c in row])
        atoms = [(t, dec(w)) for t, w in d.get("atoms", [])]
        pieces = [((lo, hi), dec(dd)) for lo, hi, dd in d.get("pieces", [])]
        return cls(atoms=atoms, pieces=pieces, dim=d["dimension"], field=field)


# -- measure transforms ----------------------------------------------


def pushforward(m: AffineMap, mu: VectorMeasure) -> VectorMeasure:
    """Image measure under an affine map: (pushforward mu)(B) = mu(preimage B).

    Atoms move to their image points; densities rescale by 1/|slope|.  A
    piece whose image rounds to a point becomes an atom there carrying
    the piece's mass, so a constant map collapses everything onto atoms at
    its offset, which canonical form merges into one carrying the total.
    """
    s, o = m.slope, m.offset
    a_pts, wts = mu.atom_points, mu.atom_weights
    p_lo, p_hi, p_d = mu.piece_lo, mu.piece_hi, mu.piece_density
    if s < 0:  # reversed, so that the image is sorted as mu is
        a_pts, wts = a_pts[::-1], wts[::-1]
        p_lo, p_hi, p_d = p_hi[::-1], p_lo[::-1], p_d[::-1]
    pts = s * a_pts + o
    lo = s * p_lo + o
    hi = s * p_hi + o
    flat = hi <= lo
    if flat.any():
        pts = np.concatenate([pts, lo[flat]])
        width = np.abs(p_hi[flat] - p_lo[flat])
        wts = np.concatenate([wts, p_d[flat] * width[:, None]])
        lo, hi, p_d = lo[~flat], hi[~flat], p_d[~flat]
    # dividing by a slope below 1 can overflow a large density; canonical
    # form refuses the inf that results, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        p_d = p_d / abs(s)
    return VectorMeasure._from_arrays(pts, wts, lo, hi, p_d, mu.dim)


def apply_operator(r, mu: VectorMeasure) -> VectorMeasure:
    """Apply a matrix to every coefficient: (R mu)(B) = R (mu(B))."""
    r = np.asarray(r)
    if r.ndim != 2 or r.shape != (mu.dim, mu.dim):
        raise DimensionMismatch(
            f"operator shape {r.shape} does not match measure dimension {mu.dim}")
    return VectorMeasure._from_arrays(
        mu.atom_points, mu.atom_weights @ r.T,
        mu.piece_lo, mu.piece_hi, mu.piece_density @ r.T, mu.dim)


def combine(a, mu: VectorMeasure, b, nu: VectorMeasure) -> VectorMeasure:
    """Linear combination a*mu + b*nu in canonical form."""
    return VectorMeasure._from_arrays(*_summed([(a, mu), (b, nu)]))


def accumulate(measures) -> VectorMeasure:
    """Sum of a nonempty sequence of measures in one canonicalization pass."""
    return VectorMeasure._from_arrays(*_summed([(1.0, m) for m in measures]))


def _summed(terms):
    """sum of a * m over the ``(a, m)`` terms as ``(points, weights, lo,
    hi, dens, dim)``: the atoms of all terms, for canonical form to merge,
    and the pieces summed by ``_sum_runs``, one run per term."""
    if not terms:
        raise ValueError("cannot sum an empty sequence of measures")
    dim = terms[0][1].dim
    if any(m.dim != dim for _, m in terms):
        raise DimensionMismatch("measures of different dimension in sum")
    dtype = np.result_type(*(np.asarray(a) for a, _ in terms),
                           *(m.atom_weights.dtype for _, m in terms))

    def scaled(a, x):
        return x if a == 1.0 else a * x

    return (np.concatenate([m.atom_points for _, m in terms]),
            np.concatenate([scaled(a, m.atom_weights).astype(dtype)
                            for a, m in terms]),
            *_sum_runs([(m.piece_lo, m.piece_hi, scaled(a, m.piece_density))
                        for a, m in terms], dtype), dim)


def _smallest_first(contrib, tol):
    """``(order, csum)``: a prefix of the stable ascending order of
    ``contrib`` (all >= 0) and its running sums, long enough that the
    sums pass ``tol``, or all of it.

    Rather than sort everything, select the ``m`` smallest values with a
    partition and stably sort just the entries at or below the m-th, ties
    included.  Those are in index order, so their stable order is exactly
    the prefix of the full stable order; the cumulative sum is
    sequential, so its running sums are too.  ``m`` grows until the
    budget runs out inside the prefix.
    """
    n, m = len(contrib), _PRUNE_START
    while m < n:
        kth = np.partition(contrib, m)[m]
        cand = np.flatnonzero(contrib <= kth)
        order = cand[np.argsort(contrib[cand], kind="stable")]
        csum = np.cumsum(contrib[order])
        if csum[-1] > tol:
            return order, csum
        m *= 4
    order = np.argsort(contrib, kind="stable")
    return order, np.cumsum(contrib[order])


def prune(mu: VectorMeasure, tol: float) -> VectorMeasure:
    """Drop the smallest variation contributions, total dropped mass <= tol.

    Candidates (atoms and pieces) are taken in stable order of
    contribution and removed smallest-first while the running sum stays
    within the budget, so ||prune(mu) - mu|| <= tol.  Only the smallest
    contributions are ordered (a partial selection), with the same result
    as a full stable sort.  tol = 0 returns the measure unchanged.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    if tol == 0.0:
        return mu
    na = mu.n_atoms
    contrib = np.concatenate([
        _row_norms(mu.atom_weights),
        _row_norms(mu.piece_density) * (mu.piece_hi - mu.piece_lo)])
    if len(contrib) == 0:
        return mu
    order, csum = _smallest_first(contrib, tol)
    n_drop = int(np.searchsorted(csum, tol, side="right"))
    if n_drop == 0:
        return mu
    dropped = order[:n_drop]
    keep_a = np.ones(na, dtype=bool)
    keep_p = np.ones(mu.n_pieces, dtype=bool)
    keep_a[dropped[dropped < na]] = False
    keep_p[dropped[dropped >= na] - na] = False
    return VectorMeasure._from_arrays(
        mu.atom_points[keep_a], mu.atom_weights[keep_a],
        mu.piece_lo[keep_p], mu.piece_hi[keep_p], mu.piece_density[keep_p],
        mu.dim)
