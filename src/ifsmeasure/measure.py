"""Vector measures on [0, 1] with finite exact representations.

A measure is a finite set of Dirac atoms plus a finite set of
constant-density pieces, with coefficients in R^n or C^n:

    mu(B)  =  sum_{atoms: t_j in B} w_j  +  sum_{pieces k} d_k * len(B n I_k)

All point mass lives in atoms; pieces are absolutely continuous, so endpoint
membership of a query set never affects their contribution.  The class is
closed under affine pushforward, application of a matrix operator to the
coefficients, and linear combination, which keeps Markov-type operator
iterates exactly representable.

Canonical form: atoms sorted, only atoms at equal points merged (atoms a
rounding apart stay two, and a set between them holds one), and zero
weights dropped; pieces resolved into disjoint segments with densities
summed, zero densities dropped, and adjacent segments with exactly equal
densities merged.  Equality is structural on the canonical arrays.

Pieces are summed one way, by ``_sum_runs``: over sorted, disjoint runs
of pieces, each segment between their distinct endpoints starts at zero
and adds, in run order, the density covering it in each run, so a small
density next to a large one keeps its bits.  ``accumulate``, ``combine``,
``VectorMeasure.variation_distance`` and the mk_star distance
(``_panels``) pass their terms as the runs,
and ``markov.apply_markov`` each map's image arrays (``_image``) times
its operator, so a Markov step builds no measure but its result; raw
input that overlaps or is out of order (the constructor, ``from_dict``)
is first dealt into runs by one cut: in start order, a run begins where
a piece starts before the piece ahead of it ends.  Input already sorted
and disjoint, as ``pushforward`` and ``apply_operator`` produce it, keeps
its coefficients: only zero rows go, and equal contiguous pieces merge.
``prune`` skips canonicalisation: what it keeps of a canonical measure
is canonical, and a kind it drops nothing of keeps its arrays.  A sum
that overflows raises ValueError.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionMismatch
from .hilbert import _field_cast, _row_norms, _rows_differ
from .space import AffineMap, QuerySet, _span_rows

__all__ = ["VectorMeasure", "pushforward", "apply_operator", "combine",
           "accumulate", "prune"]

# size of the first partial selection in prune; it grows fourfold until
# the budget runs out inside it
_PRUNE_START = 1 << 17


def _take(idx, *arrays):
    """The arrays' rows at ``idx``, an index array or a boolean mask (the
    arrays themselves if it keeps every row), by ``take`` along the first
    axis: several times faster than indexing 2-D rows by either."""
    if idx.dtype == bool:
        if idx.all():
            return arrays
        idx = np.flatnonzero(idx)
    return tuple(a.take(idx, axis=0) for a in arrays)


def _unique(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)`` to the bit (-0.0 or 0.0 as its sort leaves them),
    sorting ``a`` in place: no copy, and no ``numpy.ma`` import, which
    ``np.unique`` does on its first call."""
    a.sort()
    return _take(np.concatenate(([True], a[1:] != a[:-1]))[:len(a)], a)[0]


def _variation(wts, lo, hi, dens) -> float:
    """The variation norm of canonical coefficient arrays."""
    return (float(_row_norms(wts).sum())
            + float((_row_norms(dens) * (hi - lo)).sum()))


def _canonical_atoms(points, weights):
    if len(points) > 1 and not np.all(points[1:] > points[:-1]):
        p, w = _take(np.argsort(points, kind="stable"), points, weights)
        idx = np.flatnonzero(np.concatenate(([True], p[1:] != p[:-1])))
        points, weights = p.take(idx), np.add.reduceat(w, idx, axis=0)
    return _take(_rows_differ(weights, 0), points, weights)


def _covering(lo, hi, dens, left):
    """``(a, rows)``: for the sorted points ``left[a:a + len(rows)]`` in the
    span of the sorted, disjoint, nonempty run ``(lo, hi, dens)``, whose
    starts are among the points, the density of the piece each lies in,
    by a mark at each start and a cumulative sum; a point in a gap takes
    one zero row appended to ``dens``.  A run whose span holds no points
    but its starts, and a one-piece run, need neither: their rows are
    ``dens`` itself and its one row broadcast."""
    a, b = np.searchsorted(left, (lo[0], hi[-1]))
    if b - a == len(lo):  # the points are the starts: one piece each
        return a, dens
    if len(lo) == 1:
        return a, np.broadcast_to(dens, (b - a, dens.shape[1]))
    k = np.zeros(b - a, dtype=np.intp)
    k[np.searchsorted(left[a:b], lo[1:])] = 1
    np.cumsum(k, out=k)
    np.putmask(k, hi.take(k) <= left[a:b], len(lo))
    return a, np.concatenate([dens, np.zeros_like(dens[:1])]).take(k, axis=0)


def _sum_runs(runs, dtype):
    """``(lo, hi, dens)``: the sum of sorted, disjoint runs of pieces.

    Each segment between the runs' distinct endpoints starts at zero and
    adds, in run order, the density covering it in each run (zero in a
    gap adds exactly), so it is rounded once per covering piece.  Zero
    segments are dropped; an overflow comes out inf or nan.
    """
    # each run's ends lo_0, hi_0, lo_1, ... are sorted; a timsort merges them
    ends = np.empty(2 * sum(len(r[0]) for r in runs),
                    dtype=np.result_type(*[r[0] for r in runs]))
    i = 0
    for lo, hi, _ in runs:
        ends[i:i + 2 * len(lo):2], ends[i + 1:i + 2 * len(lo):2] = lo, hi
        i += 2 * len(lo)
    ends.sort(kind="stable")
    first = np.ones(len(ends), dtype=bool)
    np.not_equal(ends[1:], ends[:-1], out=first[1:])
    (events,) = _take(first, ends)
    del ends
    left = events[:-1]
    dens = np.zeros((len(left), runs[0][2].shape[1]), dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, d in runs:
            if len(lo):
                a, rows = _covering(lo, hi, d, left)
                dens[a:a + len(rows)] += rows
    return _take(_rows_differ(dens, 0), left, events[1:], dens)


def _sum_overlapping(lo, hi, dens):
    """Disjoint segments and summed densities of unsorted or overlapping
    pieces.  In stable start order, a run begins wherever a piece starts
    before the piece ahead of it ends, so the runs are sorted, disjoint
    and grouped; they are summed pairwise, round after round.  Each round
    is one ``_sum_runs`` call: an endpoint's key is run * M + its rank
    among the M distinct endpoints, shifted to pair * M for the round, so
    the pairs lie apart.  R runs take ceil(log2 R) rounds, and S pieces
    O(S log S) time.
    """
    lo, hi, dens = _take(np.argsort(lo, kind="stable"), lo, hi, dens)
    run = np.zeros(len(lo), dtype=np.int64)
    np.cumsum(lo[1:] < hi[:-1], out=run[1:])
    events = _unique(np.concatenate([lo, hi]))
    m = len(events)
    k_lo = run * m + np.searchsorted(events, lo)
    k_hi = run * m + np.searchsorted(events, hi)
    while len(run) and run[-1] > 0:
        shift, even = (run - run // 2) * m, run % 2 == 0
        k_lo, k_hi, dens = _sum_runs(
            [_take(s, k_lo - shift, k_hi - shift, dens) for s in (even, ~even)],
            dens.dtype)
        run = k_lo // m
    return events[k_lo % m], events[k_hi % m], dens


def _canonical_pieces(lo, hi, dens):
    lo, hi, dens = _take((hi > lo) & _rows_differ(dens, 0), lo, hi, dens)
    if np.any(lo[1:] < hi[:-1]):  # out of order or overlapping
        lo, hi, dens = _sum_overlapping(lo, hi, dens)
    return _merged_pieces(lo, hi, dens)


def _merged_pieces(lo, hi, dens):
    """Sorted, disjoint pieces with each run of contiguous pieces carrying
    bitwise-equal densities merged into one."""
    contiguous = lo[1:] == hi[:-1]
    same = ~_rows_differ(dens[1:], dens[:-1])
    starts = np.concatenate(([True], ~(contiguous & same)))
    if starts.all():
        return lo, hi, dens
    idx = np.flatnonzero(starts)
    ends = np.concatenate((idx[1:], [len(lo)])) - 1
    return lo.take(idx), hi.take(ends), dens.take(idx, axis=0)


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
        self._hold(pts, wts, lo, hi, dens, dim)

    def _hold(self, pts, wts, lo, hi, dens, dim):
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
        inside by a difference of piece-mass prefix sums.  Each set starts
        at zero and adds, by ``np.add.at``, its span atoms, then its
        points, then its span pieces.
        """
        if owner is None:
            owner, n = np.arange(len(lo)), len(lo)
        out = np.zeros((n, self.dim), dtype=self.atom_weights.dtype)
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
            np.add.at(out, owner,
                      prefix.take(a1, axis=0) - prefix.take(a0, axis=0))
            i = np.minimum(np.searchsorted(pts, q), len(pts) - 1)
            hit = pts[i] == q
            np.add.at(out, q_owner[hit], wts.take(i[hit], axis=0))
        if self.n_pieces and len(span):
            p_lo, p_hi, dens = self.piece_lo, self.piece_hi, self.piece_density
            first = np.searchsorted(p_hi, lo, side="right")  # ends after lo
            stop = np.searchsorted(p_lo, hi, side="left")    # starts before hi
            last = stop - 1
            meets = np.flatnonzero(stop > first)
            first, last = first[meets], last[meets]
            lo, hi = lo[meets], hi[meets]

            def end_piece(k):
                ov = np.minimum(p_hi[k], hi) - np.maximum(p_lo[k], lo)
                return dens.take(k, axis=0) * ov[:, None]

            # a span over several pieces adds the ones inside, then the last
            val, inner = end_piece(first), (last > first)[:, None]
            np.add(val, mass.take(last, axis=0) - mass.take(first + 1, axis=0),
                   out=val, where=inner)
            np.add(val, end_piece(last), out=val, where=inner)
            np.add.at(out, owner[meets], val)
        return out

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
        return _variation(*_parts(self)[1:])

    def variation_distance(self, other: "VectorMeasure") -> float:
        """``(self - other).variation_norm()`` without building the difference.

        Atoms and pieces are summed as ``combine`` sums them, other's
        coefficients negated, but no measure is built: each segment adds
        ||d_self - d_other|| * width, its difference rounded once, to the
        bit the density of ``self - other``.  Swapping the operands negates
        every difference, so the distance is bitwise the same.  A
        difference that overflows raises ValueError.
        """
        pts, wts, lo, hi, dens, _ = _linear([(1.0, self), (-1.0, other)])
        with np.errstate(over="ignore", invalid="ignore"):
            _, wts = _canonical_atoms(pts, wts)
        if not (np.isfinite(wts).all() and np.isfinite(dens).all()):
            raise ValueError("a coefficient overflows to a non-finite value")
        return _variation(wts, lo, hi, dens)

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
        out += atoms.take(np.searchsorted(self.atom_points, ts, side="right"),
                          axis=0)
        if self.n_pieces:
            k = np.maximum(np.searchsorted(self.piece_lo, ts, side="right") - 1, 0)
            lo, hi, mass, dens = _take(k, self.piece_lo, self.piece_hi, mass,
                                       self.piece_density)
            inside = np.clip(ts - lo, 0.0, hi - lo)  # 0 before lo_0
            out += mass + dens * inside[:, None]
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
        return _unique(np.concatenate(
            [self.atom_points, self.piece_lo, self.piece_hi, [0.0, 1.0]]))

    def panels(self):
        """``(bps, F, rho)``: the breakpoints, ``F = cumulative_all(bps)``
        and the density ``rho[j]`` on the open panel (bps[j], bps[j+1]),
        so F(t) = F[j] + (t - bps[j]) rho[j] inside it (``_panels``).
        """
        return _panels(self)[:3]

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


def _parts(m: VectorMeasure, a=1.0):
    """``a * m`` as arrays ``(points, weights, lo, hi, dens)``."""
    if a == 1.0:
        return (m.atom_points, m.atom_weights, m.piece_lo, m.piece_hi,
                m.piece_density)
    return (m.atom_points, a * m.atom_weights, m.piece_lo, m.piece_hi,
            a * m.piece_density)


def _image(m: AffineMap, mu: VectorMeasure):
    """``pushforward(m, mu)`` as arrays ``(points, weights, lo, hi,
    dens)``, in canonical form but for non-finite coefficients.

    Atoms that rounding sends to one point merge, and so do contiguous
    pieces of equal density (a piece flattened between two): an operator
    applied to these arrays then multiplies exactly the arrays of
    ``pushforward``'s measure, whose product may round otherwise with
    another row count (one row takes another BLAS path).
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
        f_lo, f_plo, f_phi, f_d = _take(flat, lo, p_lo, p_hi, p_d)
        pts = np.concatenate([pts, f_lo])
        wts = np.concatenate([wts, f_d * np.abs(f_phi - f_plo)[:, None]])
        lo, hi, p_d = _take(~flat, lo, hi, p_d)
    # dividing by a slope below 1 can overflow a large density, and so can
    # merging atoms; canonical form refuses the inf that results, so numpy
    # need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        p_d = p_d / abs(s)
        pts, wts = _canonical_atoms(pts, wts)
    return (pts, wts, *_merged_pieces(lo, hi, p_d))


def _operated(r, pts, wts, lo, hi, dens):
    """The arrays with ``r`` applied to every coefficient, less the atoms
    it sends to zero, as canonical form drops them."""
    # a product can overflow; canonical form refuses the inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        wts, dens = wts @ r.T, dens @ r.T
    return (*_take(_rows_differ(wts, 0), pts, wts), lo, hi, dens)


def pushforward(m: AffineMap, mu: VectorMeasure) -> VectorMeasure:
    """Image measure under an affine map: (pushforward mu)(B) = mu(preimage B).

    Atoms move to their image points; densities rescale by 1/|slope|.  A
    piece whose image rounds to a point becomes an atom there carrying
    the piece's mass, so a constant map collapses everything onto atoms at
    its offset, which canonical form merges into one carrying the total.
    """
    return VectorMeasure._from_arrays(*_image(m, mu), mu.dim)


def apply_operator(r, mu: VectorMeasure) -> VectorMeasure:
    """Apply a matrix to every coefficient: (R mu)(B) = R (mu(B))."""
    r = np.asarray(r)
    if r.ndim != 2 or r.shape != (mu.dim, mu.dim):
        raise DimensionMismatch(
            f"operator shape {r.shape} does not match measure dimension {mu.dim}")
    return VectorMeasure._from_arrays(*_operated(r, *_parts(mu)), mu.dim)


def combine(a, mu: VectorMeasure, b, nu: VectorMeasure) -> VectorMeasure:
    """Linear combination a*mu + b*nu in canonical form."""
    return VectorMeasure._from_arrays(*_linear([(a, mu), (b, nu)]))


def accumulate(measures) -> VectorMeasure:
    """Sum of a nonempty sequence of measures in one canonicalization pass."""
    return VectorMeasure._from_arrays(*_linear([(1.0, m) for m in measures]))


def _summed(parts, dtype=None):
    """The sum of ``(points, weights, lo, hi, dens)`` parts as those five
    arrays: the atoms of all parts, for canonical form to merge, and the
    pieces summed by ``_sum_runs``, one run per part.  ``dtype`` defaults
    to the parts' common coefficient type."""
    if dtype is None:
        dtype = np.result_type(*{p[1].dtype for p in parts})
    return (np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts], dtype=dtype),
            *_sum_runs([p[2:] for p in parts], dtype))


def _linear(terms):
    """sum of a * m over the ``(a, m)`` terms as ``(points, weights, lo,
    hi, dens, dim)``, by ``_summed``."""
    if not terms:
        raise ValueError("cannot sum an empty sequence of measures")
    dim = terms[0][1].dim
    if any(m.dim != dim for _, m in terms):
        raise DimensionMismatch("measures of different dimension in sum")
    dtype = np.result_type(*{np.asarray(a).dtype for a, _ in terms},
                           *{m.atom_weights.dtype for _, m in terms})
    return (*_summed([_parts(m, a) for a, m in terms], dtype), dim)


def _panels(mu: VectorMeasure, nu: VectorMeasure | None = None):
    """``(bps, F, rho, (wts, lo, hi, dens))``: ``VectorMeasure.panels`` of
    mu - nu (of mu when nu is None) and its coefficients, one weight row
    per breakpoint, read off one stable merge of the atom points, the ends
    of the pieces ``combine`` would make, 0 and 1.  A canonical measure
    holds a point once, so a run of equal keys starts with its atoms, mu's
    then nu's negated, whose sum is ``combine``'s weight; a run of atoms
    that cancel is no breakpoint.  A panel lies in the last piece started
    before it unless that piece has ended.
    """
    nu = VectorMeasure.zero(mu.dim, mu.field) if nu is None else nu
    if nu.dim != mu.dim:
        raise DimensionMismatch("measures of different dimension in sum")
    dtype = np.result_type(mu.atom_weights, nu.atom_weights)
    lo, hi, dens = mu.piece_lo, mu.piece_hi, mu.piece_density.astype(dtype, copy=False)
    if nu.n_pieces:  # else mu's canonical pieces are the sum
        lo, hi, dens = _merged_pieces(*_sum_runs(
            [(lo, hi, dens), (nu.piece_lo, nu.piece_hi, -nu.piece_density)], dtype))
    keys = np.concatenate([mu.atom_points, nu.atom_points, lo, hi, [0.0, 1.0]])
    order = np.argsort(keys, kind="stable")
    keys = keys.take(order)
    run = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    last = np.append(run[1:], len(keys)) - 1
    # the atoms' rows, a zero row for every other key, and one more that
    # a run of one key adds as its second row
    wts, n = np.zeros((len(keys) + 1, mu.dim), dtype), mu.n_atoms + nu.n_atoms
    wts[:mu.n_atoms] = mu.atom_weights
    np.negative(nu.atom_weights, out=wts[mu.n_atoms:n])
    with np.errstate(over="ignore", invalid="ignore"):
        w = wts.take(order.take(run), axis=0) + wts.take(
            np.where(last > run, order.take(run + 1, mode="clip"), len(keys)), axis=0)
    if not (np.isfinite(w).all() and np.isfinite(dens).all()):
        raise ValueError("a coefficient overflows to a non-finite value")
    bps, w, last = _take(_rows_differ(w, 0) | (order.take(last) >= n),
                         keys.take(run), w, last)
    F = np.cumsum(w, axis=0) + 0.0  # as zeros + prefix: -0.0 reads 0.0
    rho = np.zeros((len(bps) - 1, mu.dim), dtype=dtype)
    if len(lo):
        k = np.cumsum((order >= n) & (order < n + len(lo))).take(last) - 1
        mass = np.cumsum(np.concatenate([rho[:1], dens * (hi - lo)[:, None]]), axis=0)
        j = np.maximum(k, 0)
        F += mass.take(j, axis=0) + dens.take(j, axis=0) * np.clip(
            bps - lo.take(j), 0.0, hi.take(j) - lo.take(j))[:, None]
        rho = np.concatenate([dens, rho[:1]]).take(
            np.where((k >= 0) & (bps < hi.take(k)), k, len(lo))[:-1], axis=0)
    return bps, F, rho, (w, lo, hi, dens)


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
    as a full stable sort.  tol = 0 returns the measure unchanged; a
    negative or NaN tol raises ValueError.  The result holds ``mu``'s
    arrays where nothing of a kind is dropped, and its rows otherwise.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")
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
    keep = np.ones(len(contrib), dtype=bool)
    keep[order[:n_drop]] = False
    # a subset of canonical form is canonical: still sorted, disjoint and
    # nonzero, and a dropped piece leaves a gap, so no neighbours merge
    out = VectorMeasure.__new__(VectorMeasure)
    out._hold(*_take(keep[:na], mu.atom_points, mu.atom_weights),
              *_take(keep[na:], mu.piece_lo, mu.piece_hi, mu.piece_density),
              mu.dim)
    return out
