"""The unit interval as base space: evaluable sets and affine self-maps.

Evaluable sets are finite unions of subintervals plus finitely many isolated
points.  Endpoint inclusion is tracked exactly: constant-density pieces of a
measure never see endpoints, but Dirac atoms do, so ``[0, b]`` and
``(0, b]`` must stay distinct.  The family is closed under preimages of
affine maps, which is what makes exact set-evaluation of invariant measures
possible.

``QuerySet`` keeps its sets in a canonical form: spans sorted and maximal,
no two touching at a closed end, and isolated points only where no span
reaches.  One sorted sweep builds it.  Each point enters as the closed
degenerate span ``[a, a]`` (a half-open degenerate span is empty and
dropped), so absorbing a point and merging touching spans are one step.
Sorting by ``(lo, not lo_incl, hi)`` puts a closed start before an open
one at the same point, so the sweep never has to merge backwards; closed
degenerate spans left at the end are the points.  Canonical form is
unique for a given point set, so equality is structural and sets can be
memoized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = ["Span", "QuerySet", "AffineMap", "preimage"]


class Span(NamedTuple):
    """Interval with endpoint-inclusion flags; building block of QuerySet."""
    lo: float
    hi: float
    lo_incl: bool = True
    hi_incl: bool = True

    def contains(self, t: float) -> bool:
        if self.lo < t < self.hi:
            return True
        if t == self.lo and self.lo_incl:
            return True
        if t == self.hi and self.hi_incl:
            return True
        return False


def _canonicalize(raw_spans, raw_atoms):
    items = []
    for s in raw_spans:
        lo, hi, lo_incl, hi_incl = s
        if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0):
            raise ValueError(f"span outside [0, 1]: {s}")
        if lo > hi:
            raise ValueError(f"span with lo > hi: {s}")
        if lo < hi or (lo_incl and hi_incl):
            items.append(s)
    for a in raw_atoms:
        if not (0.0 <= a <= 1.0):
            raise ValueError(f"point outside [0, 1]: {a!r}")
        items.append(Span(a, a))
    items.sort(key=lambda s: (s.lo, not s.lo_incl, s.hi))
    out = []
    for s in items:
        if out:
            lo, hi, lo_incl, hi_incl = out[-1]
            if s.lo < hi or (s.lo == hi and (s.lo_incl or hi_incl)):
                if s.hi > hi:
                    out[-1] = Span(lo, s.hi, lo_incl, s.hi_incl)
                elif s.hi == hi and s.hi_incl and not hi_incl:
                    out[-1] = Span(lo, hi, lo_incl, True)
                continue
        out.append(s)
    return (tuple(s for s in out if s.lo < s.hi),
            tuple(s.lo for s in out if s.lo == s.hi))


class QuerySet:
    """Canonical finite union of flagged intervals and isolated points."""

    __slots__ = ("spans", "atoms")

    def __init__(self, intervals=(), atoms=()):
        raw = []
        for item in intervals:  # a Span, or (lo, hi) with flags or without
            t = tuple(item)
            if len(t) not in (2, 4):
                raise ValueError(f"cannot interpret interval spec {item!r}")
            raw.append(Span(float(t[0]), float(t[1]), *map(bool, t[2:])))
        spans, pts = _canonicalize(raw, [float(a) for a in atoms])
        object.__setattr__(self, "spans", spans)
        object.__setattr__(self, "atoms", pts)

    def __setattr__(self, name, value):
        raise AttributeError("QuerySet is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def empty(cls) -> "QuerySet":
        return cls()

    @classmethod
    def unit(cls) -> "QuerySet":
        return cls(intervals=[(0.0, 1.0)])

    @classmethod
    def closed(cls, lo: float, hi: float) -> "QuerySet":
        return cls(intervals=[(lo, hi)])

    @classmethod
    def open(cls, lo: float, hi: float) -> "QuerySet":
        return cls(intervals=[(lo, hi, False, False)])

    @classmethod
    def point(cls, t: float) -> "QuerySet":
        return cls(atoms=[t])

    # -- queries ------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.spans and not self.atoms

    def contains(self, t: float) -> bool:
        return any(s.contains(t) for s in self.spans) or t in self.atoms

    # -- identity -----------------------------------------------------

    def _key(self):
        return (self.spans, self.atoms)

    def __eq__(self, other):
        return isinstance(other, QuerySet) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        parts = []
        for s in self.spans:
            parts.append(f"{'[' if s.lo_incl else '('}{s.lo:g}, {s.hi:g}{']' if s.hi_incl else ')'}")
        parts.extend(f"{{{a:g}}}" for a in self.atoms)
        return "QuerySet(" + " u ".join(parts) + ")" if parts else "QuerySet(empty)"

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "intervals": [[s.lo, s.hi, s.lo_incl, s.hi_incl] for s in self.spans],
            "atoms": list(self.atoms),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "QuerySet":
        """The set of a JSON document, whose ends and points must be numbers
        and flags booleans; a ValueError names any other value."""
        intervals, atoms = d.get("intervals", []), d.get("atoms", [])
        for item in intervals:
            if not (isinstance(item, list) and len(item) in (2, 4)
                    and all(isinstance(f, bool) for f in item[2:])):
                raise ValueError(f"cannot interpret interval spec {item!r}")
        for v in [x for item in intervals for x in item[:2]] + list(atoms):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"a query set's end or point must be a "
                                 f"number, got {v!r}")
        return cls(intervals=intervals, atoms=atoms)


@dataclass(frozen=True)
class AffineMap:
    """Affine self-map t -> slope*t + offset of [0, 1]."""
    slope: float
    offset: float

    def __post_init__(self):
        # the image ends as pushforward computes them
        if not all(0.0 <= self(t) <= 1.0 for t in (0.0, 1.0)):
            raise ValueError(f"map does not send [0, 1] into itself: {self}")

    def __call__(self, t: float) -> float:
        return self.slope * t + self.offset

    @property
    def lipschitz(self) -> float:
        return abs(self.slope)


def _span_rows(sets):
    """The sets as flat rows of single spans and points: ``(lo, hi,
    lo_incl, hi_incl, owner)``, every set's spans first, then every set's
    points as closed degenerate spans, ``owner`` the set's position.  A
    measure of a set is the sum over its rows, which are disjoint."""
    rows = [s for B in sets for s in B.spans]
    owner = [j for j, B in enumerate(sets) for _ in B.spans]
    rows += [(a, a, True, True) for B in sets for a in B.atoms]
    owner += [j for j, B in enumerate(sets) for _ in B.atoms]
    table = np.array(rows, dtype=float).reshape(-1, 4)
    return (table[:, 0], table[:, 1], table[:, 2] != 0.0, table[:, 3] != 0.0,
            np.array(owner, dtype=np.intp))


# preimage ends move at most this many ulps to agree with the forward map
_NUDGE = 4


@np.errstate(over="ignore")  # a tiny slope sends far ends to inf: clipped
def _preimage_rows(slope, offset, lo, hi, lo_incl, hi_incl):
    """Preimages of single spans and points under t -> slope t + offset,
    clipped to [0, 1]; every argument broadcasts, so one call takes a
    column of maps against a row of spans.

    Returns ``(lo, hi, lo_incl, hi_incl, keep)``; ``keep`` is False where
    the preimage is empty.  A constant map (0 and 1 map to one float) pulls
    a span back to all of [0, 1] if the span holds its value, else to nothing.
    A closed end of (end - offset)/slope moves at most four ulps toward
    the float where the map as ``pushforward`` rounds it, fl(fl(slope x)
    + offset), enters or leaves the span: t/3 + 2/3 sends 1 to 1, and the
    preimage of [a, 1] ends at 1, not at 1 + 2 ulps.  A crossing farther
    off is not reached, and an atom between it and the end can have its
    image in the span but not be in the preimage.  Open ends stay where
    the division puts them.  A point pulls back to a
    point, moved into the floats the map sends onto it if any are that
    near, and to nothing when no float there maps onto it.  Ends that the
    clipping moves strictly inward become included (the clipped-away part
    was interior to the unclipped preimage); a span whose ends round
    together is a point when closed and empty otherwise.
    """
    const = slope + offset == offset
    inside = (((lo < offset) & (offset < hi)) | ((offset == lo) & lo_incl)
              | ((offset == hi) & hi_incl))
    s = np.where(const, 1.0, slope)
    neg = s < 0.0
    # the span ends, and their flags, that bound the preimage from below
    # and from above, stacked
    t = np.stack(np.broadcast_arrays(np.where(neg, hi, lo),
                                     np.where(neg, lo, hi)))
    incl = np.stack(np.broadcast_arrays(np.where(neg, hi_incl, lo_incl),
                                        np.where(neg, lo_incl, hi_incl)))
    ends = x0 = (t - offset) / s
    both = (2,) + (1,) * (t.ndim - 1)
    out = np.array([-np.inf, np.inf]).reshape(both)
    # an image passes the lower bounding end (d = 1 along the map's
    # direction), or falls short of the upper one (d = -1)
    d = np.array([1.0, -1.0]).reshape(both) * np.where(neg, -1.0, 1.0)

    def ok(x):
        f = s * x + offset
        return (d * f > d * t) | (incl & (f == t))

    for _ in range(_NUDGE):
        step_in, step_out = ~ok(ends), ok(np.nextafter(ends, out))
        if not (step_in | step_out).any():
            break
        ends = np.where(step_in, np.nextafter(ends, -out),
                        np.where(step_out, np.nextafter(ends, out), ends))
    (a, b), (a0, b0), (li, ri) = ends, x0, incl
    point = lo == hi
    empty = point & (a > b)
    a = np.where(point, np.clip(a0, a, b), np.where(li, a, a0))
    b = np.where(point, a, np.where(ri, b, b0))
    li, ri = li | (a < 0.0), ri | (b > 1.0)
    keep = (b >= 0.0) & (a <= 1.0) & ~empty
    a, b = np.where(a < 0.0, 0.0, a), np.where(b > 1.0, 1.0, b)
    keep &= (a < b) | (li & ri)
    return (np.where(const, 0.0, a), np.where(const, 1.0, b), li | const,
            ri | const, np.where(const, inside, keep))


def preimage(m: AffineMap, B: QuerySet) -> QuerySet:
    """Preimage of an evaluable set under an affine map, clipped to [0, 1]:
    the union of the preimages of its spans and points
    (``_preimage_rows``)."""
    lo, hi, li, ri, _ = _span_rows([B])
    lo, hi, li, ri, keep = _preimage_rows(m.slope, m.offset, lo, hi, li, ri)
    return QuerySet(zip(lo[keep].tolist(), hi[keep].tolist(),
                        li[keep].tolist(), ri[keep].tolist()))
