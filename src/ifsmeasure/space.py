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
    spans, atoms = [], []
    for s in out:
        if s.lo < s.hi:
            spans.append(s)
        else:
            atoms.append(s.lo)
    return tuple(spans), tuple(atoms)


class QuerySet:
    """Canonical finite union of flagged intervals and isolated points."""

    __slots__ = ("spans", "atoms")

    def __init__(self, intervals=(), atoms=()):
        raw = []
        for item in intervals:
            if isinstance(item, Span):
                raw.append(item)
            else:
                t = tuple(item)
                if len(t) == 2:
                    raw.append(Span(float(t[0]), float(t[1])))
                elif len(t) == 4:
                    raw.append(Span(float(t[0]), float(t[1]), bool(t[2]), bool(t[3])))
                else:
                    raise ValueError(f"cannot interpret interval spec {item!r}")
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
        return cls(intervals=d.get("intervals", ()), atoms=d.get("atoms", ()))


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


def preimage(m: AffineMap, B: QuerySet) -> QuerySet:
    """Preimage of an evaluable set under an affine map, clipped to [0, 1].

    For slope 0 the map is constant, so the preimage is all of [0, 1] or
    empty depending on whether the constant value lies in the set.
    Endpoints that the clipping moves strictly inward become included (the
    clipped-away part was interior to the unclipped preimage).
    """
    s, o = m.slope, m.offset
    if s == 0.0:
        return QuerySet.unit() if B.contains(o) else QuerySet.empty()
    spans = []
    atoms = []
    for sp in B.spans:
        a = (sp.lo - o) / s
        b = (sp.hi - o) / s
        li, hi_ = sp.lo_incl, sp.hi_incl
        if s < 0:
            a, b, li, hi_ = b, a, hi_, li
        if b < 0.0 or a > 1.0:
            continue
        if a < 0.0:
            a, li = 0.0, True
        if b > 1.0:
            b, hi_ = 1.0, True
        spans.append(Span(a, b, li, hi_))
    for t in B.atoms:
        x = (t - o) / s
        if 0.0 <= x <= 1.0:
            atoms.append(x)
    return QuerySet(spans, atoms)

