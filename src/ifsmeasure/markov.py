"""Markov-type operators from iterated function systems with operator weights.

A system pairs contractive affine self-maps omega_i of [0, 1] with matrices
R_i on the coefficient space, plus a base measure mu0, zero when none is
given.  The operator acts on vector measures by

    M(nu)  =  sum_i R_i (pushforward(omega_i, nu))  +  mu0

and its dual acts on integrands by f -> sum_i adjoint(R_i) f(omega_i(t)),
related through the change-of-variables identity

    integral f d(M nu)  =  integral (dual f) d nu  +  integral f dmu0.

Three contraction factors govern convergence, one per norm: the variation
factor sum ||R_i||, the bounded-Lipschitz factor sum ||R_i|| (1 + r_i), and
the Lipschitz-ball factor sum ||R_i|| r_i, where r_i is the map's
contraction ratio.  Two solvers compute the fixed point: contraction
iteration, one certified loop in the metric the system decides (variation
when its factor is below one, else mk_star for operators that sum to the
identity), and evaluation on query sets over the transition graph their
preimages generate.  That graph is one for all the sets of a call: its
nodes are single spans and points in flat arrays, each round expands a
weight-ranked frontier under every map in one numpy pass, one backward
sweep of the cut exposure certifies every set's truncation bound, and
block sweeps whose stop the variation factor certifies solve all nodes
at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .exceptions import (DimensionMismatch, FieldMismatch, IterationLimit,
                         NotContractive)
from .hilbert import (_EPS, _as_operator, _field_cast, _norm, _pairings,
                      _row_norms, operator_norm)
from .integral import ContinuousFunction
# pushforward, apply_operator, accumulate and preimage are unused here;
# bench/tracing.py wraps them at these bindings
from .measure import (VectorMeasure, _image, _operated, _parts, _summed,
                      accumulate, apply_operator, prune, pushforward)
from .mk_norm import mk_star_exact
from .space import AffineMap, QuerySet, _preimage_rows, _span_rows, preimage

__all__ = ["IFSystem", "ContractionFactors", "FixedPointResult", "EvalResult",
           "factors", "apply_markov", "dual_apply", "iterate_fixed_point",
           "eval_fixed_point", "eval_many", "residual"]

_MASS_TOL = 1e-12
# set evaluation refuses tolerances that need more Jacobi sweeps than this
_MAX_SWEEPS = 10_000
# refuse, rather than exhaust memory, when the exact representation of an
# iterate outgrows what pruning keeps in check (components multiply by the
# map count per step until whole generations fall under the prune budget)
_MAX_COMPONENTS = 2_000_000
# set evaluation refuses, rather than exhaust memory, past this many nodes
_MAX_NODES = 100_000
# set evaluation stops exploring once its truncation bound fits in this
# share of tol; the sweeps get the rest
_TRUNC_SHARE = 0.5
# the truncation certificate may exceed the cut nodes' path weight by this
# share of the budget it is checked against
_CUT_SLACK = 1e-3


def _check_size(sys: IFSystem, cur: VectorMeasure, k: int) -> None:
    # before step k allocates: apply_markov concatenates one image of cur
    # per map, plus the base, before canonicalizing
    n = (len(sys.maps) * (cur.n_atoms + cur.n_pieces)
         + sys.base.n_atoms + sys.base.n_pieces)
    if n > _MAX_COMPONENTS:
        raise IterationLimit(
            f"iterate {k} would hold {n} atoms/pieces (cap {_MAX_COMPONENTS}); "
            "the tolerance asks for more steps than the exact representation "
            "supports -- loosen tol or reduce the number of maps")


class IFSystem:
    """Affine maps paired with operator weights and a base measure.

    ``base`` is a measure, zero when none is given.  ``norms`` holds the
    operator norm ||R_i|| of each weight, computed once here; a
    non-finite operator entry raises ValueError.
    """

    __slots__ = ("maps", "operators", "norms", "base", "dim", "field")

    def __init__(self, maps, operators, base: Optional[VectorMeasure] = None,
                 dim: Optional[int] = None, field: Optional[str] = None):
        maps = tuple(m if isinstance(m, AffineMap) else AffineMap(*m)
                     for m in maps)
        if not maps:
            raise ValueError("a system needs at least one map")
        ops = [_as_operator(r) for r in operators]
        if len(ops) != len(maps):
            raise ValueError(f"{len(maps)} maps but {len(ops)} operators")
        if dim is None:
            dim = ops[0].shape[0]
        if any(a.shape != (dim, dim) for a in ops):
            raise DimensionMismatch("operators of inconsistent dimension")
        if field is None and base is not None and base.field == "complex":
            field = "complex"
        field, ops = _field_cast(ops, field, "operator in a real system")
        if base is None:
            base = VectorMeasure.zero(dim, field)
        if base.dim != dim:
            raise DimensionMismatch(
                f"base dimension {base.dim} differs from system dimension {dim}")
        if field == "real" and base.field == "complex":
            raise FieldMismatch("complex base measure in a real system")
        for b in ops:
            b.setflags(write=False)
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "operators", tuple(ops))
        object.__setattr__(self, "norms", tuple(operator_norm(b) for b in ops))
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("IFSystem is immutable")

    def __repr__(self):
        base = "no" if self.base.is_zero() else "yes"
        return (f"IFSystem({len(self.maps)} maps, dim={self.dim}, "
                f"field={self.field}, base={base})")


@dataclass(frozen=True)
class ContractionFactors:
    """Operator-norm bounds of the Markov operator in the three metrics."""
    variation: float
    mk: float
    mk_star: float


def factors(sys: IFSystem) -> ContractionFactors:
    """(variation, mk, mk_star) contraction factors of the system."""
    e = d = c = 0.0
    for m, nrm in zip(sys.maps, sys.norms):
        ratio = m.lipschitz
        e += nrm
        d += nrm * (1.0 + ratio)
        c += nrm * ratio
    return ContractionFactors(e, d, c)


def apply_markov(sys: IFSystem, nu: VectorMeasure) -> VectorMeasure:
    """One application of the Markov-type operator (base included).

    One array pass: each map's image arrays (``measure._image``) times
    its operator, and the base, are summed as runs by one ``_summed`` and
    put in canonical form once.  The result is the measure that
    ``accumulate`` gives of ``apply_operator(R_i, pushforward(omega_i,
    nu))`` and the base, to the bit, without building those measures.
    """
    if nu.dim != sys.dim:
        raise DimensionMismatch(
            f"measure dimension {nu.dim} differs from system dimension {sys.dim}")
    parts = [_operated(r, *_image(m, nu))
             for m, r in zip(sys.maps, sys.operators)]
    parts.append(_parts(sys.base))
    return VectorMeasure._from_arrays(*_summed(parts), nu.dim)


def dual_apply(sys: IFSystem, f: ContinuousFunction) -> ContinuousFunction:
    """Dual action on integrands: t -> sum_i adjoint(R_i) f(omega_i(t)).

    Certified bounds travel along: the sup bound scales by the variation
    factor and the Lipschitz bound by the mk_star factor.
    """
    if f.dim != sys.dim:
        raise DimensionMismatch(
            f"function dimension {f.dim} differs from system dimension {sys.dim}")

    def g(t, _ops=sys.operators, _maps=sys.maps, _f=f):
        out = None
        for r, m in zip(_ops, _maps):
            # entry i of adjoint(R) v is (v, R e_i): v paired with column i
            v = _pairings(_f(m(t))[:, None, :], r.T)
            out = v if out is None else out + v
        return out

    fac = factors(sys)
    lip = None if f.lip_bound is None else fac.mk_star * f.lip_bound
    return ContinuousFunction(g, dim=f.dim, sup_bound=fac.variation * f.sup_bound,
                              lip_bound=lip)


def _metric(sys: IFSystem):
    """``(norm, q, distance)``: the metric in which the system contracts,
    its factor q < 1 and the distance of two measures in it;
    NotContractive when there is none.

    The variation norm when its factor is < 1, with
    ``VectorMeasure.variation_distance``, which builds no difference
    measure.  Otherwise only a system that preserves mass (sum_i R_i = I
    within 1e-12) can contract: in mk_star, with ``mk_star_exact`` of the
    two measures, which reads the difference off one merge of them.  That
    metric only controls measures of equal total mass, so the base must
    have zero total.  Variation goes first: inside the 1e-12 band a system
    can lose mass (variation factor just below 1, fixed point zero), and
    mk_star would certify a measure of the wrong total there.
    """
    fac = factors(sys)
    if fac.variation < 1.0:
        return "variation", fac.variation, VectorMeasure.variation_distance
    op_sum = np.sum(np.stack(sys.operators), axis=0)
    if np.abs(op_sum - np.eye(sys.dim)).max() > _MASS_TOL:
        raise NotContractive(
            f"variation factor {fac.variation:.6g} >= 1; iteration will "
            "not certify (the operators do not sum to the identity, so "
            "the mk_star metric does not apply)")
    if fac.mk_star >= 1.0:
        raise NotContractive(
            f"mk_star factor {fac.mk_star:.6g} >= 1 for a mass-preserving system")
    if _norm(sys.base.total()) > _MASS_TOL:
        raise NotContractive(
            "mk_star iteration with a base measure requires the base "
            "to have zero total mass")
    return "mk_star", fac.mk_star, mk_star_exact


def residual(sys: IFSystem, mu: VectorMeasure) -> float:
    """Distance of M(mu) from mu in the metric the system decides
    (``_metric``), zero exactly at the fixed point.  Neither distance
    builds the difference: the image stays alive through the merge, whose
    one weight buffer holds less than building the difference did."""
    return _metric(sys)[2](apply_markov(sys, mu), mu)


@dataclass(frozen=True)
class FixedPointResult:
    measure: VectorMeasure
    iterations: int
    error_bound: float
    norm: str
    # measure.total(), as the rounding-drift check computed it
    total: np.ndarray


def iterate_fixed_point(sys: IFSystem, start: VectorMeasure, tol: float = 1e-8,
                        max_iter: int = 200) -> FixedPointResult:
    """Contraction iteration to the fixed point with a certified error bound.

    The metric fixes the contraction factor q, the prune budget p and the
    distance; each step prunes M(mu_{k-1}) within p, and the a-posteriori
    bound ||mu_k - mu*|| <= (q*dist(mu_k, mu_{k-1}) + p) / (1-q) certifies
    the stop, so the returned error_bound is rigorous despite the pruning.

    The system decides the metric (``_metric``), and
    ``FixedPointResult.norm`` names it.  In the variation norm the budget
    is p = tol*(1-q)/4.  In mk_star iterates are never pruned (p = 0):
    pruning would perturb totals, which that metric needs equal.  A
    variation contraction with a zero base has the fixed point zero: it is
    returned at once, after one iteration with error_bound 0.

    An mk_star certificate is about the system whose operators sum to the
    identity exactly: inside the 1e-12 band it certifies that idealised
    system, not the rounded one (the float operators I/3 and 2I/3 sum to
    1 - 5.6e-17, for example).

    The bound does not cover floating-point rounding.  Where rounding is
    large, as for image pieces a few ulps wide that carry big densities,
    the iterate settles on the fixed point of the rounded operator, and
    the bound certifies that one.  The exact operator maps totals by
    t -> sum_i R_i t + mu0([0, 1]); what the certifying step adds to the
    total beyond that and beyond the prune budget p is rounding, its
    drift.  Iteration refuses with IterationLimit when drift / (1-q)
    exceeds the bound: repeated at every step, a drift moves the fixed
    point's total by up to that much when ||sum_i R_i|| <= q, as in the
    variation metric.  This checks that rounding stays below the bound;
    it does not bound it.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if start.dim != sys.dim:
        raise DimensionMismatch(
            f"start dimension {start.dim} differs from system dimension {sys.dim}")
    norm, q, distance = _metric(sys)
    if norm == "variation" and sys.base.is_zero() and max_iter >= 1:
        zero = VectorMeasure.zero(sys.dim, sys.field)
        return FixedPointResult(zero, 1, 0.0, norm, zero.total())
    budget = tol * (1.0 - q) / 4.0 if norm == "variation" else 0.0
    op_sum = np.sum(np.stack(sys.operators), axis=0)
    base_total = sys.base.total()
    cur, bound = start, math.inf
    for k in range(1, max_iter + 1):
        _check_size(sys, cur, k)
        nxt = prune(apply_markov(sys, cur), budget)
        bound = (q * distance(nxt, cur) + budget) / (1.0 - q)
        if bound <= tol:
            # pruning moves the total by at most the budget
            total = nxt.total()
            drift = _norm(total - op_sum @ cur.total() - base_total) - budget
            if drift / (1.0 - q) > bound:
                raise IterationLimit(
                    f"rounding moves the total by {drift:.3g} per step, up to "
                    f"{drift / (1.0 - q):.3g} at the fixed point, more than "
                    f"the bound {bound:.3g}; not certified")
            return FixedPointResult(nxt, k, bound, norm, total)
        cur = nxt
    raise IterationLimit(
        f"tolerance {tol:g} not certified in {max_iter} iterations "
        f"(last bound {bound:g})")


def _intern(rows, memo: dict):
    """``(ids, src)`` for node rows ``(lo, hi, lo_incl, hi_incl)``: each
    row's node and the row that makes each new node.  ``memo`` maps every
    row interned so far to its node (-0.0 equals 0.0 as a float); rows it
    lacks become nodes len(memo), len(memo) + 1, ... in the order they
    first come, and past _MAX_NODES nodes IterationLimit is raised."""
    n = len(memo)
    ids = np.array([memo.setdefault(r, len(memo))
                    for r in zip(*(a.tolist() for a in rows))], dtype=np.intp)
    if len(memo) > _MAX_NODES:
        raise IterationLimit(f"set-transition graph exceeded {_MAX_NODES} nodes")
    u, first = np.unique(ids, return_index=True)
    return ids, first[u >= n]


def _cut_exposure(child: np.ndarray, expanded: np.ndarray, norms,
                  slack: float):
    """Cut exposure of every node, from below, and a certified tail.

    ``child`` is a (nodes, maps) child-index array in which -1 stands for
    the zero row (an empty preimage, or any child of a cut node), edge i
    of a node weighs norms[i], and the cut nodes are those not
    ``expanded``.  The exposure Z_j, the summed weight of the paths from
    node j to the cut nodes, solves Z = 1_cut + T Z, where T carries Z
    back along the expanded nodes' edges; one column serves every root.
    Sweeps start from 1_cut and give Z_n, the paths of length <= n.  The
    rows of T weigh at most e = sum(norms) < 1, so Z - Z_n <= e/(1-e)
    max(Z_n - Z_(n-1)), plus what rounding adds to the last sweep.  The
    sweeps stop once that tail fits ``slack``, when a step vanishes (the
    expanded part has drained into the cut) or grows (the rounding
    floor), or after _MAX_SWEEPS.  Returns Z_n by node, the tail and the
    sweep count.
    """
    N, k = child.shape
    w = np.asarray(norms, dtype=float)
    e = float(w.sum())
    inner = np.flatnonzero(expanded)
    kids = child[inner]
    Z = np.zeros(N + 1)  # Z[-1], the zero row, stays zero
    Z[:N][~expanded] = 1.0
    step, prev, sweeps = 0.0, math.inf, 0
    while len(inner) and sweeps < _MAX_SWEEPS:
        new = Z[kids] @ w
        step = float((new - Z[inner]).max())
        Z[inner] = new
        sweeps += 1
        if e * step <= slack * (1.0 - e) or step >= prev:
            break
        prev = step
    # the last sweep's k products and sums are off by (k+1) ulps at most
    tail = (e * step + (k + 1) * _EPS * float(Z.max())) / (1.0 - e)
    return Z[:N], tail, sweeps


class _Graph(NamedTuple):
    """A preimage graph as flat arrays: node rows (single spans and
    points), their (nodes, maps) child indices (-1: the zero row),
    which nodes were expanded, the node of each root row, each root's
    certified cut exposure and the depth reached."""
    lo: np.ndarray
    hi: np.ndarray
    lo_incl: np.ndarray
    hi_incl: np.ndarray
    child: np.ndarray
    expanded: np.ndarray
    root: np.ndarray
    cut: np.ndarray
    depth: int


def _set_graph(sys: IFSystem, rows, owner: np.ndarray, n_roots: int,
               budget: float) -> _Graph:
    """One preimage graph for every root row, memoized on its rows.

    ``rows`` are the roots' single spans and points (``_span_rows``),
    ``owner`` the root of each.  Rows are one node when they are equal,
    their closed ends and points placed where the maps as
    ``pushforward`` rounds them send them (``_preimage_rows``); so
    exploration order, and what else shares the graph, never changes a
    node.  A node's weight is the summed weight prod ||R_i|| of the
    paths from the root rows to it found so far.
    Each round expands the heaviest open nodes at once, every map's
    preimages of them in one numpy pass, until the weight left open fits
    ``budget`` per root on average.  Memo hits carry weight back into
    expanded nodes, past which the running weights do not follow it, so
    the stop is checked by ``_cut_exposure`` on the graph as built: each
    root's bound is the sum over its rows of their exposure plus the
    tail, rounded up.  When one root's bound exceeds ``budget``, the
    open weight allowed shrinks and exploration goes on.  When the tail
    cannot fit a 1e-3 share of the budget within _MAX_SWEEPS sweeps (e
    near 1), no cut is certified and only closing stops exploration.
    """
    k = len(sys.maps)
    norms = np.asarray(sys.norms, dtype=float)
    e = float(norms.sum())
    if _sweeps_to(e, _CUT_SLACK * budget * (1.0 - e)) - 1 > _MAX_SWEEPS:
        budget = -math.inf
    slopes = np.array([[m.slope] for m in sys.maps])
    offsets = np.array([[m.offset] for m in sys.maps])
    memo = {}
    root, src = _intern(rows, memo)
    lo, hi, li, ri = (r[src] for r in rows)
    N = len(lo)
    weight = np.bincount(root, minlength=N).astype(float)
    expanded = np.zeros(N, dtype=bool)
    depth = np.zeros(N, dtype=np.intp)
    child = np.full((N, k), -1, dtype=np.intp)
    counts = np.bincount(owner, minlength=n_roots)
    allowed = budget * np.count_nonzero(counts)
    while True:
        open_ = np.flatnonzero(~expanded)
        if not len(open_):
            return _Graph(lo, hi, li, ri, child, expanded, root,
                          np.zeros(n_roots), int(depth.max()))
        # the lightest open nodes whose weights sum within what is allowed
        # stay open; the rest are expanded now
        by_weight = np.argsort(weight[open_], kind="stable")
        kept = np.searchsorted(np.cumsum(weight[open_][by_weight]), allowed,
                               side="right")
        front = open_[by_weight[kept:]]
        if not len(front):
            Z, tail, _ = _cut_exposure(child, expanded, norms,
                                       _CUT_SLACK * budget)
            cut = (np.bincount(owner, Z[root] + tail, minlength=n_roots)
                   * (1.0 + (counts + 8) * _EPS))
            worst = float(cut.max())
            if worst <= budget:
                return _Graph(lo, hi, li, ri, child, expanded, root, cut,
                              int(depth.max()))
            # open nodes of zero weight carry no exposure of their own,
            # but a rounding tail above the budget needs them expanded
            allowed = (allowed * min(0.5, budget / worst)
                       if weight[open_].any() else -math.inf)
            continue
        expanded[front] = True
        F = len(front)
        c_lo, c_hi, c_li, c_ri, keep = (
            np.ravel(a) for a in _preimage_rows(
                slopes, offsets, lo[front], hi[front], li[front], ri[front]))
        parent = np.tile(front, k)[keep]
        flow = (np.repeat(norms, F) * np.tile(weight[front], k))[keep]
        c_lo, c_hi, c_li, c_ri = c_lo[keep], c_hi[keep], c_li[keep], c_ri[keep]
        kid, src = _intern((c_lo, c_hi, c_li, c_ri), memo)
        lo, hi = np.concatenate([lo, c_lo[src]]), np.concatenate([hi, c_hi[src]])
        li, ri = np.concatenate([li, c_li[src]]), np.concatenate([ri, c_ri[src]])
        depth = np.concatenate([depth, depth[parent[src]] + 1])
        N += len(src)
        expanded = np.concatenate([expanded, np.zeros(len(src), dtype=bool)])
        child = np.concatenate([child, np.full((len(src), k), -1, dtype=np.intp)])
        row = np.full(k * F, -1, dtype=np.intp)
        row[keep] = kid
        child[front] = row.reshape(k, F).T
        # weight flows on only into open nodes; a node expanded this round
        # is marked first, so that a self-loop (the empty set and [0, 1]
        # are their own preimages) is a memo hit
        live = ~expanded[kid]
        weight = np.concatenate([weight, np.zeros(len(src))])
        weight += np.bincount(kid[live], flow[live], minlength=N)


@dataclass(frozen=True)
class EvalResult:
    """mu*(B) from set evaluation, with how it was obtained.

    ``error_bound`` (at most the requested tol) is B's truncation bound,
    zero when the graph closed, plus the certified bound of the sweeps
    for each of B's spans and points.  ``nodes``, ``depth`` and
    ``closed`` describe the graph the call built for all its sets:
    ``nodes`` counts its single spans and points, ``depth`` is the
    longest path from a root along which exploration found a node, and
    ``closed`` says that every node was expanded.
    """
    value: np.ndarray
    error_bound: float
    nodes: int
    depth: int
    closed: bool


def _sweeps_to(e: float, ratio: float) -> float:
    """Smallest j >= 1 with e**j <= ratio (inf when ratio <= 0)."""
    if ratio <= 0.0:
        return math.inf
    if e == 0.0 or ratio >= 1.0:
        return 1
    return max(1, math.ceil(math.log(ratio) / math.log(e)))


def eval_fixed_point(sys: IFSystem, B: QuerySet, tol: float = 1e-10
                     ) -> EvalResult:
    """Fixed-point evaluation mu*(B): ``eval_many`` of the one set."""
    return eval_many(sys, [B], tol)[0]


def eval_many(sys: IFSystem, sets, tol: float = 1e-10) -> list:
    """mu*(B) for every B in ``sets``, each within tol, on one graph.

    The fixed-point identity localizes: mu*(C) = sum_i R_i mu*(preimage_i C)
    + mu0(C).  A measure is additive, so mu*(B) is the sum over B's
    disjoint spans and points; the preimage of a span under an affine map
    is a span, a point or empty, and that of a point a point or empty.
    The graph's nodes are therefore single spans and points held in flat
    arrays, shared by all the sets and memoized on their rows
    (``_set_graph``).  Exploration is best-first by summed
    path weight prod ||R_i|| from the sets' rows, a whole frontier per
    round, so paths through small operators stop early.  A cut node is
    valued mu0(C) with its children taken as zero, off by at most e a,
    where a = ||mu0||/(1-e).  The error at a row is then at most e a
    times its cut exposure, the summed weight of its paths to cut nodes;
    one backward sweep gives every node's exposure (``_cut_exposure``),
    and exploration stops once each set's rows' certified exposures put
    its truncation bound within half of tol.

    The graph's equations x_C = mu0(C) + sum_i R_i x_{child_i(C)} are
    solved by Jacobi block sweeps over the (nodes, maps) child-index
    array, all nodes at once.  In the norm max_C |x_C| each sweep
    contracts by the variation factor e, so the error of sweep j is at
    most (e |x_j - x_{j-1}| + delta) / (1-e) at every node, where delta
    bounds the rounding of one sweep; a set of m rows adds m such errors
    and the rounding of their sum.  Sweeps go on until that fits in what
    truncation left of tol for every set, then until the step grows or
    vanishes (the rounding floor), so the values match a direct solve of
    the graph to the last digits.  Memory is O(nodes * maps * dim).
    Refuses with IterationLimit past 100,000 nodes, when tol would take
    more than 10,000 sweeps, or when the sweep count fixed before the
    first sweep does not certify.

    Requires variation factor e < 1; deterministic by construction.
    Returns one ``EvalResult`` per set, in order.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    fac = factors(sys)
    e = fac.variation
    if e >= 1.0:
        raise NotContractive(
            f"variation factor {e:.6g} >= 1; set evaluation needs a "
            "variation contraction")
    sets = list(sets)
    dtype = sys.operators[0].dtype
    *rows, owner = _span_rows(sets)
    if sys.base.is_zero() or not len(owner):
        # zero is the only fixed point of the homogeneous contraction,
        # and the empty set's measure
        return [EvalResult(np.zeros(sys.dim, dtype=dtype), 0.0, 0, 0, True)
                for _ in sets]
    # a cut node's value mu0(C) misses sum_i R_i mu*(preimage_i C), at
    # most e a with a = ||mu0||/(1-e) >= ||mu*||; errors reach a row
    # through its paths to the cut, so truncation costs e a times its
    # exposure
    a_bound = sys.base.variation_norm() / (1.0 - e)
    share = _TRUNC_SHARE * tol
    budget = share / (e * a_bound) if e * a_bound > 0.0 else math.inf
    g = _set_graph(sys, rows, owner, len(sets), budget)
    N = len(g.lo)
    closed = bool(g.expanded.all())
    trunc = e * a_bound * g.cut
    m = np.bincount(owner, minlength=len(sets))

    def results(x, node_bound, reserve):
        values = np.zeros((len(sets), sys.dim), dtype=dtype)
        np.add.at(values, owner, x[g.root])
        bounds = np.where(m > 0, trunc + m * node_bound + reserve, 0.0)
        return [EvalResult(v, float(eb), N, g.depth, closed)
                for v, eb in zip(values, bounds)]

    # sum_i R_i x[child_i] as one product: the gathered child rows side by
    # side times the operator transposes stacked
    ops_t = np.concatenate([r.T for r in sys.operators])
    kn = len(sys.maps) * sys.dim
    b = sys.base.evaluate_rows(g.lo, g.hi, g.lo_incl, g.hi_incl).astype(
        dtype, copy=False)
    x = np.zeros((N + 1, sys.dim), dtype=dtype)  # x[-1], the zero row
    x[:N] = b
    scale = float(_row_norms(b).max())
    if scale == 0.0:
        return results(x, 0.0, 0.0)
    # a sweep in floating point is off by at most delta; the computed
    # iterates carry 2 delta/(1-e) beyond the exact a-posteriori bound
    fro = sum(float(np.linalg.norm(r)) for r in sys.operators)
    delta = (kn + 2) * _EPS * scale * (1.0 + fro / (1.0 - e))
    rounding = 2.0 * delta / (1.0 - e)
    # summing a set's m rows rounds by at most 2 (m-1) eps times the sum
    # of their norms, each at most scale/(1-e) + tol
    reserve = 2.0 * np.maximum(m - 1, 0) * m * _EPS * (scale / (1.0 - e) + tol)
    rooted = m > 0
    margin = float(((tol - trunc - reserve)[rooted] / m[rooted]).min()) - rounding
    # with x_0 = b, |x_j - x_{j-1}| <= e^j scale, so e^(j+1) scale/(1-e)
    # <= margin certifies: allow that many sweeps, or as many as it takes
    # the step to reach rounding
    need = _sweeps_to(e, margin * (1.0 - e) / scale)
    if need > _MAX_SWEEPS:
        raise IterationLimit(
            f"certifying tol {tol:g} on {N} nodes would take more than "
            f"{_MAX_SWEEPS} sweeps (variation factor {e:.6g}); loosen tol")
    budget = max(need, min(_sweeps_to(e, _EPS), _MAX_SWEEPS)) + 2
    best = prev = math.inf
    for _ in range(budget):
        nxt = b + x[g.child].reshape(N, kn) @ ops_t
        step = float(_row_norms(nxt - x[:N]).max())
        x[:N] = nxt
        # an iterate's bound also holds for the later ones (the rounding
        # term covers what rounding adds)
        best = min(best, e / (1.0 - e) * step)
        if best <= margin and (step == 0.0 or step > prev):
            break
        prev = step
    if best > margin:
        raise IterationLimit(
            f"tolerance {tol:g} not certified in {budget} sweeps over {N} "
            f"nodes (last bound {float(trunc.max()) + best + rounding:g})")
    return results(x, best + rounding, reserve)
