"""Markov-type operators from iterated function systems with operator weights.

A system pairs contractive affine self-maps omega_i of [0, 1] with matrices
R_i on the coefficient space, plus an optional base measure mu0.  The
operator acts on vector measures by

    M(nu)  =  sum_i R_i (pushforward(omega_i, nu))  (+ mu0)

and its dual acts on integrands by f -> sum_i adjoint(R_i) f(omega_i(t)),
related through the change-of-variables identity

    integral f d(M nu)  =  integral (dual f) d nu  (+ integral f dmu0).

Three contraction factors govern convergence, one per norm: the variation
factor sum ||R_i||, the bounded-Lipschitz factor sum ||R_i|| (1 + r_i), and
the Lipschitz-ball factor sum ||R_i|| r_i, where r_i is the map's
contraction ratio.  Two solvers compute the fixed point: contraction
iteration, one certified loop in the metric the system decides (variation
when its factor is below one, else mk_star for operators that sum to the
identity), and evaluation on a query set over the transition graph its
preimages generate, explored best-first by path weight prod ||R_i|| up
to a certified truncation bound and solved by block sweeps whose stop
the variation factor certifies.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import (DimensionMismatch, FieldMismatch, IterationLimit,
                         NotContractive)
from .hilbert import _as_operator, _field_cast, adjoint, operator_norm
from .integral import ContinuousFunction
from .measure import VectorMeasure, accumulate, apply_operator, prune, pushforward
from .mk_norm import mk_star_exact
from .space import AffineMap, QuerySet, preimage

__all__ = ["IFSystem", "ContractionFactors", "FixedPointResult", "EvalResult",
           "factors", "apply_markov", "dual_apply", "iterate_fixed_point",
           "eval_fixed_point", "residual"]

_MASS_TOL = 1e-12
_EPS = float(np.finfo(float).eps)
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
    n = len(sys.maps) * (cur.n_atoms + cur.n_pieces)
    if sys.base is not None:
        n += sys.base.n_atoms + sys.base.n_pieces
    if n > _MAX_COMPONENTS:
        raise IterationLimit(
            f"iterate {k} would hold {n} atoms/pieces (cap {_MAX_COMPONENTS}); "
            "the tolerance asks for more steps than the exact representation "
            "supports -- loosen tol or reduce the number of maps")


class IFSystem:
    """Affine maps paired with operator weights and an optional base measure.

    ``norms`` holds the operator norm ||R_i|| of each weight, computed
    once here; a non-finite operator entry raises ValueError.
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
        if base is not None:
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
        return (f"IFSystem({len(self.maps)} maps, dim={self.dim}, "
                f"field={self.field}, base={'yes' if self.base else 'no'})")


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
    """One application of the Markov-type operator (base included)."""
    if nu.dim != sys.dim:
        raise DimensionMismatch(
            f"measure dimension {nu.dim} differs from system dimension {sys.dim}")
    terms = [apply_operator(r, pushforward(m, nu))
             for m, r in zip(sys.maps, sys.operators)]
    if sys.base is not None:
        terms.append(sys.base)
    return accumulate(terms)


def dual_apply(sys: IFSystem, f: ContinuousFunction) -> ContinuousFunction:
    """Dual action on integrands: t -> sum_i adjoint(R_i) f(omega_i(t)).

    Certified bounds travel along: the sup bound scales by the variation
    factor and the Lipschitz bound by the mk_star factor.
    """
    if f.dim != sys.dim:
        raise DimensionMismatch(
            f"function dimension {f.dim} differs from system dimension {sys.dim}")
    adjs = [adjoint(r) for r in sys.operators]
    maps = sys.maps

    def g(t, _adjs=adjs, _maps=maps, _f=f):
        out = None
        for a, m in zip(_adjs, _maps):
            v = a @ _f(m(t))
            out = v if out is None else out + v
        return out

    fac = factors(sys)
    lip = None if f.lip_bound is None else fac.mk_star * f.lip_bound
    return ContinuousFunction(g, dim=f.dim, sup_bound=fac.variation * f.sup_bound,
                              lip_bound=lip)


def residual(sys: IFSystem, mu: VectorMeasure) -> float:
    """Variation norm of M(mu) - mu, zero exactly at the fixed point,
    taken by ``VectorMeasure.variation_distance`` without building the
    difference."""
    return apply_markov(sys, mu).variation_distance(mu)


@dataclass(frozen=True)
class FixedPointResult:
    measure: VectorMeasure
    iterations: int
    error_bound: float
    norm: str


def iterate_fixed_point(sys: IFSystem, start: VectorMeasure, tol: float = 1e-8,
                        max_iter: int = 200) -> FixedPointResult:
    """Contraction iteration to the fixed point with a certified error bound.

    The metric fixes the contraction factor q, the prune budget p and the
    distance; each step prunes M(mu_{k-1}) within p, and the a-posteriori
    bound ||mu_k - mu*|| <= (q*dist(mu_k, mu_{k-1}) + p) / (1-q) certifies
    the stop, so the returned error_bound is rigorous despite the pruning.

    The system decides the metric.  When the variation factor is < 1 it
    iterates in the variation norm: q is that factor, p = tol*(1-q)/4 and
    the distance is ``VectorMeasure.variation_distance``, one merge of the
    two iterates that builds no difference measure.  Otherwise only a
    system that preserves mass (sum_i R_i = I within 1e-12; its variation
    factor sum ||R_i|| >= ||sum R_i|| is about 1) can contract, and it
    iterates in mk_star: q is the mk_star factor, which must be < 1, and
    the distance ``mk_star_exact`` of mu_k - mu_{k-1}.  Iterates are never
    pruned there (p = 0): pruning would perturb totals, and the metric
    only controls measures of equal total mass.  A base measure, if present, must have zero
    total.  The variation norm goes first because inside the 1e-12 band a
    system can lose mass (variation factor just below 1, fixed point
    zero); mk_star would certify a measure of the wrong total there.
    ``FixedPointResult.norm`` names the metric used.

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
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if start.dim != sys.dim:
        raise DimensionMismatch(
            f"start dimension {start.dim} differs from system dimension {sys.dim}")
    fac = factors(sys)
    op_sum = np.sum(np.stack(sys.operators), axis=0)
    if fac.variation < 1.0:
        norm, q = "variation", fac.variation
        budget = tol * (1.0 - q) / 4.0
        distance = VectorMeasure.variation_distance
    else:
        norm, q = "mk_star", fac.mk_star
        if np.abs(op_sum - np.eye(sys.dim)).max() > _MASS_TOL:
            raise NotContractive(
                f"variation factor {fac.variation:.6g} >= 1; iteration will "
                "not certify (the operators do not sum to the identity, so "
                "the mk_star metric does not apply)")
        if q >= 1.0:
            raise NotContractive(
                f"mk_star factor {q:.6g} >= 1 for a mass-preserving system")
        if sys.base is not None and float(
                np.linalg.norm(sys.base.total())) > _MASS_TOL:
            raise NotContractive(
                "mk_star iteration with a base measure requires the base "
                "to have zero total mass")
        budget = 0.0

        def distance(a, b):
            return mk_star_exact(a - b)
    base_total = 0.0 if sys.base is None else sys.base.total()
    cur, bound = start, math.inf
    for k in range(1, max_iter + 1):
        _check_size(sys, cur, k)
        nxt = prune(apply_markov(sys, cur), budget)
        bound = (q * distance(nxt, cur) + budget) / (1.0 - q)
        if bound <= tol:
            # pruning moves the total by at most the budget
            drift = float(np.linalg.norm(
                nxt.total() - op_sum @ cur.total() - base_total)) - budget
            if drift / (1.0 - q) > bound:
                raise IterationLimit(
                    f"rounding moves the total by {drift:.3g} per step, up to "
                    f"{drift / (1.0 - q):.3g} at the fixed point, more than "
                    f"the bound {bound:.3g}; not certified")
            return FixedPointResult(nxt, k, bound, norm)
        cur = nxt
    raise IterationLimit(
        f"tolerance {tol:g} not certified in {max_iter} iterations "
        f"(last bound {bound:g})")


def _memo_key(B: QuerySet):
    """Hashable canonical key on a 1e-14 grid, absorbing rounding noise in
    repeated preimage arithmetic."""
    return (tuple((round(lo, 14), round(hi, 14), lo_incl, hi_incl)
                  for lo, hi, lo_incl, hi_incl in B.spans),
            tuple(round(a, 14) for a in B.atoms))


def _cut_weight(child: np.ndarray, norms, sweeps: int):
    """Certified upper bound on the path weight that reaches the cut nodes.

    ``child`` is an (nodes, maps) child-index array whose cut rows hold
    the out-of-range index ``len(child)``, and edge i of a node weighs
    norms[i].  The summed weight W_j of all paths from node 0 to node j
    solves W = 1_root + T W, where T carries W along the edges of the
    expanded nodes.  K = ``sweeps`` sweeps from below give the paths of
    length <= K; the edges out of a node weigh e = sum(norms) < 1 in all,
    so the longer paths weigh at most e^(K+1)/(1-e) in all.  The bound adds
    that tail to the cut nodes' part of W_K and rounds up.  Also returns
    W_K, a lower bound on W, by node.
    """
    N, k = child.shape
    cut = child[:, 0] == N
    if not cut.any():
        return 0.0, np.zeros(N)
    src = np.repeat(np.flatnonzero(~cut), k)
    dst = child[~cut].ravel()
    w = np.tile(np.asarray(norms, dtype=float), len(dst) // k)
    e = float(sum(norms))
    W = np.zeros(N)
    W[0] = 1.0
    for _ in range(sweeps):
        W = np.bincount(dst, weights=W[src] * w, minlength=N)
        W[0] += 1.0
    # a sum of m nonnegative terms, each a product of nonnegative factors,
    # is off by at most m ulps in all; a sweep adds at most one product
    # and the in-degree's additions to each path's rounding
    indeg = int(np.bincount(dst, minlength=N).max())
    ulps = sweeps * (indeg + 2) + 4
    tail = e ** (sweeps + 1) / (1.0 - e)
    return (math.fsum(W[cut]) + tail) * (1.0 + ulps * _EPS), W


def _set_graph(sys: IFSystem, B: QuerySet, budget: float):
    """Best-first preimage graph of B, memoized on canonical keys.

    A node's weight is the summed weight prod ||R_i|| of the paths from B
    to it found so far; the heaviest unexpanded node is expanded next.
    Exploration stops when every node is expanded (the graph closed), or
    when the certified weight of the unexpanded ones, the cut nodes, is
    at most ``budget``.  Memo hits carry weight back into expanded nodes,
    past which the running weights do not follow it, so the stop is
    checked by ``_cut_weight`` on the graph as built; when that fails,
    its weights re-rank the cut nodes and exploration goes on.  Its sweep
    count K is the fewest that bring its tail e^(K+1)/(1-e) within a
    1e-3 share of the budget; when that is more than _MAX_SWEEPS (e near
    1), no cut is certified and only closing stops exploration.

    Returns the node sets (B first), an (nodes, maps) array whose row j
    holds the node indices of the preimages of node j under each map
    (cut rows hold the out-of-range index len(nodes), a shared zero row
    for the solver), the certified cut weight and the depth reached.
    """
    k = len(sys.norms)
    e = sum(sys.norms)
    sweeps = _sweeps_to(e, _CUT_SLACK * budget * (1.0 - e)) - 1
    if sweeps > _MAX_SWEEPS:
        budget = -math.inf
    nodes = [B]
    keys = {_memo_key(B): 0}
    weight = [1.0]
    depth = [0]
    children: list = [None]
    heap = [(-1.0, 0)]
    pending = 1.0  # running weight of the cut nodes
    while heap:
        if pending <= budget:
            child = _child_array(children, k)
            cut, W = _cut_weight(child, sys.norms, sweeps)
            if cut <= budget:
                return nodes, child, cut, max(depth)
            weight = W.tolist()
            heap = [(-weight[j], j) for j, kids in enumerate(children)
                    if kids is None]
            heapq.heapify(heap)
            pending = cut
        w, j = heapq.heappop(heap)
        if children[j] is not None or -w < weight[j]:
            continue  # expanded, or an entry from before its weight grew
        # expanded before its children are added, so that a self-loop (the
        # empty set and [0, 1] are their own preimages) is a memo hit
        children[j] = kids = []
        pending -= weight[j]
        for m, nrm in zip(sys.maps, sys.norms):
            C = preimage(m, nodes[j])
            key = _memo_key(C)
            idx = keys.get(key)
            if idx is None:
                if len(nodes) >= _MAX_NODES:
                    raise IterationLimit(
                        f"set-transition graph exceeded {_MAX_NODES} nodes")
                idx = len(nodes)
                keys[key] = idx
                nodes.append(C)
                weight.append(0.0)
                depth.append(depth[j] + 1)
                children.append(None)
            kids.append(idx)
            if children[idx] is None:
                weight[idx] += weight[j] * nrm
                pending += weight[j] * nrm
                heapq.heappush(heap, (-weight[idx], idx))
    return nodes, _child_array(children, k), 0.0, max(depth)


def _child_array(children, k: int) -> np.ndarray:
    leaf = [len(children)] * k
    return np.array([leaf if kids is None else kids for kids in children],
                    dtype=np.intp)


@dataclass(frozen=True)
class EvalResult:
    """mu*(B) from set evaluation, with how it was obtained.

    ``error_bound`` (at most the requested tol) is the truncation bound,
    zero when the graph closed, plus the certified bound of the sweeps.
    ``nodes`` counts the sets of the transition graph and ``depth`` is
    the longest path from B along which exploration found a node;
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
    """Fixed-point evaluation mu*(B) via the set-transition graph.

    The fixed-point identity localizes: mu*(C) = sum_i R_i mu*(preimage_i C)
    + mu0(C).  Preimages of an evaluable set stay evaluable, so exploration
    with memoized canonical sets either closes into a finite graph or is
    truncated.  It is best-first: the node with the largest summed path
    weight prod ||R_i|| from B goes next, so paths through small operators
    stop early.  A cut node is valued mu0(C) with its children taken as
    zero, off by at most e a, where a = ||mu0||/(1-e).  The error at B is
    then at most e a sum_cut W_j, with W_j the summed weight of the paths
    from B to cut node j on the graph as built; exploration stops once a
    certified upper bound on that sum (``_cut_weight``) puts the
    truncation bound within half of tol.

    The graph's equations x_C = mu0(C) + sum_i R_i x_{child_i(C)} are
    solved by Jacobi block sweeps over an (nodes, maps) child-index array,
    all nodes at once.  In the norm max_C |x_C| each sweep contracts by
    the variation factor e, so the error of sweep j is at most
    (e |x_j - x_{j-1}| + delta) / (1-e), where delta bounds the rounding
    of one sweep.  Sweeps go on until that bound fits in what truncation
    left of tol, then until the step grows or vanishes (the rounding
    floor), so the values match a direct solve of the graph to the last
    digits.  Memory is O(nodes * maps * dim).  Refuses with IterationLimit
    past 100,000 nodes, when tol would take more than 10,000 sweeps,
    or when the sweep count fixed before the first sweep does not certify.

    Requires variation factor e < 1; deterministic by construction.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    fac = factors(sys)
    e = fac.variation
    if e >= 1.0:
        raise NotContractive(
            f"variation factor {e:.6g} >= 1; set evaluation needs a "
            "variation contraction")
    dtype = sys.operators[0].dtype
    if sys.base is None:
        # the only fixed point of the homogeneous contraction
        return EvalResult(np.zeros(sys.dim, dtype=dtype), 0.0, 0, 0, True)
    # a cut node's value mu0(C) misses sum_i R_i mu*(preimage_i C), at
    # most e a with a = ||mu0||/(1-e) >= ||mu*||; errors reach B through
    # the paths to it, so truncation costs at most e a sum_cut W_j
    a_bound = sys.base.variation_norm() / (1.0 - e)
    share = _TRUNC_SHARE * tol
    budget = share / (e * a_bound) if e * a_bound > 0.0 else math.inf
    nodes, child, cut, depth = _set_graph(sys, B, budget)
    N = len(nodes)
    closed = bool((child < N).all())
    trunc = e * a_bound * cut
    # sum_i R_i x[child_i] as one product: the gathered child rows side by
    # side times the operator transposes stacked
    ops_t = np.concatenate([r.T for r in sys.operators])
    kn = len(sys.maps) * sys.dim
    b = sys.base.evaluate_many(nodes).astype(dtype, copy=False)
    x = np.zeros((N + 1, sys.dim), dtype=dtype)  # row N stays zero
    x[:N] = b
    scale = float(np.sqrt((np.abs(b) ** 2).sum(axis=1).max()))
    if scale == 0.0:
        return EvalResult(x[0].copy(), trunc, N, depth, closed)
    # a sweep in floating point is off by at most delta; the computed
    # iterates carry 2 delta/(1-e) beyond the exact a-posteriori bound
    fro = sum(float(np.linalg.norm(r)) for r in sys.operators)
    delta = (kn + 2) * _EPS * scale * (1.0 + fro / (1.0 - e))
    rounding = 2.0 * delta / (1.0 - e)
    # with x_0 = b, |x_j - x_{j-1}| <= e^j scale, so e^(j+1) scale/(1-e)
    # <= margin certifies: allow that many sweeps, or as many as it takes
    # the step to reach rounding
    margin = tol - trunc - rounding
    need = _sweeps_to(e, margin * (1.0 - e) / scale)
    if need > _MAX_SWEEPS:
        raise IterationLimit(
            f"certifying tol {tol:g} on {N} nodes would take more than "
            f"{_MAX_SWEEPS} sweeps (variation factor {e:.6g}); loosen tol")
    budget = max(need, min(_sweeps_to(e, _EPS), _MAX_SWEEPS)) + 2
    best = prev = math.inf
    for _ in range(budget):
        nxt = b + x[child].reshape(N, kn) @ ops_t
        step = float(np.sqrt((np.abs(nxt - x[:N]) ** 2).sum(axis=1).max()))
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
            f"nodes (last bound {trunc + best + rounding:g})")
    return EvalResult(x[0].copy(), trunc + best + rounding, N, depth,
                      closed)
