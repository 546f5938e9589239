"""Plücker weights and the Hilbert-Mumford picture for the diagonal action.

The one-parameter subgroup acts on the standard basis of C^n with weight
n - s on e_1..e_s and -s on the rest, so the Plücker coordinate indexed by
an r-subset I has weight ``n * |I meet {1..s}| - r*s``.  A fixed point is
semistable iff its weight is nonpositive, iff its index dominates the
minimal subset {1..p} union {s+1..s+r-p} componentwise.  The semistable
locus itself is the union of Richardson cells R_(v, phi) where v has
positive weight, phi nonpositive weight and v <= phi.

For sorted r-subsets, v <= phi componentwise exactly when every prefix
count satisfies |v meet {1..i}| >= |phi meet {1..i}|.  Both weights are read
off the prefix counts at i = s, so the pairs are counted by a ballot-style
walk over the positions 1..n whose state is the two prefix counts
(:func:`count_pairs`), and the fixed-point classes by the closed form
sum_j C(s, j) * C(n-s, r-j) split by the sign of n*j - r*s
(:func:`fixed_point_counts`).  Only :func:`enumerate_A`, which lists the
pairs, and :func:`classify_fixed_points`, which lists the classes, scan
the C(n, r) subsets.
"""

import math
from dataclasses import dataclass
from itertools import combinations

from . import weyl
from .errors import EnumerationCapError, enumeration_cap
from .params import GrassParams

__all__ = [
    "lambda_weights", "plucker_weight", "mu", "minimal_semistable_subset",
    "FixedPointClasses", "classify_fixed_points", "fixed_point_counts",
    "enumerate_A", "count_pairs", "ss_equals_stable", "dual_subset",
    "all_subsets",
]


def lambda_weights(params: GrassParams) -> tuple:
    """Diagonal weights (n-s, ..., n-s, -s, ..., -s); they sum to zero."""
    n, s = params.n, params.s
    return (n - s,) * s + (-s,) * (n - s)


def _check_subset(subset, params: GrassParams):
    if len(subset) != params.r:
        raise ValueError(f"expected an r-subset with r={params.r}, got {subset}")
    if any(not 1 <= i <= params.n for i in subset):
        raise ValueError(f"subset entries must lie in 1..{params.n}: {subset}")
    if any(a >= b for a, b in zip(subset, subset[1:])):
        raise ValueError(f"subset must be strictly increasing: {subset}")


def plucker_weight(subset, params: GrassParams) -> int:
    """Weight of the Plücker coordinate p_I: n*|I meet {1..s}| - r*s.

    >>> plucker_weight((1, 2), GrassParams(3, 2, 2))
    2
    >>> plucker_weight((1, 3), GrassParams(3, 2, 2))
    -1
    """
    _check_subset(subset, params)
    small = sum(1 for i in subset if i <= params.s)
    return params.n * small - params.r * params.s


def mu(subset, sign: int, params: GrassParams) -> int:
    """Hilbert-Mumford value on the cell at ``subset`` for +/- the subgroup.

    Positive sign gives the value along the subgroup itself (Borel cells),
    negative sign along its inverse (opposite cells).
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return -sign * plucker_weight(subset, params)


def minimal_semistable_subset(params: GrassParams) -> tuple:
    """Componentwise-minimal r-subset of nonpositive weight (closed form).

    >>> minimal_semistable_subset(GrassParams(5, 2, 2))
    (3, 4)
    >>> minimal_semistable_subset(GrassParams(3, 2, 2))
    (1, 3)
    """
    p, r, s = params.p, params.r, params.s
    return tuple(range(1, p + 1)) + tuple(range(s + 1, s + r - p + 1))


def all_subsets(params: GrassParams):
    """All r-subsets of {1..n} in lexicographic order, budget permitting."""
    count = math.comb(params.n, params.r)
    cap = enumeration_cap()
    if count > cap:
        raise EnumerationCapError(
            f"C({params.n},{params.r}) = {count} subsets exceed the enumeration cap",
            cap, stage="subsets", requested=count)
    return list(combinations(range(1, params.n + 1), params.r))


@dataclass(frozen=True)
class FixedPointClasses:
    positive: tuple
    zero: tuple
    negative: tuple

    @property
    def counts(self) -> tuple[int, int, int]:
        return (len(self.positive), len(self.zero), len(self.negative))


def classify_fixed_points(params: GrassParams) -> FixedPointClasses:
    """Partition the torus fixed points by the sign of their weight.

    The zero class is nonempty exactly when n divides r*s.

    >>> classify_fixed_points(GrassParams(2, 1, 1)).counts
    (1, 0, 1)
    """
    pos, zero, neg = [], [], []
    for subset in all_subsets(params):
        w = plucker_weight(subset, params)
        (pos if w > 0 else zero if w == 0 else neg).append(subset)
    return FixedPointClasses(tuple(pos), tuple(zero), tuple(neg))


def fixed_point_counts(params: GrassParams) -> tuple[int, int, int]:
    """Sizes (positive, zero, negative) of the weight classes, in closed form.

    An r-subset with j entries in {1..s} has weight n*j - r*s, and there are
    C(s, j) * C(n-s, r-j) of them.

    >>> fixed_point_counts(GrassParams(4, 2, 2))
    (1, 4, 1)
    """
    n, r, s = params.n, params.r, params.s
    counts = [0, 0, 0]
    for j in range(r + 1):
        weight = n * j - r * s
        counts[0 if weight > 0 else 1 if weight == 0 else 2] += \
            math.comb(s, j) * math.comb(n - s, r - j)
    return tuple(counts)


def enumerate_A(params: GrassParams, w=None):
    """Richardson pairs (v, phi) carving out the semistable locus, lazily.

    Pairs satisfy weight(v) > 0, weight(phi) <= 0 and v <= phi; when ``w``
    is given the extra condition phi <= w restricts to the Schubert variety
    at w.  Equivalent to the Bruhat-order conditions against the minimal
    semistable subset.  Pairs are yielded in lexicographic order; the scan
    of the C(n, r) subsets counts against the enumeration budget.

    >>> list(enumerate_A(GrassParams(2, 1, 1)))
    [((1,), (2,))]
    """
    if w is not None:
        _check_subset(w, params)
    subsets = all_subsets(params)
    nonpos = [phi for phi in subsets if plucker_weight(phi, params) <= 0
              and (w is None or weyl.bruhat_leq(phi, w))]
    for v in subsets:
        if plucker_weight(v, params) > 0:
            for phi in nonpos:
                if weyl.bruhat_leq(v, phi):
                    yield v, phi


def count_pairs(params: GrassParams, w=None) -> int:
    """Number of pairs :func:`enumerate_A` yields, without listing them.

    For sorted r-subsets, v <= phi exactly when |v meet {1..i}| >=
    |phi meet {1..i}| for every i, and phi <= w exactly when
    |phi meet {1..i}| >= |w meet {1..i}|.  The count is a walk over the
    positions i = 1..n whose state (a, b) holds the two prefix counts, with
    a >= b; each step adds 0 or 1 to each.  At i = s the weights are n*a - r*s
    and n*b - r*s, so only the states with n*a > r*s >= n*b go on.  The walk
    has O(n * r^2) states, so it needs no budget.

    >>> count_pairs(GrassParams(3, 2, 2))
    2
    >>> count_pairs(GrassParams(5, 2, 2))
    19
    """
    n, r, s = params.n, params.r, params.s
    if w is not None:
        _check_subset(w, params)
    in_w = set(w or ())
    ways = {(0, 0): 1}
    w_prefix = 0
    for i in range(1, n + 1):
        w_prefix += i in in_w
        step = {}
        for (a, b), count in ways.items():
            for a_next in (a, a + 1):
                for b_next in (b, b + 1):
                    if (w_prefix <= b_next <= a_next <= r
                            and r - b_next <= n - i):
                        key = (a_next, b_next)
                        step[key] = step.get(key, 0) + count
        if i == s:
            step = {(a, b): count for (a, b), count in step.items()
                    if n * a > r * s >= n * b}
        ways = step
    return ways.get((r, r), 0)


def ss_equals_stable(params: GrassParams) -> bool:
    """Semistable = stable exactly when n does not divide r*s.

    >>> ss_equals_stable(GrassParams(3, 2, 2))
    True
    >>> ss_equals_stable(GrassParams(4, 2, 2))
    False
    """
    return (params.r * params.s) % params.n != 0


def dual_subset(subset, n: int) -> tuple:
    """Reversed complement {n+1-i : i not in subset}.

    This realizes the orthogonal-complement duality on Plücker indices;
    combined with s -> n-s it preserves weights, hence weight classes and
    the Richardson-pair count.
    """
    comp = [i for i in range(1, n + 1) if i not in subset]
    return tuple(sorted(n + 1 - i for i in comp))
