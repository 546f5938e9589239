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
off the prefix counts at i = s, so a pair is a pair of non-crossing lattice
paths through the classes at s, and :func:`count_pairs` counts them by
Lindström-Gessel-Viennot in closed form.  The fixed-point classes are
counted by the closed form sum_j C(s, j) * C(n-s, r-j) split by j against
p (:func:`fixed_point_counts`).  Every sign is read from the class
j = |I meet {1..s}| by the rules of ``GrassParams.classes``.  Only
:func:`pairs_by_v`, which lists the pairs, scans the C(n, r) subsets;
:func:`enumerate_A` flattens its groups.

A listing costs one packed comparison per pair of a nonpositive subset and
a join v ∨ m0, m0 the minimal subset (:func:`pairs_by_v`).  Each subset's
prefix counts are packed into one integer, a field per position, and a
pair is compared by one subtraction and one mask on those integers
(:func:`_key_leq`).  The pairs come grouped by v, the v of one join
sharing one list, so ``gitgr cells`` formats each list once.
"""

import math
from bisect import bisect_right
from itertools import combinations

from .errors import check_budget
from .params import GrassParams

__all__ = [
    "lambda_weights", "plucker_weight", "minimal_semistable_subset",
    "fixed_point_counts", "pairs_by_v", "enumerate_A", "count_pairs",
    "ss_equals_stable", "all_subsets",
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
    """Weight of the Plücker coordinate p_I: n*j - r*s, where j is the class
    |I meet {1..s}| (``GrassParams.classes``).

    >>> plucker_weight((1, 2), GrassParams(3, 2, 2))
    2
    >>> plucker_weight((1, 3), GrassParams(3, 2, 2))
    -1
    """
    _check_subset(subset, params)
    return params.n * bisect_right(subset, params.s) - params.r * params.s


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
    check_budget(count, stage="subsets", what=f"C({params.n},{params.r}) = {count} "
                 "subsets exceed the enumeration cap")
    return list(combinations(range(1, params.n + 1), params.r))


def fixed_point_counts(params: GrassParams) -> tuple[int, int, int]:
    """Sizes (positive, zero, negative) of the weight classes, in closed form.

    There are C(s, j) * C(n-s, r-j) r-subsets of class j, and the class
    gives the sign of their weight (``GrassParams.classes``).

    >>> fixed_point_counts(GrassParams(4, 2, 2))
    (1, 4, 1)
    """
    n, r, s, p = params.n, params.r, params.s, params.p
    counts = [0, 0, 0]
    for j in params.classes:
        counts[0 if j > p else 1 if n * j == r * s else 2] += \
            math.comb(s, j) * math.comb(n - s, r - j)
    return tuple(counts)


def _prefix_keys(n: int, r: int):
    """Packed prefix-count keys of the r-subsets of {1..n}, and their guard.

    ``key(I)`` holds |I meet {1..i}| for i = 1..n, one field of
    ``r.bit_length() + 1`` bits per position; a count is at most r, so the
    top bit of every field is free, and ``guard`` sets exactly those bits.
    Each entry e of I adds one to the fields of positions e..n, so the key
    is a sum of n precomputed steps.

    >>> key, guard = _prefix_keys(4, 2)
    >>> [key((2, 4)) >> 3 * i & 0b11 for i in range(4)], bin(guard)
    ([0, 1, 1, 2], '0b100100100100')
    """
    width = r.bit_length() + 1
    ones = sum(1 << width * i for i in range(n))
    steps = [0] + [ones >> width * e << width * e for e in range(n)]
    return (lambda subset: sum(map(steps.__getitem__, subset))), ones << width - 1


def _key_leq(lower: int, upper: int, guard: int) -> bool:
    """Bruhat order lower <= upper on two prefix-count keys.

    lower <= upper exactly when every prefix count of ``lower`` is at least
    that of ``upper``.  With the guard bit set in every field of ``lower``
    no field of the difference borrows from the next, and a field keeps its
    guard bit exactly when its count did not drop.

    >>> key, guard = _prefix_keys(4, 2)
    >>> _key_leq(key((1, 2)), key((3, 4)), guard)
    True
    >>> _key_leq(key((1, 4)), key((2, 3)), guard)
    False
    """
    return ((lower | guard) - upper) & guard == guard


def pairs_by_v(params: GrassParams, w=None):
    """Richardson pairs grouped by v: ``(v, [phi, ...])`` for each v, lazily.

    The pairs satisfy weight(v) > 0, weight(phi) <= 0 and v <= phi; when
    ``w`` is given the extra condition phi <= w restricts to the Schubert
    variety at w.  Equivalent to the Bruhat-order conditions against the
    minimal semistable subset.  The v come in lexicographic order, each with
    its phi in lexicographic order, and a v with no phi is skipped; the scan
    of the C(n, r) subsets counts against the enumeration budget.

    Each subset I gets the sign of its weight from its class
    j = |I meet {1..s}| against p, without the checks of
    :func:`plucker_weight`.  A phi is nonpositive exactly when phi >= m0,
    the minimal semistable subset, so v <= phi exactly when phi >= v ∨ m0,
    the componentwise max.  The nonpositive subsets, cut to phi <= w, are
    filtered once per distinct join, one packed comparison each
    (:func:`_prefix_keys`, :func:`_key_leq`), and every v of that join is
    yielded the same list: the lists are shared, and read-only.

    >>> list(pairs_by_v(GrassParams(3, 2, 2)))
    [((1, 2), [(1, 3), (2, 3)])]
    """
    n, r, s, p = params.n, params.r, params.s, params.p
    if w is not None:
        _check_subset(w, params)
    key, guard = _prefix_keys(n, r)
    w_key = None if w is None else key(w)
    floor = minimal_semistable_subset(params)
    positive, nonpositive = [], []
    for subset in all_subsets(params):
        if bisect_right(subset, s) > p:
            positive.append(subset)
        else:
            subset_key = key(subset)
            if w_key is None or _key_leq(subset_key, w_key, guard):
                nonpositive.append((subset, subset_key))
    by_join = {}
    for v in positive:
        join = tuple(map(max, v, floor))
        phis = by_join.get(join)
        if phis is None:
            # _key_leq(join, phi) inlined, with the join's guard bits set
            join_key = key(join) | guard
            phis = by_join[join] = [phi for phi, phi_key in nonpositive
                                    if (join_key - phi_key) & guard == guard]
        if phis:
            yield v, phis


def enumerate_A(params: GrassParams, w=None):
    """The pairs (v, phi) of :func:`pairs_by_v`, one at a time.

    >>> list(enumerate_A(GrassParams(2, 1, 1)))
    [((1,), (2,))]
    """
    for v, phis in pairs_by_v(params, w):
        for phi in phis:
            yield v, phi


def _comb(total: int, j: int) -> int:
    """C(total, j), and 0 for j outside 0..total."""
    return math.comb(total, j) if 0 <= j <= total else 0


def count_pairs(params: GrassParams) -> int:
    """Number of pairs :func:`enumerate_A` yields, in closed form.

    For sorted r-subsets, v <= phi exactly when the prefix counts
    a_i = |v meet {1..i}| and b_i = |phi meet {1..i}| satisfy a_i >= b_i
    for every i; each is a lattice path of n unit or zero steps from 0 to
    r.  At i = s they are the classes of v and phi, so a pair is a pair of
    such paths that passes through (a, b) with a > p >= b.  Shifting a by
    one makes the two paths vertex-disjoint, and Lindström-Gessel-Viennot
    counts the halves before and after position s, with t = n - s, as

        [C(s, a) C(s, b) - C(s, b-1) C(s, a+1)]
        * [C(t, r-a) C(t, r-b) - C(t, r-a-1) C(t, r-b+1)],

    with C(L, j) = 0 outside 0..L.  The sum over p < a <= min(r, s) and
    0 <= b <= p runs over a rectangle, so it factors into four products of
    a sum over a and a sum over b: O(min(r, s)) binomials, no enumeration
    and no budget.

    >>> count_pairs(GrassParams(3, 2, 2))
    2
    >>> count_pairs(GrassParams(5, 2, 2))
    19
    """
    n, r, s, p = params.n, params.r, params.s, params.p
    t = n - s
    total = 0
    for i in (0, 1):  # C(s, a+i) over a, C(s, b-i) over b
        for k in (0, 1):  # C(t, r-a-k) over a, C(t, r-b+k) over b
            over_a = sum(_comb(s, a + i) * _comb(t, r - a - k)
                         for a in range(p + 1, min(r, s) + 1))
            over_b = sum(_comb(s, b - i) * _comb(t, r - b + k)
                         for b in range(p + 1))
            total += (-1) ** (i + k) * over_a * over_b
    return total


def ss_equals_stable(params: GrassParams) -> bool:
    """Semistable = stable exactly when n does not divide r*s.

    >>> ss_equals_stable(GrassParams(3, 2, 2))
    True
    >>> ss_equals_stable(GrassParams(4, 2, 2))
    False
    """
    return (params.r * params.s) % params.n != 0
