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

A listing (:func:`pairs_by_v`) reads v <= phi, for nonpositive phi, as
phi >= v ∨ m0, m0 the minimal subset: one threshold phi_i >= x per
coordinate.  Each (i, x) that some join reaches gets one mask of N bytes,
N the number of nonpositive subsets, built in one pass over their i-th
entries.  A join costs one AND per coordinate where it lies above m0 and
one ``itertools.compress`` that reads its list.  The pairs come grouped
by v, the v of one join sharing one list, so ``gitgr cells`` formats each
list once.
"""

import math
from bisect import bisect_right
from itertools import combinations, compress
from operator import itemgetter, le

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
    if not all(isinstance(i, int) for i in subset):
        raise ValueError(f"subset entries must be integers: {subset}")
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


def pairs_by_v(params: GrassParams, w=None):
    """Richardson pairs grouped by v: ``(v, [phi, ...])`` for each v, lazily.

    The pairs satisfy weight(v) > 0, weight(phi) <= 0 and v <= phi; when
    ``w`` is given the extra condition phi <= w restricts to the Schubert
    variety at w.  Equivalent to the Bruhat-order conditions against the
    minimal semistable subset.  The v come in lexicographic order, each with
    its phi in lexicographic order, and a v with no phi is skipped; the scan
    of the C(n, r) subsets counts against the enumeration budget.

    A subset I is positive exactly when its class j = |I meet {1..s}|
    exceeds p, that is when I[p] <= s, read without the checks of
    :func:`plucker_weight`.  A phi is nonpositive exactly when phi >= m0,
    the minimal semistable subset, so v <= phi exactly when phi >= J, the
    join v ∨ m0 (componentwise max), and that is one test phi_i >= J_i per
    coordinate.  Each (i, x) reached by some join gets one mask, built on
    first use in one pass over the nonpositive subsets (cut to phi <= w):
    one byte per subset, 1 where phi_i >= x.  A new join ANDs the masks of
    its coordinates above m0 and reads its list in one
    :func:`itertools.compress`; every v of that join is yielded the same
    list: the lists are shared, and read-only.

    >>> list(pairs_by_v(GrassParams(3, 2, 2)))
    [((1, 2), [(1, 3), (2, 3)])]
    """
    s, p = params.s, params.p
    if w is not None:
        _check_subset(w, params)
    floor = minimal_semistable_subset(params)
    positive, nonpositive = [], []
    for subset in all_subsets(params):
        (positive if subset[p] <= s else nonpositive).append(subset)
    if w is not None:
        nonpositive = [phi for phi in nonpositive if all(map(le, phi, w))]
    # m0 is among the nonpositive subsets (it is <= w when any phi is), so
    # their least i-th entry is m0's, and only J_i > m0_i constrains
    size = len(nonpositive)
    every = int.from_bytes(b"\1" * size, "little")
    masks, by_join = {}, {}
    for v in positive:
        join = tuple(map(max, v, floor))
        phis = by_join.get(join)
        if phis is None:
            bits = every
            for i, x in enumerate(join):
                if x > floor[i]:
                    mask = masks.get((i, x))
                    if mask is None:
                        entries = map(itemgetter(i), nonpositive)
                        mask = masks[i, x] = int.from_bytes(
                            bytes(map(x.__le__, entries)), "little")
                    bits &= mask
            phis = by_join[join] = list(
                compress(nonpositive, bits.to_bytes(size, "little")))
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
