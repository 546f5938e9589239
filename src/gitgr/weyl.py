"""Type-A Weyl group combinatorics behind the semistable-locus description.

Conventions
-----------
A permutation of {1..n} is a tuple in one-line notation: ``w[i-1]`` is the
image of i.  A word is a tuple of simple-reflection indices in 1..n-1 and
evaluates to the product ``s_{l1} s_{l2} ... s_{lk}`` acting on positions,
rightmost letter first.  Concretely, :func:`evaluate_word` starts from the
identity and multiplies by ``s_letter`` on the right, reading the word left
to right, which yields exactly that product.

>>> evaluate_word((2, 1, 3, 2), 5)
(3, 4, 1, 2, 5)

Sorted r-subsets of {1..n} play three simultaneous roles: Plücker indices,
torus fixed points of G(r, n), and minimal-length coset representatives for
the maximal parabolic deleting node r.  The representative of a subset
lists it in increasing order followed by its complement in increasing
order; Bruhat order between such representatives is the componentwise
order on subsets (:func:`bruhat_leq`).
"""

from .errors import InvariantViolationError
from .params import GrassParams

__all__ = [
    "evaluate_word", "inversion_count",
    "compose", "coset_subset",
    "bruhat_leq", "contains_reflection",
    "build_w_sr", "build_w0_coset", "factor_w_tilde",
]


def evaluate_word(word, n: int) -> tuple:
    """Evaluate a word of simple reflections to a permutation of {1..n}.

    >>> evaluate_word((1,), 2)
    (2, 1)
    >>> evaluate_word((), 4)
    (1, 2, 3, 4)
    """
    cur = list(range(1, n + 1))
    for letter in word:
        if not 1 <= letter <= n - 1:
            raise ValueError(f"letter {letter} out of range 1..{n - 1}")
        cur[letter - 1], cur[letter] = cur[letter], cur[letter - 1]
    return tuple(cur)


def inversion_count(perm) -> int:
    """Number of inversions, i.e. the Coxeter length.

    >>> inversion_count((3, 4, 1, 2, 5))
    4
    """
    n = len(perm)
    return sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])


def compose(u, v) -> tuple:
    """Product u*v as functions: (u*v)(i) = u(v(i))."""
    return tuple(u[v[i] - 1] for i in range(len(v)))


def coset_subset(perm, r: int) -> tuple:
    """The sorted image of {1..r}, i.e. the subset labelling the coset of perm.

    >>> coset_subset((4, 3, 2, 1), 2)
    (3, 4)
    """
    n = len(perm)
    if not 1 <= r <= n - 1:
        raise ValueError(f"need 1 <= r <= n-1, got r={r}, n={n}")
    return tuple(sorted(perm[:r]))


def bruhat_leq(lhs, rhs) -> bool:
    """Bruhat order on same-size sorted subsets: componentwise comparison.

    >>> bruhat_leq((1, 2), (3, 4))
    True
    >>> bruhat_leq((1, 4), (2, 3)) or bruhat_leq((2, 3), (1, 4))
    False
    """
    if len(lhs) != len(rhs):
        raise ValueError(f"subset sizes differ: {len(lhs)} vs {len(rhs)}")
    return all(a <= b for a, b in zip(lhs, rhs))


def contains_reflection(word, i: int, n: int | None = None) -> bool:
    """Whether s_i <= w in Bruhat order, for w the evaluation of ``word``.

    Stable under enlarging n.  For a reduced word this coincides with the
    letter i occurring in the word; the permutation-level test used here
    (the image of {1..i} is not {1..i}) is correct for arbitrary words.
    For i >= n the answer is False, since w fixes everything above n.

    >>> contains_reflection((2, 1, 3, 2), 1)
    True
    >>> contains_reflection((2, 1, 3, 2), 4)
    False
    >>> contains_reflection((), 5, 3)
    False
    """
    if i < 1:
        raise ValueError(f"reflection index must be positive, got {i}")
    if n is None:
        n = max([i, *word]) + 1
    return i < n and _moves_prefix(evaluate_word(word, n), i)


def _moves_prefix(perm, i: int) -> bool:
    """Whether perm does not map {1..i} onto itself, that is s_i <= perm
    in Bruhat order, for 1 <= i < len(perm)."""
    return set(perm[:i]) != set(range(1, i + 1))


def _descending_runs(bounds) -> tuple:
    """The word (s_a, s_{a-1}, ..., s_b) for each (a, b) of ``bounds`` in
    turn, a run being empty when a < b."""
    return tuple(letter for a, b in bounds for letter in range(a, b - 1, -1))


def build_w_sr(params: GrassParams) -> tuple:
    """Reduced word of the minimal coset element with semistable points.

    Block j runs from s+j-1 down to p+j, for j = 1..r-p.  Its coset subset
    is {1..p} union {s+1..s+r-p}, the componentwise-minimal Plücker index
    of nonpositive weight.

    >>> build_w_sr(GrassParams(5, 2, 2))
    (2, 1, 3, 2)
    >>> build_w_sr(GrassParams(3, 2, 2))
    (2,)
    """
    p, r, s = params.p, params.r, params.s
    return _descending_runs((s + j - 1, p + j) for j in range(1, r - p + 1))


def build_w0_coset(params: GrassParams) -> tuple:
    """Reduced word of the maximal coset element, of length r(n-r).

    >>> build_w0_coset(GrassParams(4, 2, 2))
    (2, 1, 3, 2)
    """
    n, r = params.n, params.r
    return _descending_runs((n - r + j - 1, j) for j in range(1, r + 1))


def _w_tilde_parsed(params: GrassParams) -> tuple:
    """Closed-form word of w~: block j = 1..r runs from n-r+j-1 down to j
    when j <= p, and down to s+j-p otherwise."""
    n, r, s, p = params.n, params.r, params.s, params.p
    return _descending_runs((n - r + j - 1, j if j <= p else s + j - p)
                            for j in range(1, r + 1))


def factor_w_tilde(params: GrassParams) -> tuple:
    """The complementary factor w~ with w0^coset = w~ * w_sr, lengths adding.

    Returns the closed-form reduced word of w~, checked against the
    factorization by ``_checked_w_tilde``; a word that fails the check
    raises InvariantViolationError.

    >>> factor_w_tilde(GrassParams(5, 2, 2))
    (3, 4)
    >>> factor_w_tilde(GrassParams(4, 1, 3))
    ()
    """
    w_sr = build_w_sr(params)
    return _checked_w_tilde(params, w_sr, evaluate_word(w_sr, params.n))[0]


def _checked_w_tilde(params: GrassParams, w_sr_word, w_sr) -> tuple:
    """The closed-form word of w~ and its permutation, for w_sr the
    evaluation of ``w_sr_word``, once w~ is reduced, its length and that
    of w_sr add up to the length of w0^coset, and w~ * w_sr = w0^coset;
    otherwise InvariantViolationError.  w~ and w0 are evaluated once each.
    """
    n = params.n
    w0 = build_w0_coset(params)
    word = _w_tilde_parsed(params)
    perm = evaluate_word(word, n)
    if not (len(word) + len(w_sr_word) == len(w0)
            and inversion_count(perm) == len(word)
            and compose(perm, w_sr) == evaluate_word(w0, n)):
        raise InvariantViolationError(
            f"closed-form w~ = {word} does not factor w0 = w~ * w_sr with "
            f"lengths adding for {params}")
    return word, perm
