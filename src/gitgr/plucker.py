"""Plücker coordinates evaluated over the prime field F_p, p = 2^31 - 1.

A Plücker coordinate p_I is the r x r minor on columns I of an r x n
matrix, so a Plücker monomial is a polynomial function on r x n matrices
and every Plücker relation holds identically.  Instead of expanding those
polynomials, this module evaluates minors at seeded random matrices over
F_p and measures the span of a family of functions by the rank of their
values at a set of points.  All the minors of one matrix come from one
Laplace expansion, row by row, and ``echelon_rank`` is the one Gaussian
elimination: plain row reduction of lists of residues mod p, one row at a
time.

The rank of an evaluation matrix over F_p never exceeds the rank over Q of
the functions themselves (reduction mod p and restriction to finitely many
points can only lose rank), so a rank that reaches a known upper bound
certifies that bound; a shortfall certifies nothing.  A nonzero function
vanishes at a random point with probability at most its degree over p
(Schwartz 1980; Zippel 1979), so a shortfall is rare when the true rank is
full.  All arithmetic is on Python integers.
"""

from itertools import combinations

__all__ = ["PRIME", "random_minors", "echelon_rank"]

#: The prime of the field every value lives in, the Mersenne prime 2^31 - 1.
PRIME = 2**31 - 1


def random_minors(rng, r: int, n: int) -> dict:
    """Every r x r minor mod PRIME of one random r x n matrix drawn from ``rng``.

    The entries are uniform in F_p.  The result maps each sorted r-subset
    of {1..n} to the minor on those columns.  The k x k minors of the
    first k rows are built from the (k-1) x (k-1) minors of the first k-1
    rows by Laplace expansion along row k: the minor on columns
    c_1 < ... < c_k is the sum over j of (-1)^(k+j) a_(k, c_j) times the
    minor on the columns without c_j.  That is k products per minor, with
    no division and no pivoting.

    >>> import random
    >>> minors = random_minors(random.Random(0), 2, 3)
    >>> sorted(minors)
    [(1, 2), (1, 3), (2, 3)]
    >>> minors == random_minors(random.Random(0), 2, 3)
    True
    """
    matrix = [[rng.randrange(PRIME) for _ in range(n)] for _ in range(r)]
    minors = {(): 1}
    for k, row in enumerate(matrix, 1):
        minors = {cols: sum((-1) ** (k - 1 - j) * row[c - 1]
                            * minors[cols[:j] + cols[j + 1:]]
                            for j, c in enumerate(cols)) % PRIME
                  for cols in combinations(range(1, n + 1), k)}
    return minors


def echelon_rank(rows, target: int) -> int:
    """Rank over F_p of ``rows``, read one row at a time, capped at ``target``.

    Each row is reduced mod p, then against the pivot rows kept so far in
    the order they were kept: where the row has a nonzero entry f at a
    pivot's column, f times that pivot row is subtracted.  A kept pivot row
    is zero at the columns of the pivots before it, so each step clears one
    column for good.  Whatever is left is kept as a new pivot row, scaled
    to 1 at its first nonzero column.  Reading stops as soon as the rank
    reaches ``target``, so at most ``target`` rows are held at once and the
    rows after that point are never produced.  All rows have one length.

    >>> echelon_rank([[1, 2], [2, 4], [0, 1]], 2)
    2
    >>> echelon_rank([[1, 2], [2, 4]], 2)
    1
    >>> echelon_rank([[-1, PRIME - 2], [1, PRIME + 2]], 2)
    1
    """
    if target <= 0:
        return 0
    pivots = []  # (column, row scaled to 1 at that column)
    for row in rows:
        row = [a % PRIME for a in row]
        for col, pivot in pivots:
            f = row[col]
            if f:
                row = [(a - f * b) % PRIME for a, b in zip(row, pivot)]
        col = next((j for j, a in enumerate(row) if a), None)
        if col is None:
            continue
        inv = pow(row[col], PRIME - 2, PRIME)
        pivots.append((col, [a * inv % PRIME for a in row]))
        if len(pivots) == target:
            break
    return len(pivots)
