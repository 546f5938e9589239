"""The point path of the normality check, kept in tests/oracles.py as an
oracle: minors at random matrices over F_p and the row echelon mod p."""

import random
from itertools import combinations

from oracles import PRIME as P, det_mod_p, echelon_rank, random_minors


def rank_mod_p(matrix):
    """Rank over F_p by plain Gauss-Jordan elimination on lists."""
    rows = [[a % P for a in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], P - 2, P)
        rows[rank] = [a * inv % P for a in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % P for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_three_term_plucker_relations_hold():
    rng = random.Random(5)
    for n in (4, 5, 6):
        for _ in range(5):
            p = random_minors(rng, 2, n)
            for i, j, k, l in combinations(range(1, n + 1), 4):
                relation = (p[i, j] * p[k, l] - p[i, k] * p[j, l]
                            + p[i, l] * p[j, k])
                assert relation % P == 0, (n, i, j, k, l)


def test_laplace_minors_match_gaussian_elimination():
    for n in range(1, 8):
        for r in range(1, n + 1):
            for seed in range(3):
                rng = random.Random(f"{n},{r},{seed}")
                matrix = [[rng.randrange(P) for _ in range(n)] for _ in range(r)]
                expected = {cols: det_mod_p([[row[c - 1] for c in cols] for row in matrix])
                            for cols in combinations(range(1, n + 1), r)}
                minors = random_minors(random.Random(f"{n},{r},{seed}"), r, n)
                assert minors == expected, (n, r, seed)
                assert list(minors) == list(expected), (n, r, seed)


def test_echelon_rank_matches_plain_elimination():
    rng = random.Random(7)
    for trial in range(25):
        length = rng.randint(1, 30)
        base = [[rng.randrange(P) for _ in range(length)]
                for _ in range(rng.randint(1, length))]
        rows = []
        for _ in range(rng.randint(1, 40)):  # combinations of the base rows
            coeffs = [rng.randrange(P) for _ in base]
            rows.append([sum(c * row[j] for c, row in zip(coeffs, base)) % P
                         for j in range(length)])
        rows.append([0] * length)
        expected = rank_mod_p(rows)
        assert echelon_rank(rows, length) == expected, trial
        assert echelon_rank(rows, expected) == expected, trial
        assert echelon_rank(rows, max(expected - 1, 0)) == max(expected - 1, 0)


def test_echelon_rank_reads_no_row_past_the_target():
    read = []

    def rows():
        for i in range(10):
            read.append(i)
            yield [int(i == j) for j in range(10)]

    assert echelon_rank(rows(), 3) == 3
    assert read == [0, 1, 2]
    assert echelon_rank(rows(), 0) == 0
    assert read == [0, 1, 2]


def test_echelon_rank_reads_residues():
    # entries that are negative or at least p are read as their residues:
    # the same rows shifted by random multiples of p keep their rank
    rng = random.Random(11)
    for trial in range(25):
        length = rng.randint(1, 12)
        base = [[rng.randrange(P) for _ in range(length)]
                for _ in range(rng.randint(1, length))]
        rows = []
        for _ in range(rng.randint(1, 15)):  # small combinations of the base rows
            coeffs = [rng.randrange(3) for _ in base]
            rows.append([sum(c * row[j] for c, row in zip(coeffs, base)) % P
                         for j in range(length)])
        shifted = [[a + rng.randint(-3, 3) * P for a in row] for row in rows]
        negated = [[-a for a in row] for row in rows]
        expected = rank_mod_p(rows)
        for family in (shifted, negated):
            assert rank_mod_p(family) == expected, trial
            assert echelon_rank(family, length) == expected, trial
    assert echelon_rank([[P, 2 * P], [-P, 0]], 2) == 0
    assert echelon_rank([[P + 1, -1], [1, P - 1]], 2) == 1


def test_echelon_rank_of_nothing_is_zero():
    assert echelon_rank(iter(()), 3) == 0
    assert echelon_rank([], 3) == 0
    assert echelon_rank([[0, 0, 0]] * 4, 3) == 0
    assert rank_mod_p([[0, 0, 0]] * 4) == rank_mod_p([]) == 0
