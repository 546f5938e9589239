"""The configuration triple (n, r, s) threaded through every computation.

``n`` is the ambient dimension, ``r`` the subspace dimension of the
Grassmannian G(r, n), and ``s`` selects the diagonal one-parameter subgroup
with weights n - s (s times) followed by -s (n - s times).  Three derived
integers recur everywhere:

* ``p = floor(r*s / n)``, the number of leading columns in the minimal
  semistable Plücker index, and the last class of nonpositive weight
  (``classes``);
* ``d_min = n / gcd(n, r*s)``, the least degree in which the invariant ring
  can be nonzero;
* ``k``, the ambient simple-root index of the stabilizer parabolic, equal
  to r + s when r + s <= n - 1 and r + s - n when r + s >= n + 1.  At the
  boundary r + s = n there is no such index and ``k`` is None.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class GrassParams:
    n: int
    r: int
    s: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got n={self.n}")
        if not 1 <= self.r <= self.n - 1:
            raise ValueError(f"need 1 <= r <= n-1, got r={self.r}, n={self.n}")
        if not 1 <= self.s <= self.n - 1:
            raise ValueError(f"need 1 <= s <= n-1, got s={self.s}, n={self.n}")

    @property
    def p(self) -> int:
        return (self.r * self.s) // self.n

    @property
    def classes(self) -> range:
        """The classes j = |I meet {1..s}| that r-subsets I of {1..n} take.

        The Plücker coordinate p_I has weight n*j - r*s, which depends on I
        only through its class j.  The weight is positive exactly when
        j > p, and zero exactly when n*j = r*s.

        >>> GrassParams(5, 2, 2).classes, GrassParams(5, 3, 4).classes
        (range(0, 3), range(2, 4))
        """
        return range(max(0, self.r + self.s - self.n), min(self.r, self.s) + 1)

    @property
    def d_min(self) -> int:
        """Least degree d >= 1 with n | r*s*d, the first Plücker degree
        where the invariant ring can be nonzero.

        >>> GrassParams(5, 2, 2).d_min
        5
        >>> GrassParams(4, 2, 2).d_min
        1
        >>> GrassParams(6, 2, 3).d_min
        1
        >>> GrassParams(12, 5, 4).d_min
        3
        """
        return self.n // math.gcd(self.n, self.r * self.s)

    @property
    def boundary(self) -> bool:
        """True when r + s = n, where the stabilizer index degenerates."""
        return self.r + self.s == self.n

    @property
    def k(self):
        """Ambient stabilizer index, or None at the boundary r + s = n."""
        if self.r + self.s <= self.n - 1:
            return self.r + self.s
        if self.r + self.s >= self.n + 1:
            return self.r + self.s - self.n
        return None

    @property
    def fiber_shape(self) -> tuple[int, int]:
        """(s - p, r - p), the matrix-space shape of the minimal-cell quotient."""
        return (self.s - self.p, self.r - self.p)

    def dual(self) -> "GrassParams":
        """Parameters of the orthogonal-complement picture G(n-r, n), s -> n-s."""
        return GrassParams(self.n, self.n - self.r, self.n - self.s)

    def __str__(self):
        return f"(n={self.n}, r={self.r}, s={self.s})"
