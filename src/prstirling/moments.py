"""Random variables as exact moment sequences, and moments of their iid sums.

A random variable is represented purely by its raw moment sequence. Presets
keep all moments rational; a custom oracle accepts any raw moment sequence, in
which case results are formal moment identities (no positive-definiteness
check). Every downstream formula consumes the degenerate factorial moments
E[(S_j)_{n,lam}] of the sum S_j of j iid copies. As (x)_{n,lam} is of binomial
type, sum_n E[(S_j)_{n,lam}] t^n / n! = (E[e_lam^Y(t)])^j, so each oracle keeps
one table per lam whose row j is the binomial convolution of row j - 1 with
the single-copy row; the lam = 0 table holds the raw sum moments E[S_j^m].
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Sequence

from .kernel import RationalLike, binomial, factorial, stirling1_signed, stirling2


class DistributionError(ValueError):
    """Invalid distribution configuration (bad parameters, empty support)."""


class MomentOracle:
    """A random variable presented as the exact sequence m -> E[Y^m].

    Instances compare and hash by (kind, parameters); the moment list and the
    per-lam tables of E[(S_j)_{n,lam}] are derived data that grow on demand
    for the life of the oracle. Growth holds the oracle's lock and appends
    only finished entries, so threads sharing one oracle read the same values
    a single thread would.
    """

    def __init__(self, kind: str, params: tuple[Fraction, ...], *, formal: bool = False):
        self.kind = kind
        self.params = params
        self.formal = formal
        self._moments: list[Fraction] = [Fraction(1)]
        # _tables[lam][j][n] = E[(S_j)_{n,lam}]; lam = 0 holds E[S_j^n].
        self._tables: dict[Fraction, list[list[Fraction]]] = {}
        self._lock = threading.RLock()

    # ---- constructors -------------------------------------------------

    @staticmethod
    def point(c: RationalLike) -> "MomentOracle":
        """Degenerate distribution at c."""
        return MomentOracle("point", (Fraction(c),))

    @staticmethod
    def bernoulli(p: RationalLike) -> "MomentOracle":
        p = Fraction(p)
        if not 0 <= p <= 1:
            raise DistributionError(f"bernoulli parameter must lie in [0, 1], got {p}")
        return MomentOracle("bernoulli", (p,))

    @staticmethod
    def binomial_dist(n: int, p: RationalLike) -> "MomentOracle":
        p = Fraction(p)
        if n < 0:
            raise DistributionError(f"binomial count must be >= 0, got {n}")
        if not 0 <= p <= 1:
            raise DistributionError(f"binomial parameter must lie in [0, 1], got {p}")
        return MomentOracle("binomial", (Fraction(n), p))

    @staticmethod
    def uniform_discrete(support: Sequence[RationalLike]) -> "MomentOracle":
        if not support:
            raise DistributionError("discrete uniform requires a nonempty support")
        return MomentOracle("uniform_discrete", tuple(Fraction(v) for v in support))

    @staticmethod
    def uniform_continuous(a: RationalLike, b: RationalLike) -> "MomentOracle":
        a, b = Fraction(a), Fraction(b)
        if a >= b:
            raise DistributionError(f"continuous uniform requires a < b, got [{a}, {b}]")
        return MomentOracle("uniform_continuous", (a, b))

    @staticmethod
    def poisson(mu: RationalLike) -> "MomentOracle":
        mu = Fraction(mu)
        if mu < 0:
            raise DistributionError(f"poisson mean must be >= 0, got {mu}")
        return MomentOracle("poisson", (mu,))

    @staticmethod
    def geometric(p: RationalLike) -> "MomentOracle":
        """Geometric on {1, 2, ...} with success probability p."""
        p = Fraction(p)
        if not 0 < p <= 1:
            raise DistributionError(f"geometric parameter must lie in (0, 1], got {p}")
        return MomentOracle("geometric", (p,))

    @staticmethod
    def from_moments(moments: Sequence[RationalLike]) -> "MomentOracle":
        """Custom oracle from raw moments E[Y^0], E[Y^1], ...

        The sequence is taken at face value: identities computed from it hold
        as formal moment identities whether or not a matching random variable
        exists.
        """
        ms = tuple(Fraction(v) for v in moments)
        if not ms:
            raise DistributionError("custom moment sequence must be nonempty")
        if ms[0] != 1:
            raise DistributionError(f"moment of order 0 must equal 1, got {ms[0]}")
        return MomentOracle("moments", ms, formal=True)

    # ---- identity -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MomentOracle):
            return NotImplemented
        return (self.kind, self.params) == (other.kind, other.params)

    def __hash__(self) -> int:
        return hash((self.kind, self.params))

    def __repr__(self) -> str:
        return f"MomentOracle({self.describe()!r})"

    def describe(self) -> str:
        """Canonical expression in the distribution grammar."""
        k, ps = self.kind, self.params
        if k == "point":
            return f"point({ps[0]})"
        if k == "bernoulli":
            return f"bernoulli({ps[0]})"
        if k == "binomial":
            return f"binomial({ps[0].numerator},{ps[1]})"
        if k == "uniform_discrete":
            return "uniform{" + ",".join(str(v) for v in ps) + "}"
        if k == "uniform_continuous":
            return f"uniform[{ps[0]},{ps[1]}]"
        if k == "poisson":
            return f"poisson({ps[0]})"
        if k == "geometric":
            return f"geometric({ps[0]})"
        return "moments[" + ",".join(str(v) for v in ps) + "]"

    # ---- moments ------------------------------------------------------

    def moment(self, m: int) -> Fraction:
        """Exact raw moment E[Y^m]."""
        if m < 0:
            raise ValueError(f"moment order must be >= 0, got {m}")
        if m >= len(self._moments):
            with self._lock:
                while len(self._moments) <= m:
                    self._moments.append(self._compute_moment(len(self._moments)))
        return self._moments[m]

    def _compute_moment(self, m: int) -> Fraction:
        k, ps = self.kind, self.params
        if k == "point":
            return ps[0] ** m
        if k == "bernoulli":
            return ps[0]
        if k == "binomial":
            # E[(X)_j] = (n)_j p^j, converted through the second-kind triangle
            # to raw moments; (n)_j = 0 for j > n.
            n, p = ps[0].numerator, ps[1]
            return sum((stirling2(m, j) * math.perm(n, j) * p**j for j in range(min(m, n) + 1)), Fraction(0))
        if k == "uniform_discrete":
            return sum((v**m for v in ps), Fraction(0)) / len(ps)
        if k == "uniform_continuous":
            a, b = ps
            return (b ** (m + 1) - a ** (m + 1)) / ((m + 1) * (b - a))
        if k == "poisson":
            mu = ps[0]
            return sum((stirling2(m, j) * mu**j for j in range(m + 1)), Fraction(0))
        if k == "geometric":
            # E[(X)_j] = j! (1-p)^(j-1) / p^j for j >= 1, converted through
            # the second-kind triangle to raw moments.
            p = ps[0]
            return sum(
                (stirling2(m, j) * factorial(j) * (1 - p) ** (j - 1) / p**j for j in range(1, m + 1)),
                Fraction(0),
            )
        # custom sequence
        if m >= len(ps):
            raise DistributionError(
                f"custom oracle provides moments up to order {len(ps) - 1}, requested {m}"
            )
        return ps[m]

    def sum_moment(self, j: int, m: int) -> Fraction:
        """Exact E[S_j^m] for S_j the sum of j independent copies of Y: the
        lam = 0 entry of the degenerate factorial moment table."""
        if j < 0 or m < 0:
            raise ValueError(f"sum_moment requires j, m >= 0, got ({j}, {m})")
        return self._row(Fraction(0), j, m)[m]

    def degenerate_factorial_moment(self, j: int, n: int, lam: RationalLike) -> Fraction:
        """Exact E[(S_j)_{n,lam}] for S_j the sum of j independent copies of Y."""
        if n < 0:
            raise ValueError(f"order must be >= 0, got {n}")
        if j < 0:
            raise ValueError(f"number of summands must be >= 0, got {j}")
        return self._row(Fraction(lam), j, n)[n]

    def _row(self, lam: Fraction, j: int, n: int) -> list[Fraction]:
        """Row j of the lam table, holding at least orders 0..n."""
        rows = self._tables.get(lam)
        if rows is not None and j < len(rows) and n < len(rows[j]):
            return rows[j]
        with self._lock:
            rows = self._tables.setdefault(lam, [])
            while len(rows) <= j:
                rows.append([Fraction(1)])
            # Entries are appended only once computed, so a reader that sees
            # an index without taking the lock sees its final value.
            for i, row in enumerate(rows[: j + 1]):
                for k in range(len(row), n + 1):
                    if i == 0:  # S_0 = 0
                        row.append(Fraction(0))
                    elif i == 1:  # first-kind expansion of (Y)_{k,lam}
                        row.append(
                            sum(stirling1_signed(k, q) * lam ** (k - q) * self.moment(q) for q in range(k + 1))
                        )
                    else:  # binomial convolution of S_{i-1} with one copy
                        row.append(sum(binomial(k, q) * rows[i - 1][q] * rows[1][k - q] for q in range(k + 1)))
            return rows[j]
