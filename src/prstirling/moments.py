"""Random variables as exact moment sequences, and moments of their iid sums.

A random variable is represented purely by its raw moment sequence. Presets
keep all moments rational; a custom oracle accepts any raw moment sequence, in
which case results are formal moment identities (no positive-definiteness
check). Every downstream formula consumes the degenerate factorial moments
E[(S_j)_{n,lam}] of the sum S_j of j iid copies. As (x)_{n,lam} is of binomial
type, sum_n E[(S_j)_{n,lam}] t^n / n! = (E[e_lam^Y(t)])^j, so each oracle keeps
one table per lam whose row j is the binomial convolution of row j - 1 with
the single-copy row; the lam = 0 table holds the raw sum moments E[S_j^m].
The rows are Python ints over one denominator D_n per order n, shared by
every row, so growing them runs no gcd. The public reads
(`degenerate_factorial_moment`, `sum_moment`) return one reduced Fraction per
entry; the private `_numerators` hands out the integer numerators of a run of
rows at one order over D_n, from which the Theorem 2.1 sum (`stirling`) builds
one Fraction per entry and the Dobinski series (`bell`) one float per term.
"""

from __future__ import annotations

import math
import operator
import threading
from fractions import Fraction
from typing import Sequence

from .kernel import RationalLike, factorial, stirling1_signed, stirling2


class DistributionError(ValueError):
    """Invalid distribution configuration (bad parameters, empty support)."""


class MomentOracle:
    """A random variable presented as the exact sequence m -> E[Y^m].

    Instances compare and hash by (kind, parameters); the moment list and the
    per-lam tables of E[(S_j)_{n,lam}] (integer rows over one denominator per
    order) are derived data that grow on demand for the life of the oracle.
    Growth holds the oracle's lock and appends only finished entries, so
    threads sharing one oracle read the same values a single thread would.
    """

    def __init__(self, kind: str, params: tuple[Fraction, ...], *, formal: bool = False):
        self.kind = kind
        self.params = params
        self.formal = formal
        self._moments: list[Fraction] = [Fraction(1)]
        # _tables[lam] holds E[(S_j)_{n,lam}] for j >= 1; lam = 0 holds E[S_j^n].
        self._tables: dict[Fraction, _SumTable] = {}
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
        return self._entry(Fraction(0), j, m)

    def degenerate_factorial_moment(self, j: int, n: int, lam: RationalLike) -> Fraction:
        """Exact E[(S_j)_{n,lam}] for S_j the sum of j independent copies of Y."""
        if n < 0:
            raise ValueError(f"order must be >= 0, got {n}")
        if j < 0:
            raise ValueError(f"number of summands must be >= 0, got {j}")
        return self._entry(Fraction(lam), j, n)

    def _entry(self, lam: Fraction, j: int, n: int) -> Fraction:
        """E[(S_j)_{n,lam}] from the lam table, grown to (j, n) if needed."""
        if j == 0:  # S_0 = 0
            return Fraction(1 if n == 0 else 0)
        table = self._table(lam, j, n)
        if j == 1:
            return table.single[n]
        return Fraction(table.rows[j][n], table.den[n])

    def _numerators(self, lam: Fraction, first: int, last: int, n: int) -> tuple[list[int], int]:
        """E[(S_j)_{n,lam}] for j = first..last (0 <= first <= last) as the
        unreduced integer numerators over D_n, and D_n: one table lookup and
        one growth check for the whole run, and no gcd. The table grows to
        row 2 at least, as D_n and row 1's numerators are built with it."""
        table = self._table(lam, max(last, 2), n)
        den = table.den[n]
        # S_0 = 0, so E[(S_0)_{n,lam}] is 1 at n = 0 (where D_0 = 1) and 0 after
        return [table.rows[j][n] if j else den * (n == 0) for j in range(first, last + 1)], den

    def _table(self, lam: Fraction, j: int, n: int) -> _SumTable:
        """The lam table, grown to hold E[(S_j)_{n,lam}] (j >= 1)."""
        table = self._tables.get(lam)
        if table is None or not table.holds(j, n):
            with self._lock:
                table = self._tables.setdefault(lam, _SumTable(lam))
                table.grow(self, j, n)
        return table


class _SumTable:
    """E[(S_j)_{k,lam}] for j >= 1, as integers over one denominator per order.

    single[k] = E[(Y)_{k,lam}] has reduced denominator d_k. The order
    denominators are D_0 = 1 and D_k = lcm(d_k, d_q D_{k-q} for 0 < q < k):
    every order-k entry of every row is a sum of products of single-copy
    entries whose orders add up to k, so rows[j][k] = D_k E[(S_j)_{k,lam}] is
    an integer for every j. Row 1 is single[k] D_k; row j >= 2 is the
    binomial convolution of row j - 1 with the single-copy row, through the
    integer weights C(k,q) num(single[q]) D_k / (d_q D_{k-q}). D_k, rows[1]
    and the weights are built to order k only when a row j >= 2 first needs
    it, so reading row 1 costs no more than the single-copy row. rows[0]
    stays empty: row 0 is never stored, as it needs no moment of Y.

    Growth runs under the owning oracle's lock and only appends, D_k before
    any order-k entry, so a reader that sees an entry without the lock also
    sees its denominator.
    """

    def __init__(self, lam: Fraction):
        self.lam = lam
        self.single: list[Fraction] = [Fraction(1)]  # E[(Y)_{0,lam}] = 1
        self.den: list[int] = []
        self.rows: list[list[int]] = [[], []]
        # weights[k][i] is the weight of rows[j - 1][i] in rows[j][k]
        self.weights: list[list[int]] = []

    def holds(self, j: int, n: int) -> bool:
        """Whether E[(S_j)_{n,lam}] (j >= 1) is in the table."""
        if j == 1:
            return n < len(self.single)
        return j < len(self.rows) and n < len(self.rows[j])

    def grow(self, oracle: MomentOracle, j: int, n: int) -> None:
        """Hold rows 1..j to at least order n."""
        lam, single, den, row1 = self.lam, self.single, self.den, self.rows[1]
        for k in range(len(single), n + 1):
            single.append(sum(stirling1_signed(k, q) * lam ** (k - q) * oracle.moment(q) for q in range(k + 1)))
        if j == 1:
            return
        for k in range(len(row1), n + 1):
            f = single[k]
            d = math.lcm(f.denominator, *(single[q].denominator * den[k - q] for q in range(1, k)))
            den.append(d)
            row1.append(f.numerator * (d // f.denominator))
        while len(self.rows) <= j:
            self.rows.append([])
        # row lengths never increase with j, so the rows short of order n
        # are rows[first..j]
        first = max(j, 2)
        while first > 2 and len(self.rows[first - 1]) <= n:
            first -= 1
        for i in range(first, j + 1):
            prev, row = self.rows[i - 1], self.rows[i]
            for k in range(len(row), n + 1):
                row.append(sum(map(operator.mul, self._weights(k), prev)))

    def _weights(self, k: int) -> list[int]:
        weights, single, den = self.weights, self.single, self.den
        for m in range(len(weights), k + 1):
            weights.append([
                math.comb(m, q) * single[q].numerator * (den[m] // (single[q].denominator * den[m - q]))
                for q in range(m, -1, -1)
            ])
        return weights[k]
