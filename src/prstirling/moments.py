"""Random variables as exact moment sequences, and moments of their iid sums.

A random variable is represented purely by its raw moment sequence. Presets
keep all moments rational; a custom oracle accepts any raw moment sequence, in
which case results are formal moment identities (no positive-definiteness
check). A family is one constructor, which checks the parameters and hands
the oracle its raw-moment function m -> E[Y^m], and one row of syntax in the
grammar `GRAMMAR`, which the parser (`distparse`) walks and `describe` prints
through. A preset's moment of order m is one integer sum over one denominator
(b^m for a binomial or Poisson parameter a/b, a^m for a geometric one, L^m
over the common denominator L of a uniform's points), made one Fraction.

Every downstream formula consumes the degenerate factorial moments
E[(S_j)_{n,lam}] of the sum S_j of j iid copies. As (x)_{n,lam} is of binomial
type, sum_n E[(S_j)_{n,lam}] t^n / n! = (E[e_lam^Y(t)])^j, so each oracle keeps
one table per lam whose row 0 is the series 1 and whose row j >= 1 is the
binomial convolution of row j - 1 with the single-copy row; the lam = 0 table
holds the raw sum moments E[S_j^m]. The rows are ints over one denominator
D_n per order n (`_SumTable`), a layout no other module reads. The public
reads return one reduced Fraction per entry. The private reads return
`kernel.Row`s: `_single_row` the single-copy row (all the generating function
reads, grown alone), `_sum_row` a row j, and `_differences` the Theorem 2.1
rows (`stirling`) by integer differences, kept in the table for every context.
"""

from __future__ import annotations

import math
import operator
import threading
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .kernel import RationalLike, Row, _homogeneous, _over_lcm, factorial, stirling1_signed, stirling2


class DistributionError(ValueError):
    """Invalid distribution configuration (bad parameters, empty support)."""


class MomentOracle:
    """A random variable presented as the exact sequence m -> E[Y^m].

    Instances compare and hash by (kind, parameters); the moment list and the
    per-lam tables of E[(S_j)_{n,lam}] (integer rows over one denominator per
    order, and Theorem 2.1 rows) are derived data that grow on demand for the
    life of the oracle. Growth holds the oracle's lock and appends only
    finished entries, so threads sharing one oracle read the same values a
    single thread would.
    """

    def __init__(self, kind: str, params: tuple[Fraction, ...], raw: Callable[[int], Fraction]):
        self.kind = kind
        self.params = params
        self._raw = raw  # m -> E[Y^m] for m >= 1, made by the constructor
        self._moments: list[Fraction] = [Fraction(1)]
        # _tables[num, den of lam] holds E[(S_j)_{n,lam}]; lam = 0 holds E[S_j^n].
        self._tables: dict[tuple[int, int], _SumTable] = {}
        self._lock = threading.RLock()

    # ---- constructors -------------------------------------------------

    @staticmethod
    def point(c: RationalLike) -> "MomentOracle":
        """Degenerate distribution at c."""
        c = Fraction(c)
        return MomentOracle("point", (c,), lambda m: c**m)

    @staticmethod
    def bernoulli(p: RationalLike) -> "MomentOracle":
        p = Fraction(p)
        if not 0 <= p <= 1:
            raise DistributionError(f"bernoulli parameter must lie in [0, 1], got {p}")
        return MomentOracle("bernoulli", (p,), lambda m: p)

    @staticmethod
    def binomial_dist(n: int, p: RationalLike) -> "MomentOracle":
        p = Fraction(p)
        if not isinstance(n, int):
            raise DistributionError(f"binomial count must be an integer, got {n!r}")
        if n < 0:
            raise DistributionError(f"binomial count must be >= 0, got {n}")
        if not 0 <= p <= 1:
            raise DistributionError(f"binomial parameter must lie in [0, 1], got {p}")
        a, b = p.numerator, p.denominator

        def raw(m: int) -> Fraction:
            # E[(X)_j] = (n)_j p^j, converted through the second-kind triangle
            # to raw moments; (n)_j = 0 for j > n. With p = a/b the sum is
            # sum_j S2(m,j) (n)_j a^j b^(m-j) over b^m.
            return Fraction(_homogeneous([stirling2(m, j) * math.perm(n, j) for j in range(m + 1)], a, b), b**m)

        return MomentOracle("binomial", (Fraction(n), p), raw)

    @staticmethod
    def uniform_discrete(support: Sequence[RationalLike]) -> "MomentOracle":
        points = tuple(Fraction(v) for v in support)
        if not points:
            raise DistributionError("discrete uniform requires a nonempty support")
        vs, den = _over_lcm(points)  # the points V_i / L over their common denominator L
        return MomentOracle("uniform_discrete", points, lambda m: Fraction(sum([v**m for v in vs]), den**m * len(vs)))

    @staticmethod
    def uniform_continuous(a: RationalLike, b: RationalLike) -> "MomentOracle":
        a, b = Fraction(a), Fraction(b)
        if a >= b:
            raise DistributionError(f"continuous uniform requires a < b, got [{a}, {b}]")
        (lo, hi), den = _over_lcm((a, b))

        def raw(m: int) -> Fraction:
            # [A/L, B/L]: (B^(m+1) - A^(m+1)) over (m+1) (B - A) L^m
            return Fraction(hi ** (m + 1) - lo ** (m + 1), (m + 1) * (hi - lo) * den**m)

        return MomentOracle("uniform_continuous", (a, b), raw)

    @staticmethod
    def poisson(mu: RationalLike) -> "MomentOracle":
        mu = Fraction(mu)
        if mu < 0:
            raise DistributionError(f"poisson mean must be >= 0, got {mu}")
        a, b = mu.numerator, mu.denominator

        def raw(m: int) -> Fraction:
            # E[(X)_j] = mu^j; with mu = a/b, sum_j S2(m,j) a^j b^(m-j) over b^m
            return Fraction(_homogeneous([stirling2(m, j) for j in range(m + 1)], a, b), b**m)

        return MomentOracle("poisson", (mu,), raw)

    @staticmethod
    def geometric(p: RationalLike) -> "MomentOracle":
        """Geometric on {1, 2, ...} with success probability p."""
        p = Fraction(p)
        if not 0 < p <= 1:
            raise DistributionError(f"geometric parameter must lie in (0, 1], got {p}")
        a, b = p.numerator, p.denominator

        def raw(m: int) -> Fraction:
            # E[(X)_j] = j! (1-p)^(j-1) / p^j for j >= 1, converted through
            # the second-kind triangle to raw moments; with p = a/b the sum
            # is b sum_{j>=1} S2(m,j) j! (b-a)^(j-1) a^(m-j) over a^m.
            return Fraction(b * _homogeneous([stirling2(m, j) * factorial(j) for j in range(1, m + 1)], b - a, a), a**m)

        return MomentOracle("geometric", (p,), raw)

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

        def raw(m: int) -> Fraction:
            if m >= len(ms):
                raise DistributionError(f"custom oracle provides moments up to order {len(ms) - 1}, requested {m}")
            return ms[m]

        return MomentOracle("moments", ms, raw)

    # ---- identity -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MomentOracle):
            return NotImplemented
        return (self.kind, self.params) == (other.kind, other.params)

    def __hash__(self) -> int:
        return hash((self.kind, self.params))

    def __repr__(self) -> str:
        return f"MomentOracle({self.describe()!r})"

    @property
    def formal(self) -> bool:
        """Whether the moments are a custom sequence taken at face value."""
        return self.kind == "moments"

    def describe(self) -> str:
        """Canonical expression in the distribution grammar."""
        family = GRAMMAR[self.kind]
        return family.name + family.opening + ",".join(map(str, self.params)) + family.closing

    # ---- moments ------------------------------------------------------

    def moment(self, m: int) -> Fraction:
        """Exact raw moment E[Y^m]."""
        if m < 0:
            raise ValueError(f"moment order must be >= 0, got {m}")
        if m >= len(self._moments):
            with self._lock:
                while len(self._moments) <= m:
                    self._moments.append(self._raw(len(self._moments)))
        return self._moments[m]

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
        if j == 0:  # S_0 = 0, which needs no moment of Y
            return Fraction(1 if n == 0 else 0)
        if j == 1:  # `single` alone, not rows[1], which is built through the weights
            return self._table(lam, -1, n).single[n]
        table = self._table(lam, j, n)
        return Fraction(table.rows[j][n], table.den[n])

    def _single_row(self, lam: Fraction, n: int) -> Row:
        """E[(Y)_{m,lam}], m = 0..n, over the lcm of their denominators."""
        return _over_lcm(self._table(lam, -1, n).single[: n + 1])

    def _sum_row(self, lam: Fraction, j: int, n: int) -> Row:
        """E[(S_j)_{m,lam}], m = 0..n, over D_n (each D_m divides it)."""
        table = self._table(lam, j, n)
        den = table.den
        return Row([v * (den[n] // den[m]) for m, v in enumerate(table.rows[j][: n + 1])], den[n])

    def _differences(self, lam: Fraction, shift: int, n: int, k: int) -> Row:
        """Entries 0..min(k, n), at least, of i -> (1/i!) Delta^i at j = shift
        of j -> E[(S_j)_{n,lam}], that is of Theorem 2.1 row n at that shift,
        S^(shift,Y)(n+shift, i+shift) = (1/i!) sum_j C(i,j) (-1)^(i-j) E[(S_{j+shift})_{n,lam}].
        Kept in the lam table under (shift, n); a miss differences rows
        shift..shift+k, or past a kept prefix all of row n (k = n), over D_n,
        all entries over D_n k! reduced by their gcd. Threads read equal rows."""
        table = self._tables.get((lam.numerator, lam.denominator))
        row = table.differences.get((shift, n)) if table else None
        if row is None or len(row.nums) <= min(k, n):
            k = min(k, n) if row is None else n
            table = self._table(lam, shift + k, n)
            diffs, nums, den = [r[n] for r in table.rows[shift : shift + k + 1]], [], factorial(k) * table.den[n]
            for i in range(k + 1):
                nums.append(diffs[0] * math.perm(k, k - i))  # k!/i!
                diffs = [b - a for a, b in zip(diffs, diffs[1:])]
            g = math.gcd(den, *nums)
            row = table.differences[shift, n] = Row(tuple([v // g for v in nums]), den // g)
        return row

    def _table(self, lam: Fraction, j: int, n: int) -> _SumTable:
        """The lam table, grown to hold E[(S_j)_{n,lam}], or for j = -1 E[(Y)_{n,lam}]."""
        # keyed by two ints, not the Fraction: Fraction.__hash__ is pure
        # Python, and every moment read looks a table up
        key = (lam.numerator, lam.denominator)
        table = self._tables.get(key)
        if table is None or not table.holds(j, n):
            with self._lock:
                table = self._tables.get(key) or self._tables.setdefault(key, _SumTable(lam))
                table.grow(self, j, n)
        return table


class Family(NamedTuple):
    """One production of the distribution grammar,
    `name opening arg "," arg ... closing`, syntax only: the family's checks
    and moments live in `make`, its constructor. `args` holds the type of each
    argument, int or Fraction; (Fraction, ...) is a nonempty list of
    rationals, passed to `make` as one sequence."""

    name: str
    opening: str
    closing: str
    args: tuple
    make: Callable[..., MomentOracle]


# kind -> family; two kinds may share a name if their openings differ
GRAMMAR: dict[str, Family] = {
    "point": Family("point", "(", ")", (Fraction,), MomentOracle.point),
    "bernoulli": Family("bernoulli", "(", ")", (Fraction,), MomentOracle.bernoulli),
    "binomial": Family("binomial", "(", ")", (int, Fraction), MomentOracle.binomial_dist),
    "uniform_discrete": Family("uniform", "{", "}", (Fraction, ...), MomentOracle.uniform_discrete),
    "uniform_continuous": Family("uniform", "[", "]", (Fraction, Fraction), MomentOracle.uniform_continuous),
    "poisson": Family("poisson", "(", ")", (Fraction,), MomentOracle.poisson),
    "geometric": Family("geometric", "(", ")", (Fraction,), MomentOracle.geometric),
    "moments": Family("moments", "[", "]", (Fraction, ...), MomentOracle.from_moments),
}


class _SumTable:
    """E[(S_j)_{k,lam}] for j >= 0, as integers over one denominator per order.

    single[k] = E[(Y)_{k,lam}], of reduced denominator d_k, is one integer
    sum made one Fraction (see `grow`). The order denominators are D_0 = 1
    and D_k = lcm(d_k, d_q D_{k-q} for 0 < q < k): an order-k entry of any row
    is a sum of products of single-copy entries whose orders add up to k, so
    rows[j][k] = D_k E[(S_j)_{k,lam}] is an integer. Row 0 is the series 1
    (S_0 = 0), and row j >= 1 is the binomial convolution of row j - 1 with
    the single-copy row through the integer weights
    C(k,q) num(single[q]) D_k / (d_q D_{k-q}); so row 1 is single[k] D_k.

    `single` grows alone for a single-copy read (the generating function,
    E[(S_1)_{n,lam}]); D_k and the weights are made from it only when a row is
    read. Growth runs under the owning oracle's lock and only appends:
    single[k], D_k and the order-k weights come before any order-k entry of a
    row, so a reader that sees an entry without the lock also sees its
    denominator.
    """

    def __init__(self, lam: Fraction):
        self.lam = lam
        self.single: list[Fraction] = [Fraction(1)]  # E[(Y)_{0,lam}] = 1
        self.den: list[int] = [1]
        self.rows: list[list[int]] = [[1]]
        # weights[k][i] is the weight of rows[j - 1][i] in rows[j][k]
        self.weights: list[list[int]] = [[1]]
        self.differences: dict[tuple[int, int], Row] = {}  # see `_differences`

    def holds(self, j: int, n: int) -> bool:
        """Whether E[(S_j)_{n,lam}] is in the table; for j = -1, E[(Y)_{n,lam}]."""
        return n < len(self.single) if j < 0 else j < len(self.rows) and n < len(self.rows[j])

    def grow(self, oracle: MomentOracle, j: int, n: int) -> None:
        """Hold `single` and rows 0..j (none for j = -1) to at least order n."""
        lam, single, den, weights, rows = self.lam, self.single, self.den, self.weights, self.rows
        if len(single) <= n:
            # lam = p/c: E[(Y)_{k,lam}] = sum_q s1(k,q) p^(k-q) c^q (M E[Y^q])
            # over c^k M, M the lcm of the raw moment denominators to order n
            p, c = lam.numerator, lam.denominator
            moments, m_den = _over_lcm([oracle.moment(q) for q in range(n + 1)])
            for k in range(len(single), n + 1):
                coeffs = [stirling1_signed(k, q) * v for q, v in enumerate(moments[: k + 1])]
                single.append(Fraction(_homogeneous(coeffs, c, p), c**k * m_den))
        if j < 0:
            return
        for k in range(len(den), n + 1):
            d = math.lcm(single[k].denominator, *(single[q].denominator * den[k - q] for q in range(1, k)))
            den.append(d)
            weights.append([
                math.comb(k, q) * single[q].numerator * (d // (single[q].denominator * den[k - q]))
                for q in range(k, -1, -1)
            ])
            rows[0].append(0)
        while len(rows) <= j:
            rows.append([])
        # row lengths never increase with the row index, so rows 1..j that
        # already reach order n come first; start at the first that does not
        start = max(j, 1)
        while start > 1 and len(rows[start - 1]) <= n:
            start -= 1
        for i in range(start, j + 1):
            prev, row = rows[i - 1], rows[i]
            for k in range(len(row), n + 1):
                row.append(sum(map(operator.mul, weights[k], prev)))
