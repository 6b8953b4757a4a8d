"""Independent brute-force oracles used only by the tests.

Nothing here calls the production formulas: set partitions are enumerated
directly, moments of iid sums come from exhaustive outcome enumeration, and
polynomial products are expanded term by term.
"""

from fractions import Fraction
from itertools import product
from math import comb, factorial


def set_partitions(n):
    """All partitions of {0, ..., n-1} as lists of blocks."""
    if n == 0:
        yield []
        return
    for smaller in set_partitions(n - 1):
        elem = n - 1
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [elem]] + smaller[i + 1 :]
        yield smaller + [[elem]]


def partition_count(n, k):
    """Number of partitions of an n-set into exactly k nonempty blocks."""
    return sum(1 for p in set_partitions(n) if len(p) == k)


def bell_number(n):
    return sum(1 for _ in set_partitions(n))


def enumerate_sum_moment(support, weights, j, m, lam=0):
    """E[(S)_{m,lam}] for S = Y_1 + ... + Y_j, by exhaustive enumeration over
    support^j, where (s)_{m,lam} = s (s - lam) ... (s - (m-1) lam); lam = 0
    gives the raw moment E[S^m]."""
    total = Fraction(0)
    for outcome in product(range(len(support)), repeat=j):
        prob = Fraction(1)
        s = Fraction(0)
        for i in outcome:
            prob *= weights[i]
            s += support[i]
        value = Fraction(1)
        for i in range(m):
            value *= s - i * Fraction(lam)
        total += prob * value
    return total


def expand_product(points):
    """Monomial coefficients of prod (x - p) for p in points, lowest degree first."""
    coeffs = [Fraction(1)]
    for p in points:
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c
            nxt[k] -= c * Fraction(p)
        coeffs = nxt
    return coeffs


def binomial_powers(single, j):
    """Rows 0..j of the binomial powers of `single`: row 0 is (1, 0, 0, ...)
    and row i is the binomial convolution of row i - 1 with `single`, in plain
    Fractions, to the order of `single`. With single[k] = E[(Y)_{k,lam}], row i
    holds E[(S_i)_{k,lam}] for S_i the sum of i independent copies of Y."""
    rows = [[Fraction(1)] + [Fraction(0)] * (len(single) - 1)]
    for _ in range(j):
        prev = rows[-1]
        rows.append([
            sum((comb(k, q) * prev[q] * single[k - q] for q in range(k + 1)), Fraction(0))
            for k in range(len(single))
        ])
    return rows


def falling_factorial(x, n):
    """(x)_n = x (x - 1) ... (x - (n-1)), multiplied out factor by factor."""
    acc = Fraction(1)
    for i in range(n):
        acc *= Fraction(x) - i
    return acc


def falling_to_monomial(coeffs):
    """Monomial coefficients of sum_k coeffs[k] (x)_k, each (x)_k expanded
    as the product (x - 0)(x - 1)...(x - (k-1))."""
    out = [Fraction(0)] * len(coeffs)
    for k, c in enumerate(coeffs):
        for i, e in enumerate(expand_product(range(k))):
            out[i] += c * e
    return out


def monomial_to_falling(coeffs):
    """Falling-factorial coefficients of sum_k coeffs[k] x^k, by peeling off
    the top degree: (x)_d is monic of degree d."""
    rest = [Fraction(c) for c in coeffs]
    out = [Fraction(0)] * len(rest)
    for d in range(len(rest) - 1, -1, -1):
        out[d] = rest[d]
        for i, e in enumerate(expand_product(range(d))):
            rest[i] -= out[d] * e
    return out


def shift_reference(coeffs, r):
    """Monomial coefficients of sum_n coeffs[n] (x + r)^n, each power
    expanded as a product of n factors (x + r)."""
    out = [Fraction(0)] * len(coeffs)
    for n, c in enumerate(coeffs):
        for i, e in enumerate(expand_product([-r] * n)):
            out[i] += c * e
    return out


def evaluate(coeffs, x):
    """sum_i coeffs[i] x^i, term by term."""
    return sum((Fraction(c) * Fraction(x) ** i for i, c in enumerate(coeffs)), Fraction(0))


# Raw moment references, each to order `upto`: a pmf sum, a support sum, a
# recurrence or a closed form, none through the second-kind triangle.


def binomial_moments(n, p, upto):
    """E[Y^m] = sum_y C(n,y) p^y (1-p)^(n-y) y^m, over the pmf."""
    p = Fraction(p)
    pmf = [comb(n, y) * p**y * (1 - p) ** (n - y) for y in range(n + 1)]
    return [sum((w * y**m for y, w in enumerate(pmf)), Fraction(0)) for m in range(upto + 1)]


def uniform_discrete_moments(support, upto):
    """E[Y^m] as the mean of v^m over the support."""
    return [sum((Fraction(v) ** m for v in support), Fraction(0)) / len(support) for m in range(upto + 1)]


def poisson_moments(mu, upto):
    """E[Y^(m+1)] = mu sum_k C(m,k) E[Y^k]."""
    out = [Fraction(1)]
    for m in range(upto):
        out.append(Fraction(mu) * sum(comb(m, k) * out[k] for k in range(m + 1)))
    return out


def geometric_moments(p, upto):
    """Y on {1, 2, ...}: Y = 1 with probability p, else 1 + Y', so
    p E[Y^m] = p + (1-p) sum_{k<m} C(m,k) E[Y^k]."""
    p = Fraction(p)
    out = [Fraction(1)]
    for m in range(1, upto + 1):
        out.append((p + (1 - p) * sum(comb(m, k) * out[k] for k in range(m))) / p)
    return out


def uniform_continuous_moments(a, b, upto):
    """E[Y^m] = (b^(m+1) - a^(m+1)) / ((m+1) (b-a))."""
    a, b = Fraction(a), Fraction(b)
    return [(b ** (m + 1) - a ** (m + 1)) / ((m + 1) * (b - a)) for m in range(upto + 1)]


def row_values(row):
    """The values of an integer row (numerators, denominator), one Fraction
    each; the denominator must be positive."""
    nums, den = row
    assert type(den) is int and den > 0, den
    return [Fraction(v, den) for v in nums]


def theorem_2_1_entry(moment, shift, n, k):
    """(1/k!) sum_j C(k,j) (-1)^(k-j) moment(j + shift, n), term by term, with
    moment(j, n) = E[(S_j)_{n,lam}] as a Fraction: the Theorem 2.1 sum as
    printed."""
    total = sum(((-1) ** (k - j) * comb(k, j) * moment(j + shift, n) for j in range(k + 1)), Fraction(0))
    return total / factorial(k)
