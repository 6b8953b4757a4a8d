"""Threads sharing the cached tables must read what a single thread reads.

Each test starts from cold caches (a fresh oracle and context, emptied kernel
triangles), then has 8 threads start the same work at once, or each the work
of its own context on one oracle, under a short interpreter switch interval,
so cache growth interleaves between threads.
"""

import sys
import threading
from fractions import Fraction

from prstirling import kernel
from prstirling.bell import bell_coeffs, bell_dobinski
from prstirling.distparse import parse_dist
from prstirling.kernel import stirling1_signed, stirling2
from prstirling.stirling import StirlingContext, stirling_triangle
from prstirling.witness import (
    prob_r_stirling2,
    prob_r_stirling2_via_conv,
    prob_r_stirling2_via_shift,
    prob_stirling2,
)

THREADS = 8


def run_in_threads(work):
    """Results of `work(i)` from threads i = 0..THREADS-1 released together."""
    results = [None] * THREADS
    start = threading.Barrier(THREADS)

    def run(i):
        start.wait()
        results[i] = work(i)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    return results


def empty_kernel_caches():
    del kernel._S1_ROWS[1:]
    del kernel._S2_ROWS[1:]


def test_threads_sharing_one_cold_oracle_build_the_same_triangle():
    dist, lam, r, n_max = "uniform{0,1,2,3,5}", Fraction(2, 7), 2, 12
    reference = stirling_triangle(StirlingContext(parse_dist(dist), lam, r), n_max)
    empty_kernel_caches()
    ctx = StirlingContext(parse_dist(dist), lam, r)
    assert run_in_threads(lambda _: stirling_triangle(ctx, n_max)) == [reference] * THREADS


def test_threads_sharing_one_cold_oracle_read_the_same_sum_rows():
    # rows j >= 0 of two tables: lam = 2/7 through r = 0 Theorem 2.1 entries
    # (row 0 first), the Bell coefficients and the Dobinski series, then
    # lam = -1/2 read from its deepest entry down; then every Bell row of the
    # shared context, deepest first
    dist, lam, r, other_lam = "uniform{0,1,2,3,5}", Fraction(2, 7), 2, Fraction(-1, 2)

    def work(ctx):
        return (
            [prob_stirling2(ctx.oracle, lam, 12, k) for k in range(13)],
            bell_coeffs(ctx, 12).coefficients,
            bell_dobinski(ctx, 10, 3.0, 1e-9),
            [ctx.oracle.degenerate_factorial_moment(j, n, other_lam) for j in range(20, 0, -1) for n in range(12, -1, -1)],
            [bell_coeffs(ctx, n).coefficients for n in range(12, -1, -1)],
        )

    reference = work(StirlingContext(parse_dist(dist), lam, r))
    empty_kernel_caches()
    ctx = StirlingContext(parse_dist(dist), lam, r)
    assert run_in_threads(lambda _: work(ctx)) == [reference] * THREADS


def test_threads_sharing_one_cold_context_read_the_same_entries():
    # the Theorem 2.1 entries of the context at shift r, and through the
    # shift route those at shift 0, which every thread asks for at once
    dist, lam, r, n_max = "poisson(3/2)", Fraction(-1, 3), 2, 10

    def work(ctx):
        return [
            (prob_r_stirling2(ctx, n, k), prob_r_stirling2_via_shift(ctx, n, k))
            for n in range(n_max, -1, -1)
            for k in range(n + 1)
        ]

    reference = work(StirlingContext(parse_dist(dist), lam, r))
    empty_kernel_caches()
    ctx = StirlingContext(parse_dist(dist), lam, r)
    assert run_in_threads(lambda _: work(ctx)) == [reference] * THREADS


def test_threads_holding_contexts_on_one_cold_oracle_read_the_same_entries():
    # thread i holds the r = i context; the Theorem 2.1 rows at shift 0 that
    # the shift and double-sum routes read are one store shared by all eight
    dist, lam, n_max = "uniform{0,1,2,3,5}", Fraction(2, 7), 8

    def work(ctx):
        return [
            (prob_r_stirling2(ctx, n, k), prob_r_stirling2_via_shift(ctx, n, k), prob_r_stirling2_via_conv(ctx, n, k))
            for n in range(n_max, -1, -1)
            for k in range(n + 1)
        ]

    reference = [work(StirlingContext(parse_dist(dist), lam, r)) for r in range(THREADS)]
    empty_kernel_caches()
    oracle = parse_dist(dist)
    contexts = [StirlingContext(oracle, lam, r) for r in range(THREADS)]
    assert run_in_threads(lambda i: work(contexts[i])) == reference


def test_threads_growing_the_kernel_triangles_read_the_same_rows():
    n_max = 40

    def rows():
        # the top row first, so every thread enters growth at once
        stirling1_signed(n_max, 0), stirling2(n_max, 0)
        return [[(stirling1_signed(n, k), stirling2(n, k)) for k in range(n + 1)] for n in range(n_max + 1)]

    reference = rows()
    empty_kernel_caches()
    assert run_in_threads(lambda _: rows()) == [reference] * THREADS
