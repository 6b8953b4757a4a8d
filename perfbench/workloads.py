"""Seeded request streams for the four workloads.

Every stream is a sequence of rounds. A round is stratified: it holds one
request per cost stratum (n range, evaluation point, identity), in an order
that alternates cheap and dear strata. Which kinds of input share a round
follows from the round index alone. Inside a stratum the sizes (n, the
evaluation point) and the output format run through a cycle whose order the
seed picks, so every four consecutive rounds hold the same sizes whatever the
seed; the seed also picks the distributions' parameters. That keeps the cost
of a run nearly the same from seed to seed, so medians over a run are steady,
while the program still sees inputs in an order it has not seen before.

Negative lambda is passed as ``--lambda=-1/2``: the CLI's argparse setup
rejects the two-token form ``--lambda -1/2`` (see NOTES.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

DIST_KINDS = ("poisson", "uniform_discrete", "uniform_continuous", "geometric", "bernoulli", "binomial")
LAMBDA_KINDS = ("negative", "zero", "fractional", "integer")

# |lambda| <= 2 keeps the Dobinski start index n (1 + ceil|lambda|) + r + ceil(x)
# near 120 at n = 30, x = 25.
LAMBDAS = {
    "negative": ("-1/2", "-1", "-3/2"),
    "zero": ("0",),
    "fractional": ("1/3", "1/2", "2/3"),
    "integer": ("1", "2"),
}

# Gating identities of the verify suite (T2_9_paper_form is opt-in, a finding).
GATING_IDS = (
    "T2_1_vs_T2_2", "T2_1_vs_T2_3", "T2_4", "T2_5", "T2_6",
    "T2_7", "T2_8", "T2_9_corrected", "ReductionY1", "ClassicalLambda0",
)


@dataclass
class Request:
    """One CLI request: its argument vector and what its output must look like."""

    argv: list[str]
    params: dict = field(default_factory=dict)


def dist_expr(rng: random.Random, kind: str) -> str:
    """A distribution expression of the given kind with seeded parameters.

    The choices within a kind have the same denominators and about the same
    magnitudes, so they cost about the same to compute with.
    """
    if kind == "poisson":
        return f"poisson({rng.choice(('3/2', '5/2'))})"
    if kind == "uniform_discrete":
        return "uniform{" + ",".join(map(str, [0, *sorted(rng.sample(range(1, 6), 2)), 6])) + "}"
    if kind == "uniform_continuous":
        a = Fraction(rng.randint(0, 1), 2)
        return f"uniform[{a},{a + Fraction(rng.randint(4, 5), 2)}]"
    if kind == "geometric":
        return f"geometric({rng.choice(('2/5', '3/5'))})"
    if kind == "bernoulli":
        return f"bernoulli({rng.choice(('1/3', '2/3'))})"
    if kind == "binomial":
        return f"binomial({rng.randint(280, 320)},{rng.choice(('1/3', '2/3'))})"
    raise ValueError(kind)


class Cycles:
    """Seeded cycles: ``pick(key, options, index)`` runs through ``options`` in
    an order the seed picks once per key, one step per round index."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.orders: dict = {}

    def pick(self, key, options, index: int):
        if key not in self.orders:
            self.orders[key] = self.rng.sample(list(options), len(options))
        order = self.orders[key]
        return order[index % len(order)]


def spread(lo: int, hi: int) -> list[int]:
    """Up to four sizes spread evenly over [lo, hi]."""
    return sorted({round(lo + j * (hi - lo) / 3) for j in range(4)})


# Stratum order inside a round: every prefix mixes cheap and dear requests.
BALANCED = (0, 5, 2, 4, 1, 3)


def _skeleton(index: int, strata: list) -> list[tuple]:
    """The cost skeleton of round `index`: (slot, distribution kind, stratum,
    lambda, r) per request, in request order. It depends on the round index
    only, never on the seed, so runs with different seeds do about the same
    amount of work. Lambda is part of it because its size sets how far the
    Dobinski series must run."""
    out = []
    for slot in BALANCED:
        turn = slot + index
        lams = LAMBDAS[LAMBDA_KINDS[turn % len(LAMBDA_KINDS)]]
        out.append((slot, DIST_KINDS[turn % len(DIST_KINDS)], strata[slot],
                    lams[(turn // len(LAMBDA_KINDS)) % len(lams)], (slot + 2 * index) % 4))
    return out


TABLE_STRATA = [(30, 33), (34, 37), (38, 41), (42, 45), (46, 49), (50, 55)]
TABLE_STRATA_TINY = [(4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10)]


def table_round(rng: random.Random, cycles: Cycles, index: int, tiny: bool) -> list[Request]:
    out = []
    for slot, dist_kind, (lo, hi), lam, r in _skeleton(index, TABLE_STRATA_TINY if tiny else TABLE_STRATA):
        n_max = cycles.pick(("n", slot), spread(lo, hi), index)
        dist = dist_expr(rng, dist_kind)
        fmt = cycles.pick(("format", slot), ("json", "csv"), index)
        argv = ["table", "--n-max", str(n_max), "--r", str(r), f"--lambda={lam}",
                "--dist", dist, "--format", fmt]
        out.append(Request(argv, {"n_max": n_max, "r": r, "lam": lam, "dist": dist, "format": fmt}))
    return out


SERIES_N = [(15, 17), (18, 20), (21, 23), (24, 26), (27, 28), (29, 30)]
SERIES_N_TINY = [(3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)]
# Evaluation points in quarters, so the float and the rational are the same
# number. The point's stratum runs against the degree's (a high degree gets a
# low point): n = 30 at x = 25 costs as much as three other requests, and a
# few such requests make the median of a run jump.
SERIES_X = [(88, 100), (74, 88), (60, 74), (46, 60), (32, 46), (20, 32)]
SERIES_X_TINY = [(14, 16), (12, 14), (10, 12), (8, 10), (6, 8), (4, 6)]
SERIES_TOL = 1e-9
# A series request is cheap, so one round of the stream is three rounds of
# strata: a run of whole rounds then holds the same number of requests
# whatever the machine's speed, and with it the same tail percentile.
SERIES_SUBROUNDS = 3


def series_round(rng: random.Random, cycles: Cycles, index: int, tiny: bool) -> list[Request]:
    ns = SERIES_N_TINY if tiny else SERIES_N
    xs = SERIES_X_TINY if tiny else SERIES_X
    out = []
    for slot, dist_kind, (nlo, nhi), lam, r in _skeleton(index, ns):
        n = cycles.pick(("n", slot), spread(nlo, nhi), index)
        x = Fraction(cycles.pick(("x", slot), spread(*xs[slot]), index), 4)
        dist = dist_expr(rng, dist_kind)
        argv = ["bell", "--n", str(n), "--r", str(r), f"--lambda={lam}", "--dist", dist,
                "--x", str(x), "--dobinski", "--x-float", repr(float(x)), "--tol", repr(SERIES_TOL)]
        out.append(Request(argv, {"n": n, "r": r, "lam": lam, "dist": dist, "x": x, "tol": SERIES_TOL}))
    return out


VERIFY_MAX_N = (5, 6, 7)
VERIFY_MAX_N_TINY = (2, 3, 3)


def verify_round(rng: random.Random, tiny: bool) -> list[Request]:
    """Each gating identity at each of max-n 5, 6 and 7, plus one ``--suite
    all`` at the lowest max-n.

    verify's inputs are only identities and sizes, so every round holds the
    same requests whatever the seed, and every run of whole rounds the same
    mix; the seed picks their order.
    """
    levels = VERIFY_MAX_N_TINY if tiny else VERIFY_MAX_N
    out = [Request(["verify", "--suite", "all", "--max-n", str(levels[0])],
                   {"ids": list(GATING_IDS), "max_n": levels[0]})]
    for ident in GATING_IDS:
        for max_n in levels:
            out.append(Request(["verify", "--suite", ident, "--max-n", str(max_n)],
                               {"ids": [ident], "max_n": max_n}))
    rng.shuffle(out)
    return out


def cli_stream(workload: str, seed: int, tiny: bool) -> Iterator[list[Request]]:
    """Endless sequence of rounds for a CLI workload."""
    rng = random.Random(f"{workload}:{seed}")
    cycles = Cycles(rng)
    index = 0
    while True:
        if workload == "table":
            yield table_round(rng, cycles, index, tiny)
        elif workload == "series":
            yield [req for sub in range(SERIES_SUBROUNDS)
                   for req in series_round(rng, cycles, SERIES_SUBROUNDS * index + sub, tiny)]
        elif workload == "verify":
            yield verify_round(rng, tiny)
        else:
            raise ValueError(workload)
        index += 1


# ---- warm library workload -------------------------------------------------

WARM_SLOTS = 3
# Requests per session by kind. Fixed counts give every session the same mix
# of reads and growth, so sessions (and runs) are comparable.
WARM_MIX = {"row": 165, "bell": 105, "grow": 18, "lambda": 12}
WARM_MIX_TINY = {"row": 20, "bell": 14, "grow": 3, "lambda": 3}


@dataclass
class WarmPlan:
    """A session: the contexts built before timing, then the request stream.

    Each op is a tuple:
      ("row", slot, n)          read triangle row n of the slot's context
      ("bell", slot, n, x)      bell_eval at rational x
      ("grow", slot, n_new)     extend the slot's context to row n_new
      ("lambda", slot, lam)     new lambda on the slot's distribution, built
                                to the slot's current n
    """

    slots: list[dict]
    ops: list[tuple]


def warm_plan(seed: int, session: int, tiny: bool) -> WarmPlan:
    rng = random.Random(f"warm:{seed}:{session}")
    n_base = 5 if tiny else 18
    slots = []
    for i in range(WARM_SLOTS):
        # Like a CLI round, the contexts' shape follows from the session index
        # and the seed picks the distribution's parameters, so set-up costs
        # about the same for every seed.
        turn = session + i
        lams = LAMBDAS[LAMBDA_KINDS[turn % len(LAMBDA_KINDS)]]
        # binomial is left out: its raw moments would dominate set-up
        slots.append({"dist": dist_expr(rng, DIST_KINDS[turn % (len(DIST_KINDS) - 1)]),
                      "lam": lams[session % len(lams)], "r": turn % 4, "n": n_base + 2 * (turn % 3)})
    kinds = [kind for kind, count in (WARM_MIX_TINY if tiny else WARM_MIX).items() for _ in range(count)]
    rng.shuffle(kinds)
    current = [s["n"] for s in slots]
    ops, grows, lambdas = [], 0, 0
    for kind in kinds:
        if kind == "row":
            slot = rng.randrange(WARM_SLOTS)
            ops.append(("row", slot, rng.randint(current[slot] // 2, current[slot])))
        elif kind == "bell":
            slot = rng.randrange(WARM_SLOTS)
            x = Fraction(rng.randint(-8, 24), rng.randint(1, 4))
            ops.append(("bell", slot, rng.randint(current[slot] // 2, current[slot]), str(x)))
        elif kind == "grow":
            slot, grows = grows % WARM_SLOTS, grows + 1
            current[slot] += 1
            ops.append(("grow", slot, current[slot]))
        else:
            slot, lambdas = lambdas % WARM_SLOTS, lambdas + 1
            lam = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.choice((3, 4)))
            ops.append(("lambda", slot, str(lam)))
    return WarmPlan(slots, ops)
