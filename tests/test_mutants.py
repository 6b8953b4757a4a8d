"""Seeded defects that `verify` must catch.

`verify` checks each identity through routes that are independent above the
exact kernel, so a defect in one route should fail the identities that read
it. Each mutant below patches one function of one layer, then runs every
gating identity over `default_grid(5)` (13,744 checks) and reports each
identity's fail count. A mutant runs in a fresh interpreter, so that no
patched value reaches the kernel's process-global triangles or a store that
another test reads.

Each mutant counts the calls that apply its defect, and a mutant that is
never reached fails, as does one whose interpreter fails to run. A mutant
that survives is marked `xfail(strict=True, raises=Survived)` with the
roadmap item that will kill it: only a clean run that no gating identity
fails is its expected failure, and once that item lands the mutant XPASSes
and the marker has to go. The kernel is shared by both sides of every
check, so a kernel mutant can survive `verify` by design: the kernel
reference tests (`tests/oracles.py`) are its evidence.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Run by the child before the mutant's patch; the patch adds 1 to `calls`
# each time it applies its defect.
PRELUDE = """
import json
calls = 0
"""

# Run by the child after the mutant's patch: the patched names are bound
# before `identities` imports them, or its T2_6 and T2_7 checkers import
# theirs from `bell`.
SUITE = """
from prstirling.identities import OPT_IN_IDENTITIES, IdentityId, _reports, default_grid
summary = {}
for _ in _reports(default_grid(5), [i for i in IdentityId if i not in OPT_IN_IDENTITIES], summary):
    pass
print(json.dumps([calls, {name: [s["fail"], s["total"]] for name, s in summary.items()}]))
"""

GATING_TOTALS = {
    "ClassicalLambda0": 24,
    "ReductionY1": 120,
    "T2_1_vs_T2_2": 1680,
    "T2_1_vs_T2_3": 1680,
    "T2_4": 480,
    "T2_5": 480,
    "T2_6": 2400,
    "T2_7": 1920,
    "T2_8": 4480,
    "T2_9_corrected": 480,
}


class Survived(Exception):
    """A mutant ran, was reached, and no gating identity failed."""


# One row per mutant: the patch, run before the suite, and each failing
# identity's fail count. The unpatched row shows that the patch is what fails.
MUTANTS = [
    pytest.param("", {}, id="unpatched"),
    pytest.param(
        # Poisson E[Y^3] + 1 in the raw-moment function its constructor makes,
        # reached through the grammar row the parser reads: every route reads
        # the same raw moments, so all 13,744 checks pass
        """
        from prstirling.moments import GRAMMAR, MomentOracle
        def mutant(mu):
            oracle = MomentOracle.poisson(mu)
            raw = oracle._raw
            def mutated(m):
                global calls
                calls += m == 3
                return raw(m) + (1 if m == 3 else 0)
            oracle._raw = mutated
            return oracle
        GRAMMAR["poisson"] = GRAMMAR["poisson"]._replace(make=mutant)
        """,
        None,
        id="poisson_raw_moment",
        marks=pytest.mark.xfail(
            strict=True, raises=Survived, reason="ROADMAP item 2: witnesses that do not trust the moment layer"
        ),
    ),
    pytest.param(
        # s(3,1) + 1 where the single-copy row E[(Y)_{k,lam}] reads it
        """
        from prstirling import kernel, moments
        def mutant(n, k):
            global calls
            calls += (n, k) == (3, 1)
            return kernel.stirling1_signed(n, k) + (1 if (n, k) == (3, 1) else 0)
        moments.stirling1_signed = mutant
        """,
        {"ReductionY1": 48, "T2_1_vs_T2_2": 248},
        id="single_copy_s1",
    ),
    pytest.param(
        # E[(S_2)_{3,lam}] raised by 1 / D_3 in each table, once, as soon
        # as row 2 reaches order 3 and before any row j >= 3 is built past
        # order 2, so every row j >= 3 is built from it
        """
        from prstirling.moments import _SumTable
        grow = _SumTable.grow
        def mutant(self, oracle, j, n):
            global calls
            if not hasattr(self, "mutated"):
                grow(self, oracle, min(j, 2), n)
                if len(self.rows) > 2 and len(self.rows[2]) > 3:
                    calls += 1
                    self.rows[2][3] += 1
                    self.mutated = True
            grow(self, oracle, j, n)
        _SumTable.grow = mutant
        """,
        {
            "ClassicalLambda0": 12,
            "ReductionY1": 60,
            "T2_1_vs_T2_2": 591,
            "T2_1_vs_T2_3": 353,
            "T2_4": 179,
            "T2_5": 240,
            "T2_6": 1014,
            "T2_7": 939,
            "T2_8": 1829,
            "T2_9_corrected": 179,
        },
        id="sum_row_2",
    ),
    pytest.param(
        # entry 1 of each shift-route row raised by 1 at n >= 2, r >= 1
        """
        from prstirling import stirling
        via_shift = stirling._via_shift
        def mutant(ctx, n, k):
            global calls
            nums, den = via_shift(ctx, n, k)
            if n >= 2 and ctx.r >= 1 and len(nums) > 1:
                calls += 1
                nums = [nums[0], nums[1] + den, *nums[2:]]
            return stirling.Row(nums, den)
        stirling._via_shift = mutant
        """,
        {"T2_1_vs_T2_3": 240, "T2_8": 597},
        id="via_shift",
    ),
    pytest.param(
        # the Dobinski series reads E[(S_{k+r+1})_{n,lam}] for its term k
        """
        from prstirling import bell
        homogeneous = bell._homogeneous
        def mutant(coeffs, a, b):
            global calls
            calls += 1
            return homogeneous(coeffs, a + 1, b)
        bell._homogeneous = mutant
        """,
        {"T2_7": 1594},
        id="dobinski_index",
    ),
]


def _run(patch: str) -> tuple[int, dict[str, list[int]]]:
    """The calls that applied the defect and each gating identity's
    [fail, total] with `patch` applied, from a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = PRELUDE + textwrap.dedent(patch) + SUITE
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    calls, counts = json.loads(proc.stdout.splitlines()[-1])
    return calls, counts


def check_mutant(patch: str, failing: dict[str, int] | None) -> None:
    """Raise `Survived` if a reached mutant fails no gating identity, and
    fail an assertion on anything else that is not `failing`."""
    calls, counts = _run(patch)
    assert calls > 0 if patch else calls == 0, "the patch was never reached"
    assert {identity: total for identity, (_, total) in counts.items()} == GATING_TOTALS  # every check ran
    fails = {identity: fail for identity, (fail, _) in counts.items() if fail}
    if failing is None:  # a survivor: any gating failure kills it
        if not fails:
            raise Survived(f"{calls} calls applied the defect")
    else:
        assert fails == failing


@pytest.mark.parametrize("patch, failing", MUTANTS)
def test_verify_fails_the_identities_that_read_the_mutant(patch, failing):
    check_mutant(patch, failing)


@pytest.mark.parametrize(
    "patch",
    [
        # a target that is not there: the child fails before the suite runs
        """
        from prstirling.moments import MomentOracle
        MomentOracle._compute_moment
        """,
        # a target that the gating identities never call
        """
        from prstirling import moments
        poisson = moments.MomentOracle.poisson
        def mutant(mu):
            global calls
            calls += 1
            return poisson(mu)
        moments.MomentOracle.poisson = staticmethod(mutant)
        """,
    ],
    ids=["missing_target", "unreached"],
)
def test_a_mutant_that_crashes_or_is_never_reached_is_no_survivor(patch):
    """Neither counts as the expected failure of a strict xfail survivor."""
    with pytest.raises(AssertionError):
        check_mutant(patch, None)
