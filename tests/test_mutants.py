"""Seeded defects that `verify` must catch.

`verify` checks each identity through routes that are independent above the
exact kernel, so a defect in one route should fail the identities that read
it. Each mutant below patches one function of one layer, then runs every
gating identity over `default_grid(5)` (13,744 checks) and reports each
identity's fail count. A mutant runs in a fresh interpreter, so that no
patched value reaches the kernel's process-global triangles or a store that
another test reads.

A mutant that survives is marked `xfail(strict=True)` with the roadmap item
that will kill it; once that item lands the mutant XPASSes and the marker
has to go. The kernel is shared by both sides of every check, so a kernel
mutant can survive `verify` by design: the kernel reference tests
(`tests/oracles.py`) are its evidence.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Run by the child after the mutant's patch: the patched names are bound
# before `identities` (and through it `bell`) imports them.
SUITE = """
from prstirling.identities import OPT_IN_IDENTITIES, IdentityId, _reports, default_grid
summary = {}
for _ in _reports(default_grid(5), [i for i in IdentityId if i not in OPT_IN_IDENTITIES], summary):
    pass
print(json.dumps({name: [s["fail"], s["total"]] for name, s in summary.items()}))
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

# One row per mutant: the patch, run before the suite, and each failing
# identity's fail count. The unpatched row shows that the patch is what fails.
MUTANTS = [
    pytest.param("", {}, id="unpatched"),
    pytest.param(
        # Poisson E[Y^3] + 1: every route reads the same raw moments, so all
        # 13,744 checks pass
        """
        from prstirling.moments import MomentOracle
        compute = MomentOracle._compute_moment
        def mutant(self, m):
            return compute(self, m) + (1 if self.kind == "poisson" and m == 3 else 0)
        MomentOracle._compute_moment = mutant
        """,
        None,
        id="poisson_raw_moment",
        marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 2: witnesses that do not trust the moment layer"),
    ),
    pytest.param(
        # s(3,1) + 1 where the single-copy row E[(Y)_{k,lam}] reads it
        """
        from prstirling import kernel, moments
        def mutant(n, k):
            return kernel.stirling1_signed(n, k) + (1 if (n, k) == (3, 1) else 0)
        moments.stirling1_signed = mutant
        """,
        {"ReductionY1": 48, "T2_1_vs_T2_2": 248},
        id="single_copy_s1",
    ),
    pytest.param(
        # E[(S_2)_{3,lam}] raised by 1 / D_3 in each table, once, so rows
        # j >= 3 built after it carry it on
        """
        from prstirling.moments import _SumTable
        grow = _SumTable.grow
        def mutant(self, oracle, j, n):
            grow(self, oracle, j, n)
            if len(self.rows) > 2 and len(self.rows[2]) > 3 and not hasattr(self, "mutated"):
                self.rows[2][3] += 1
                self.mutated = True
        _SumTable.grow = mutant
        """,
        {
            "ClassicalLambda0": 11,
            "ReductionY1": 55,
            "T2_1_vs_T2_2": 615,
            "T2_1_vs_T2_3": 359,
            "T2_4": 180,
            "T2_5": 224,
            "T2_6": 969,
            "T2_7": 939,
            "T2_8": 1887,
            "T2_9_corrected": 180,
        },
        id="sum_row_2",
    ),
    pytest.param(
        # entry 1 of each shift-route row raised by 1 at n >= 2, r >= 1
        """
        from prstirling import stirling
        via_shift = stirling._via_shift
        def mutant(ctx, n, k):
            nums, den = via_shift(ctx, n, k)
            if n >= 2 and ctx.r >= 1 and len(nums) > 1:
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
        bell._homogeneous = lambda coeffs, a, b: homogeneous(coeffs, a + 1, b)
        """,
        {"T2_7": 1594},
        id="dobinski_index",
    ),
]


def _run(patch: str) -> dict[str, list[int]]:
    """Each gating identity's [fail, total] with `patch` applied, from a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import json\n" + textwrap.dedent(patch) + SUITE
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("patch, failing", MUTANTS)
def test_verify_fails_the_identities_that_read_the_mutant(patch, failing):
    counts = _run(patch)
    assert {identity: total for identity, (_, total) in counts.items()} == GATING_TOTALS  # every check ran
    fails = {identity: fail for identity, (fail, _) in counts.items() if fail}
    if failing is None:  # a survivor: any gating failure kills it
        assert fails
    else:
        assert fails == failing
