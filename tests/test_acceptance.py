"""The acceptance gate: every criterion of the suite, one test each.

Every check is an exact identity (zero tolerance); the stated windows are
pinned inside affschur.verify.  Each test prints its own pass/fail line so a
plain `pytest -s tests/test_acceptance.py` reads as a checklist.
"""

import pytest

from affschur.verify import CRITERIA, run_criterion

# Each criterion's summary names what it checked and how many cases, so a
# change that checks fewer (or other) cases shows here even when it passes.
SUMMARIES = {
    "C01-kl-bar-oracle": "bar-invariance and degree bound on 704 KL pairs",
    "C02-h-positivity-symmetry": "882 structure constants nonnegative and bar-symmetric",
    "C03-exact-division": "21077 exact divisions over 10425 composable pairs, all in N[t,1/t]",
    "C04-two-route-products": "two multiplication routes agree on 10450 pairs",
    "C05-dimension-statistic": "both d_A routes agree on 5521 matrices",
    "C06-theta-on-parabolic-c": "theta_B(C_w0mu) = C_w+ for 165 matrices",
    "C07-bar-fixes-theta": "bar fixes all 165 theta_B",
    "C08-idempotent-fast-paths": "idempotent holds; fast paths agree on 325+325 applicable pairs",
    "C09-distinguished-involutions": "D = {e, s0, s1} certified; identity and associativity on 27 basis elements",
    "C10-lowest-cell-counts": "left-cell counts 4 and 1 over 160 and 10 members",
    "C11-asymptotic-homomorphism": "Phi multiplicative on 2099 pairs; unit maps to identity",
    "C12-q-suite": "all applicable Q-properties pass with zero skips",
    "C13-rank-one-group-ring": "group-ring multiplication table verified on 49 pairs",
    "C14-length-bruhat-oracles": "length and Bruhat oracles agree (1130 ordered pairs)",
}


@pytest.mark.parametrize("cid", [cid for cid, _ in CRITERIA])
def test_criterion(cid):
    result = run_criterion(cid)
    status = "PASS" if result["ok"] else "FAIL"
    print(f"[{status}] {cid} ({result['seconds']}s): {result['summary']}")
    assert result["ok"], f"{cid}: {result['summary']}"
    assert result["summary"] == SUMMARIES[cid]


def test_every_criterion_has_a_pinned_summary():
    assert [cid for cid, _ in CRITERIA] == list(SUMMARIES)
