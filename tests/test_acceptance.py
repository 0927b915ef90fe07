"""The acceptance gate: every registered check must pass within its time
budget, printing one line per check."""

from __future__ import annotations

import pytest

from motalg import acceptance

NAMES = [name for name, _, _ in acceptance.CHECKS]


def test_the_registry_is_complete():
    assert len(acceptance.CHECKS) == 13
    assert NAMES == [
        "d2-tables",
        "thom-periodicity",
        "suspension-relation",
        "s-closure",
        "vanishing-certificates",
        "cross-effect",
        "planted-recovery",
        "not-surjective",
        "cor22-fixtures",
        "gw-identities",
        "steenrod-rewriter",
        "rp-ring",
        "cofree-divide",
    ]
    with pytest.raises(KeyError):
        acceptance.run_check("nonexistent")


@pytest.mark.parametrize("name", NAMES, ids=NAMES)
def test_acceptance_check(name, capsys):
    res = acceptance.run_check(name)
    verdict = "PASS" if res.ok else "FAIL"
    with capsys.disabled():
        print(f"\n  acceptance {name:<24s} {verdict}  "
              f"({res.elapsed:.2f}s of {res.budget:.0f}s)  {res.detail}")
    assert res.ok, f"{name}: {res.detail}"
    assert res.elapsed < res.budget, (
        f"{name} exceeded its budget: {res.elapsed:.2f}s > {res.budget:.0f}s"
    )
