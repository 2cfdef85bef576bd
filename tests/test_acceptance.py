"""Acceptance suite: every shipped claim at its stated tolerance.

Each criterion is an entry of the check table ``verify.VARIANTS``, with its
grids, tolerances and sweeps fixed there; its test ``test_<name>_<runner>``
prints one PASS/FAIL line (visible with ``pytest -s``).

Every number a detail string prints is also compared, at the precision it
is printed with, against the full-precision value kept in
``golden/acceptance.json``, so a change that moves a reported number fails
here rather than going unnoticed.  The one exemption is a roundoff-floor
D_12 of criterion 7 (recorded below ``D12_FLOOR``), which only has to stay
below that floor.  A deliberate change to a reported number updates the
file in the same commit.
"""

import json
from pathlib import Path

from sqglab.verify import VARIANTS, Criterion, run_check

GOLDEN = json.loads((Path(__file__).parent / "golden" / "acceptance.json").read_text())
D12_FLOOR = 1e-13


def moved(criterion: str, printed: dict) -> list:
    """Keys whose printed value differs from the golden record's."""
    golden = GOLDEN[criterion.split()[0]]
    assert set(golden) == set(printed), f"golden keys {sorted(golden)}"
    bad = []
    for key, (value, fmt) in printed.items():
        if key.startswith("D_12") and golden[key] < D12_FLOOR:
            ok = value < D12_FLOOR
        else:
            ok = format(value, fmt) == format(golden[key], fmt)
        if not ok:
            bad.append(f"{key} {format(value, fmt)} vs golden {format(golden[key], fmt)}")
    return bad


def acceptance_test(name: str):
    def test():
        rep = run_check(name, {}, None, ())
        line = (f"[acceptance] {rep.check_id}: {'PASS' if rep.passed else 'FAIL'}  "
                f"({rep.details['detail']})")
        print(line)
        assert rep.passed, line
        bad = moved(rep.check_id, rep.details["printed"])
        assert not bad, f"{line}: printed values moved: {'; '.join(bad)}"
    return test


# one test per criterion, named as the criteria's tests have always been
for _name, _check in VARIANTS.items():
    if isinstance(_check, Criterion):
        globals()[f"test_{_name}_{_check.run.__name__}"] = acceptance_test(_name)
