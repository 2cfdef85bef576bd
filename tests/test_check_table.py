"""Static guard on the check table.

``verify.VARIANTS`` names every check once: a ratio check with its family,
sanity ceiling and default box, an acceptance criterion with its runner.
No other module of the package spells a check's name, so a new check is
one table entry plus its math in ``sqglab/verify.py``; and every entry runs
through ``sqglab verify --check NAME`` to its family or runner.
"""

import ast
from pathlib import Path

import pytest

from sqglab import verify
from sqglab.cli import main

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sqglab"
HOME = "verify.py"


def name_literals(source: str, filename: str) -> list[str]:
    """The string literals of ``source`` that spell a check name, one line each."""
    return [f"{filename}:{node.lineno} {node.value!r}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value in verify.VARIANTS]


def test_check_names_are_spelled_in_verify_only():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != HOME:
            found += name_literals(path.read_text(), path.name)
    assert found == []


def test_guard_sees_the_table():
    # not vacuous: verify.py spells every name at least once, in the table
    spelled = {line.split(" ", 1)[1] for line in
               name_literals((PACKAGE / HOME).read_text(), HOME)}
    assert spelled == {repr(name) for name in verify.VARIANTS}


@pytest.mark.parametrize("source, flagged", [
    ("if name in ('kato_ponce', 'holder_commutator'):\n    pass\n", 2),
    ("run = {'embedding': f}\n", 1),
    ("box = params.get('box_length', 16.0)\n", 0),
    ("check_id = f'fundamental_solution:beta={beta:g}'\n", 0),
    ("kato_ponce_commutator(f, g, s)\n", 0),
])
def test_guard_flags_spelled_names(source, flagged):
    assert len(name_literals(source, "cli.py")) == flagged


@pytest.mark.parametrize("name", list(verify.VARIANTS))
def test_every_check_dispatches_to_its_family(name, monkeypatch, tmp_path):
    calls = []

    def stub(family):
        def run(*args, **kwargs):
            calls.append((family, args[0] if args else None))
            return verify.VerificationReport(check_id=family)
        return run

    for family in ("multiplier_bounds", "commutators", "velocity_regularity"):
        monkeypatch.setattr(verify, f"check_{family}", stub(family))
    monkeypatch.setattr(verify, "verify_fundamental_solution", stub("fundamental_solution"))
    check = verify.VARIANTS[name]
    for other, entry in verify.VARIANTS.items():
        if isinstance(entry, verify.Criterion):  # no criterion runs here
            monkeypatch.setitem(verify.VARIANTS, other, verify.Criterion(stub(other)))
    assert main(["verify", "--check", name, "--n", "64", "--out", str(tmp_path)]) == 0
    if isinstance(check, verify.Criterion):  # it reads no params, ensemble or grids
        assert calls == [(name, None)]
    else:  # the ratio checks take the name first; the fundamental solution, beta
        assert calls == [(check.family, 0.5 if check.family == "fundamental_solution" else name)]


def test_criterion_runs_from_the_command_line(tmp_path, capsys):
    assert main(["verify", "--check", "criterion_01", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("1 partition of unity: verdict=pass trials=1 ")


def test_failing_criterion_exits_1(monkeypatch, tmp_path):
    failing = verify.Criterion(lambda: verify.VerificationReport(check_id="1", verdict="fail"))
    monkeypatch.setitem(verify.VARIANTS, "criterion_01", failing)
    assert main(["verify", "--check", "criterion_01", "--out", str(tmp_path)]) == 1


def test_unknown_check_is_a_config_error(tmp_path, capsys):
    assert main(["verify", "--check", "bernstien", "--out", str(tmp_path)]) == 2
    assert "config error: unknown check 'bernstien'" in capsys.readouterr().err
