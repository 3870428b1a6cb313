from softbayes import verify
from softbayes.cli import main
from softbayes.verify import (
    disjoint_equivalence_checks,
    reverse_jensen_checks,
    scalar_inequality_checks,
)


def test_scalar_suite_passes():
    results = scalar_inequality_checks(samples=20_000, seed=1)
    assert len(results) == 5
    assert all(r.passed for r in results), [r.line() for r in results]


def test_reverse_jensen_suite_passes():
    results = reverse_jensen_checks(samples=20_000, seed=2)
    assert len(results) == 2
    assert all(r.passed for r in results), [r.line() for r in results]


def test_disjoint_equivalence_small():
    results = disjoint_equivalence_checks(T=200, n_seeds=3)
    assert len(results) == 9
    assert all(r.passed for r in results), [r.line() for r in results]


def test_closed_form_mismatch_is_a_failed_check(monkeypatch):
    exact = verify.disjoint_closed_form
    monkeypatch.setattr(verify, "disjoint_closed_form", lambda *a: exact(*a) + 1e-9)
    results = disjoint_equivalence_checks(T=200, n_seeds=3)
    assert len(results) == 9
    assert not any(r.passed for r in results)
    assert all(r.line().endswith("closed form differs at round 100") for r in results)


def test_check_line_format():
    results = scalar_inequality_checks(samples=1000, seed=3)
    assert results[0].line().startswith("[PASS]")


def test_cli_verify_passes_every_check(capsys):
    assert main(["verify", "--samples", "2000"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "16/16 checks passed"
