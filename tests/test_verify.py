import pytest

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


def test_disjoint_equivalence_suite_passes():
    results = disjoint_equivalence_checks()
    assert len(results) == 9
    assert all(r.passed for r in results), [r.line() for r in results]


def test_closed_form_mismatch_is_a_failed_check(monkeypatch):
    exact = verify.disjoint_closed_form
    monkeypatch.setattr(verify, "disjoint_closed_form", lambda *a: exact(*a) + 1e-9)
    results = disjoint_equivalence_checks()
    assert len(results) == 9
    assert not any(r.passed for r in results)
    assert all(r.line().endswith("closed form differs at round 500") for r in results)


def test_check_line_format():
    results = scalar_inequality_checks(samples=1000, seed=3)
    assert results[0].line().startswith("[PASS]")


@pytest.mark.parametrize("suite, least", [(scalar_inequality_checks, 2),
                                          (reverse_jensen_checks, 4)])
def test_too_few_samples_rejected(suite, least):
    # below the least, some check would draw no sample and pass on -inf
    for samples in (least - 1, 0, -4):
        with pytest.raises(ValueError, match=f"at least {least} samples, got {samples}"):
            suite(samples=samples)
    results = suite(samples=least)
    assert all(r.passed and "-inf" not in r.detail for r in results), [r.line() for r in results]


@pytest.mark.parametrize("samples", ["0", "1", "3", "-4"])
def test_cli_verify_rejects_too_few_samples(samples, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--samples", samples])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        f"softbayes verify: error: argument --samples: must be at least 4, got {int(samples)}"]


def test_cli_verify_passes_every_check(capsys):
    assert main(["verify", "--samples", "2000"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "16/16 checks passed"
