import pytest

import liarsim.verify as verify_mod
from liarsim import OutOfRange
from liarsim.verify import all_passed, run_verification


def test_suite_passes_at_small_sizes():
    results = run_verification(3)
    assert all_passed(results)
    names = [r.name for r in results]
    assert "cycle-closure" in names
    assert "dimension-audit" in names


def test_suite_passes_at_full_size():
    results = run_verification(8)
    assert all_passed(results)
    assert len(results) == len({r.name for r in results})


def test_m_max_bounds():
    with pytest.raises(OutOfRange):
        run_verification(0)
    with pytest.raises(OutOfRange):
        run_verification(9)


def test_corrupted_reference_is_caught(monkeypatch):
    # negative control: break one frozen embedded index and the pairing
    # check must fail while the structural checks keep passing
    bad = list(verify_mod.CANONICAL_EIGHT_EMBEDDED)
    bad[5] += 1
    monkeypatch.setattr(verify_mod, "CANONICAL_EIGHT_EMBEDDED", tuple(bad))
    results = {r.name: r for r in run_verification(8)}
    assert not results["canonical-pairing"].passed
    assert results["kappa-roundtrip"].passed
    assert results["spectral"].passed


def test_corrupted_tuples_are_caught(monkeypatch):
    bad = list(verify_mod.CANONICAL_EIGHT_TUPLES)
    bad[0] = (1,) * 8
    monkeypatch.setattr(verify_mod, "CANONICAL_EIGHT_TUPLES", tuple(bad))
    results = {r.name: r for r in run_verification(8)}
    assert not results["canonical-pairing"].passed


def test_results_are_reproducible():
    first = run_verification(4)
    second = run_verification(4)
    assert first == second
