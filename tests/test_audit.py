import json

import pytest

from liarsim import (
    Contradiction,
    OutOfRange,
    Satisfiable,
    UnsupportedDimension,
    verify_minimality,
)
from liarsim.audit import AUDIT_BOUND, report_to_json, solve_constraints


def test_solve_constraints_shape():
    sat = solve_constraints(2, 4)
    assert (sat.m, sat.n) == (2, 4)
    assert sat.transcript[:4] == (
        "anchor: tau[1,1] = 1 and alpha(1,1) = t1 > 0",
        "anchor: tau[2,2] = 1 and alpha(2,2) = t2 > 0",
        "anchor: phi[3,1] = 1 and alpha(3,3) = f1 > 0",
        "anchor: phi[4,2] = 1 and alpha(4,4) = f2 > 0",
    )
    reduced = solve_constraints(2, 3)
    anchors = [line for line in reduced.transcript if line.startswith("anchor:")]
    assert anchors[-1] == "anchor: phi[2,2] = 1 and alpha(1,2) = f2 > 0"


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_full_dimension_logs_every_zero_product(m):
    # each of the 2m operators contributes one zero product per other target
    lines = solve_constraints(m, 2 * m).transcript
    anchors = 2 * m
    assert len(lines) == anchors + anchors * (anchors - 1)
    assert all(line.startswith("anchor:") for line in lines[:anchors])
    assert all(line.startswith("zero product ") for line in lines[anchors:])


def test_solve_constraints_validation():
    with pytest.raises(UnsupportedDimension):
        solve_constraints(2, 5)
    with pytest.raises(UnsupportedDimension):
        solve_constraints(3, 4)
    with pytest.raises(OutOfRange):
        solve_constraints(0, 0)
    with pytest.raises(OutOfRange):
        solve_constraints(1, 1)  # the reduced system needs two entries


def test_full_dimension_has_the_unique_solution():
    result = solve_constraints(2, 4)
    assert isinstance(result, Satisfiable)
    assert result.amplitudes == {
        (1, 1): "t1",
        (2, 2): "t2",
        (3, 3): "f1",
        (4, 4): "f2",
    }
    assert result.coefficients["tau[1,1]"] == 1
    assert result.coefficients["tau[2,2]"] == 1
    assert result.coefficients["phi[3,1]"] == 1
    assert result.coefficients["phi[4,2]"] == 1
    zeroed = [k for k, v in result.coefficients.items() if v == 0]
    assert zeroed  # every cross component is explicitly killed
    for name in zeroed:
        assert name not in ("tau[1,1]", "tau[2,2]", "phi[3,1]", "phi[4,2]")


@pytest.mark.parametrize("m", [2, 3, 4])
def test_full_dimension_general_shape(m):
    result = solve_constraints(m, 2 * m)
    assert isinstance(result, Satisfiable)
    for i in range(1, m + 1):
        assert result.coefficients[f"tau[{i},{i}]"] == 1
        assert result.coefficients[f"phi[{m + i},{i}]"] == 1
        assert result.amplitudes[(i,) * m] == f"t{i}"
        assert result.amplitudes[(m + i,) * m] == f"f{i}"
    ones = sum(1 for v in result.coefficients.values() if v == 1)
    assert ones == 2 * m


def test_reduced_dimension_contradicts_with_three_facts():
    result = solve_constraints(2, 3)
    assert isinstance(result, Contradiction)
    w = result.witness
    assert w.nonzero_amplitude == "phi[2,2] = 1 and alpha(1,2) = f2 > 0"
    assert w.unit_coefficient == "tau[1,1] = 1"
    assert w.violated_zero_product == "tau[1,1]*alpha(1,2) = 0"


@pytest.mark.parametrize("m", [2, 3, 4])
def test_reduced_dimension_witness_names_the_mixed_tuple(m):
    result = solve_constraints(m, 2 * m - 1)
    assert isinstance(result, Contradiction)
    mixed = ",".join(["1"] * (m - 1)) + ",2"
    w = result.witness
    assert w.unit_coefficient == "tau[1,1] = 1"
    assert w.nonzero_amplitude == f"phi[2,{m}] = 1 and alpha({mixed}) = f{m} > 0"
    assert w.violated_zero_product == f"tau[1,1]*alpha({mixed}) = 0"


def test_transcripts_record_the_derivation():
    sat = solve_constraints(3, 6)
    assert isinstance(sat, Satisfiable)
    assert sum(1 for line in sat.transcript if line.startswith("anchor:")) == 6
    assert any("so tau[" in line for line in sat.transcript)
    bad = solve_constraints(3, 5)
    assert isinstance(bad, Contradiction)
    assert bad.transcript[-1].startswith("violated:")


@pytest.mark.parametrize("m", [2, 3, 4])
def test_minimality_report(m):
    report = verify_minimality(m)
    assert report.passed
    assert isinstance(report.satisfiable, Satisfiable)
    assert isinstance(report.contradiction, Contradiction)


def test_minimality_bound():
    with pytest.raises(OutOfRange):
        verify_minimality(1)
    with pytest.raises(OutOfRange):
        verify_minimality(AUDIT_BOUND + 1)
    # the bound is a guard, not a hard capability limit
    assert isinstance(solve_constraints(6, 12), Satisfiable)
    assert isinstance(solve_constraints(6, 11), Contradiction)


def test_report_json():
    doc = json.loads(report_to_json(verify_minimality(3)))
    assert doc["m"] == 3
    assert doc["n_satisfiable"] == 6
    assert doc["n_contradictory"] == 5
    assert doc["passed"] is True
    assert doc["witness"]["unit_coefficient"] == "tau[1,1] = 1"
