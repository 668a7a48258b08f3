"""Exact text of each CSV writer: float cells as the shortest repr that
round-trips, int cells and labels as plain text, stage tolerances in %g."""

import numpy as np
import pytest

from roughmor import (DriverPath, GramianResult, ProjectionBasis,
                      SimulationResult, TwoStageMetadata, write_error_csv,
                      write_path_csv, write_spectrum_csv,
                      write_stage_metadata_csv, write_states_csv,
                      write_trajectory_csv)

THIRD = 1 / 3  # repr needs all 16 digits
THIRD_TEXT = "0.3333333333333333"
RESULT = SimulationResult(
    times=np.array([0.0, THIRD]),
    states=np.array([[1.0, -2.5e-17], [THIRD, 2.0]]),
    outputs=np.array([[1.0], [THIRD]]),
    max_newton_iterations=0, min_pivot_ratio=1.0)
SOLVE = GramianResult(matrix=np.eye(1), side="reach", residual=1e-12,
                      iterations=13)
# the orders 100 -> 35 -> 33 and both tolerances are read off the two cuts
META = TwoStageMetadata(
    P=SOLVE, basis_P=ProjectionBasis(np.eye(100)[:, :35], np.ones(100), 1e-16),
    Q=SOLVE, basis_Q=ProjectionBasis(np.eye(35)[:, :33], np.ones(35), THIRD))

CASES = {
    "path": (
        lambda f: write_path_csv(DriverPath(
            THIRD, [[0.0, 0.0], [-1e-17, 2.0]]), f),
        f"t,W1,W2\n0.0,0.0,0.0\n{THIRD_TEXT},-1e-17,2.0\n"),
    "spectrum": (
        lambda f: write_spectrum_csv(np.array([THIRD, -9.5e-17]), f),
        f"index,eigenvalue\n0,{THIRD_TEXT}\n1,-9.5e-17\n"),
    "stage_metadata": (
        lambda f: write_stage_metadata_csv(META, f),
        "stage,order,tolerance\nfull,100,\nP_stage,35,1e-16\n"
        "Q_stage,33,0.333333\n"),
    "trajectory": (
        lambda f: write_trajectory_csv(RESULT, f),
        f"t,y1\n0.0,1.0\n{THIRD_TEXT},{THIRD_TEXT}\n"),
    "states": (
        lambda f: write_states_csv(RESULT, f),
        f"t,x1,x2\n0.0,1.0,-2.5e-17\n{THIRD_TEXT},{THIRD_TEXT},2.0\n"),
    # integer series are written as floats
    "error": (
        lambda f: write_error_csv(np.array([0, 1]), np.array([0, 2]), f),
        "t,rel_err\n0.0,0.0\n1.0,2.0\n"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_writer_text(name, tmp_path):
    write, expected = CASES[name]
    out = tmp_path / f"{name}.csv"
    write(out)
    assert out.read_text() == expected
