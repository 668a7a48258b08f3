"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints the measured quantities next to the bound it asserts, so a
failure report carries the actual numbers. The heat experiments share one
fresh fBm path (H = 0.4, T = 0.5, step 2^-10, seed 24) through the session
fixtures.
"""

import math

import numpy as np
import pytest

from roughmor import (BilinearRoughSystem, DEFAULT_TOL_P, DEFAULT_TOL_Q,
                      DriftNonlinearity, DriverPath, LyapunovOperator,
                      balanced_rank_sweep, coarsen_path,
                      integrate_gramian_ode, kernel_preservation_residual,
                      observability_cut, project_system,
                      relative_L2_error, resolvent_positivity_probe,
                      rough_rk_simulate, sample_fbm_path,
                      smooth_path_from_function, smooth_quadratic_form_probe,
                      solve_algebraic_gramian, subspace_containment_residual,
                      truncate_psd_spectrum)
from roughmor._fixtures import mild_stable_system, scalar_noise_system
from roughmor.cli import main


@pytest.fixture(scope="module")
def heat_P(heat100):
    return solve_algebraic_gramian(heat100, "reach")


@pytest.fixture(scope="module")
def heat_Q(heat100):
    return solve_algebraic_gramian(heat100, "obs")


def cubic_drift_system():
    nl = DriftNonlinearity(g=lambda x: -float(x @ x),
                           grad_g=lambda x: -2.0 * x)
    return BilinearRoughSystem(A=-np.eye(3), N=(0.2 * np.eye(3),),
                               K=np.eye(1), C=np.eye(3)[:1],
                               x0=np.array([1.0, 0.5, -0.5]),
                               drift_nonlinearity=nl)


def test_criterion_1_exact_reduction(heat_pipeline, heat_path, heat_full_sim):
    model, meta = heat_pipeline
    reduced = rough_rk_simulate(model.system, heat_path)
    err = float(relative_L2_error(heat_full_sim.outputs, reduced.outputs,
                                  heat_full_sim.times))
    print(f"criterion 1: orders {meta.orders}, relative L2 error {err:.4e} "
          "(bound 1e-10)")
    assert meta.orders == (100, 35, 33)
    assert err <= 1e-10


def test_criterion_2_lossy_sweep(heat_pipeline, heat_path, heat_full_sim):
    model, _ = heat_pipeline
    models = balanced_rank_sweep(model, tuple(range(5, 34, 2)))
    errs = {}
    for r, lossy in models.items():
        res = rough_rk_simulate(lossy.system, heat_path)
        errs[r] = float(relative_L2_error(
            heat_full_sim.outputs, res.outputs, heat_full_sim.times))
    table = ", ".join(f"r={r}: {errs[r]:.2e}" for r in sorted(errs))
    print(f"criterion 2: {table}")
    assert errs[5] < 1e-2
    for r, err in errs.items():
        assert err <= 10.0 * errs[5], (r, err)


def test_criterion_3_gramian_correctness(heat100, heat_P, heat_Q,
                                         random_stable_batch, mild_oracle):
    worst = 0.0
    for sys_, P, Q in [(heat100, heat_P, heat_Q)] + [
            (s, solve_algebraic_gramian(s, "reach"),
             solve_algebraic_gramian(s, "obs"))
            for s in random_stable_batch]:
        rp = float(LyapunovOperator(sys_, "reach").errors(P.matrix)[0])
        rq = float(LyapunovOperator(sys_, "obs").errors(Q.matrix)[0])
        worst = max(worst, rp, rq)
    mild = mild_stable_system(3, 1, seed=99)
    ode = integrate_gramian_ode(mild, "reach", T=1.0, steps=1000)
    # the session's 100,000-path oracle run on this system over T = 1
    mc = mild_oracle
    dev = np.abs(mc.integral - ode.matrix) / np.where(
        mc.integral_se > 0, mc.integral_se, 1.0)
    frac = float((dev <= 3.0).mean())
    print(f"criterion 3: worst algebraic residual {worst:.4e} (bound 1e-10), "
          f"MC agreement on {frac:.0%} of entries (need >= 95%)")
    assert worst <= 1e-10
    assert frac >= 0.95


def test_criterion_4_subspace_containment(heat100, heat_P, heat_full_sim,
                                          random_stable_batch):
    rows = []
    basis = truncate_psd_spectrum(heat_P.matrix, DEFAULT_TOL_P)
    rows.append(("heat", subspace_containment_residual(basis,
                                                       heat_full_sim)))
    for k, sys_ in enumerate(random_stable_batch):
        P = solve_algebraic_gramian(sys_, "reach")
        basis = truncate_psd_spectrum(P.matrix, DEFAULT_TOL_P)
        path = sample_fbm_path(0.4, sys_.d, 0.5, 256, seed=300 + k)
        traj = rough_rk_simulate(sys_, path)
        rows.append((f"random{k}", subspace_containment_residual(basis,
                                                                 traj)))
    cubic = cubic_drift_system()
    P = solve_algebraic_gramian(cubic, "reach")
    basis = truncate_psd_spectrum(P.matrix, DEFAULT_TOL_P)
    path = sample_fbm_path(0.4, 1, 0.5, 256, seed=311)
    traj = rough_rk_simulate(cubic, path)
    rows.append(("cubic", subspace_containment_residual(basis, traj)))
    for name, value in rows:
        print(f"criterion 4: containment[{name}] = {value:.4e} (bound 1e-8)")
    for name, value in rows:
        assert value <= 1e-8, (name, value)


def test_criterion_5_kernel_preservation(heat100, heat_Q, heat_path,
                                         heat_full_sim):
    w, V = np.linalg.eigh((heat_Q.matrix + heat_Q.matrix.T) / 2)
    kernel = V[:, w <= DEFAULT_TOL_Q * w[-1]]
    worst = max((kernel_preservation_residual(heat100, heat_Q.matrix, z)
                 for z in kernel.T), default=0.0)
    model = project_system(
        heat100, observability_cut(heat100, heat_Q, DEFAULT_TOL_Q).V)
    reduced = rough_rk_simulate(model.system, heat_path)
    err = float(relative_L2_error(heat_full_sim.outputs, reduced.outputs,
                                  heat_full_sim.times))
    print(f"criterion 5: {kernel.shape[1]} kernel vectors, worst "
          f"residual/bound ratio {worst / 1e-8:.4e} (need <= 1); Q-reduced "
          f"order {model.r}, output error {err:.4e} (bound 1e-10)")
    assert worst <= 1e-8
    assert err <= 1e-10


def test_criterion_6_gronwall_probe():
    fixtures = [
        ("scalar", scalar_noise_system(a=-1.0, nu=1.0, x0=1.0)),
        ("mild2", mild_stable_system(2, 1, seed=21)),
        ("mild3", mild_stable_system(3, 2, seed=22)),
        ("mild4", mild_stable_system(4, 1, seed=23)),
        ("cubic", cubic_drift_system()),
    ]
    worst = -0.0
    for name, sys_ in fixtures:
        rng = np.random.default_rng(600)
        nodes = np.vstack([np.zeros(sys_.d),
                           np.cumsum(rng.normal(0, 0.2, (8, sys_.d)),
                                     axis=0)])
        pl = DriverPath(T=0.5, values=nodes)
        sine = smooth_path_from_function(
            lambda t: np.full(sys_.d, math.sin(2 * t)), 0.5, 64)
        for driver, path in (("piecewise", pl), ("sine", sine)):
            ratio = smooth_quadratic_form_probe(sys_, path, 512)
            worst = min(worst, ratio)
            assert ratio >= -1e-6, (name, driver, ratio)
    print(f"criterion 6: worst min-eig / ||Xbar(T)|| ratio {worst:.4e} "
          "(bound -1e-6)")


def test_criterion_7_resolvent_positivity(random_stable_batch):
    worst = 0.0
    for k, sys_ in enumerate(random_stable_batch):
        worst = min(worst, resolvent_positivity_probe(sys_, trials=10_000,
                                                      seed=700 + k))
    print(f"criterion 7: worst probe minimum / scale {worst:.4e} "
          "(bound -1e-10)")
    assert worst >= -1e-10


def test_criterion_8_scheme_order(stability_function):
    sys_ = scalar_noise_system(a=0.0, nu=1.0, x0=1.0)
    ref_path = sample_fbm_path(0.45, 1, 1.0, 2 ** 15, seed=1)
    ref = rough_rk_simulate(sys_, ref_path)
    errs, hs = [], []
    for m in range(8, 14):
        sub = 2 ** (15 - m)
        res = rough_rk_simulate(sys_, coarsen_path(ref_path, sub))
        errs.append(np.abs(res.states[:, 0] - ref.states[::sub, 0]).max())
        hs.append(2.0 ** -m)
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])

    # deterministic one step against the tableau's stability function
    det = BilinearRoughSystem(A=np.array([[-1.0]]), N=(np.zeros((1, 1)),),
                              K=np.eye(1), C=np.eye(1), x0=np.ones(1))
    still = DriverPath(T=0.1, values=np.zeros((2, 1)))
    one_step = rough_rk_simulate(det, still).states[1, 0]
    gap = abs(one_step - stability_function(-0.1))
    print(f"criterion 8: self-convergence slope {slope:.3f} (need >= 0.3); "
          f"one-step vs stability function gap {gap:.2e} (bound 1e-12)")
    assert slope >= 0.3
    assert gap <= 1e-12


def test_criterion_9_determinism(tmp_path):
    # heat n = 16 reduces 16 -> 16 -> 16, so both sweep ranks are lossy and
    # the balancing's SVD and QR must rerun bit for bit
    runs = {"reduce": [], "sweep": ["--ranks", "3,5"]}
    for command, extra in runs.items():
        out = tmp_path / command
        argv = [command, "--n", "16", "--step-exp", "8", "--seed", "11",
                *extra, "--out", str(out)]
        assert main(argv) == 0
        first = {f.name: f.read_bytes() for f in out.iterdir()}
        assert main(argv) == 0
        second = {f.name: f.read_bytes() for f in out.iterdir()}
        same = sorted(first) == sorted(second) and all(
            first[name] == second[name] for name in first)
        print(f"criterion 9: {command}, {len(first)} artifacts, "
              f"byte-identical: {same}")
        assert same, command
