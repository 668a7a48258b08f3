"""Three independent routes to the same Gramian.

On a small random stable system, the infinite-horizon reachability Gramian
is computed by Lyapunov-preconditioned GMRES and by the dense Kronecker
solve; the finite-horizon version, in closed form from one matrix
exponential, is then checked against a brute-force Monte-Carlo average over
Ito SDE paths. Agreement of all three pins down the operator conventions
(ordering of the noise terms, the initial-state forcing). It does not pin
the covariance weighting: every route reads K through the same mixed noise
matrices, and the test suite checks those against the k_ij pairs.
"""

import numpy as np

from roughmor import (LyapunovOperator, integrate_gramian_ode,
                      monte_carlo_second_moment, solve_algebraic_gramian,
                      solve_algebraic_gramian_dense)
from roughmor._fixtures import mild_stable_system


def main():
    sys_ = mild_stable_system(4, 2, seed=5)
    print(f"system: n = {sys_.n}, d = {sys_.d}")

    krylov = solve_algebraic_gramian(sys_, "reach")
    dense = solve_algebraic_gramian_dense(sys_, "reach")
    gap = np.abs(krylov.matrix - dense.matrix).max()
    print(f"GMRES vs dense Kronecker solve: max entry gap {gap:.3e} "
          f"({krylov.iterations} GMRES iterations)")
    res, eta = LyapunovOperator(sys_, "reach").errors(krylov.matrix)
    print(f"algebraic residual of the GMRES P: {float(res):.3e} "
          f"(backward error {eta:.3e})")

    T = 1.0
    ode = integrate_gramian_ode(sys_, "reach", T=T, steps=2000)
    mc = monte_carlo_second_moment(sys_, "reach", T=T, n_paths=20_000,
                                   dt=1e-3, seed=77)
    dev = np.abs(mc.integral - ode.matrix) / np.where(
        mc.integral_se > 0, mc.integral_se, 1.0)
    print(f"closed-form flow vs Monte Carlo over [0, {T}]: "
          f"{(dev <= 3.0).mean():.0%} of entries within 3 standard errors "
          f"(worst deviation {dev.max():.2f} SE)")


if __name__ == "__main__":
    main()
