"""Transient solution of a gene cascade chemical master equation.

The cascade model has d species; the first is produced at a constant
rate and each later one at a rate saturating in the copy number of its
predecessor, with linear degradation throughout. All time steps of a
Crank-Nicolson discretization are collected into one block-bidiagonal
linear system whose unknown carries the time index as an extra tensor
mode, so a single rank-adaptive solve produces the whole trajectory.

The species modes are quantized to binary modes first, and the time
axis is then built in binary cores directly. That keeps the carrier
dimensions at 2 and lets the ranks track the actual correlation
structure of the distribution.
"""

import time

import numpy as np

from ttamen import (
    CascadeCMESpec,
    SolverConfig,
    TTVector,
    TimeSystemSpec,
    amen_solve,
    build_cme_operator,
    build_initial_state,
    build_time_system,
    qtt_quantize,
    tt_dot,
)


def weight_vector(spec, n_steps, species_weights, time_index):
    """Rank-1 observable: per-species weights times a time-slice selector."""
    cores = []
    for w in species_weights:
        cores.append(np.asarray(w, dtype=float).reshape(1, spec.states, 1))
    e_t = np.zeros(n_steps)
    e_t[time_index] = 1.0
    cores.append(e_t.reshape(1, n_steps, 1))
    return qtt_quantize(TTVector(cores), tol=0.0)


def main():
    spec = CascadeCMESpec(species=4, states=16)
    t_final, n_steps = 10.0, 128
    tau = t_final / n_steps

    A = qtt_quantize(build_cme_operator(spec), tol=1e-13)
    psi0 = qtt_quantize(build_initial_state(spec), tol=1e-13)
    # binary A and 2**7 steps: the time axis comes as 7 binary cores
    M, b = build_time_system(A, psi0, TimeSystemSpec(tau=tau, n_steps=n_steps))
    print(f"all-at-once system: {len(b.mode_sizes)} binary modes, "
          f"operator ranks up to {max(M.ranks)}")

    t0 = time.perf_counter()
    x, log = amen_solve(
        M, b, config=SolverConfig(tol=1e-5, enrichment="als", kickrank=4)
    )
    print(f"solve: status={log.status}, {len(log.records)} sweeps, "
          f"residual {log.final_residual:.2e}, max rank {max(x.ranks)}, "
          f"{time.perf_counter() - t0:.1f} s")

    # observables come out as inner products with rank-1 weight vectors;
    # renormalize because the finite state window leaks a little mass
    ones = [np.ones(spec.states)] * spec.species
    counts = np.arange(spec.states, dtype=float)
    print("\n  time    mass      mean copy numbers")
    for frac in (0.25, 0.5, 1.0):
        t_idx = int(frac * n_steps) - 1
        mass = tt_dot(weight_vector(spec, n_steps, ones, t_idx), x)
        means = []
        for k in range(spec.species):
            w = list(ones)
            w[k] = counts
            means.append(tt_dot(weight_vector(spec, n_steps, w, t_idx), x) / mass)
        mean_str = "  ".join(f"{m:6.3f}" for m in means)
        print(f"  {tau * (t_idx + 1):5.2f}  {mass:.6f}  {mean_str}")

    # the first species alone obeys a birth-death process whose mean has
    # the closed form (alpha0/delta) * (1 - exp(-delta t)); compare at T
    exact = spec.alpha0 / spec.delta * (1.0 - np.exp(-spec.delta * t_final))
    w = list(ones)
    w[0] = counts
    mass = tt_dot(weight_vector(spec, n_steps, ones, n_steps - 1), x)
    got = tt_dot(weight_vector(spec, n_steps, w, n_steps - 1), x) / mass
    print(f"\nspecies 1 mean at T={t_final}: computed {got:.4f}, "
          f"birth-death closed form {exact:.4f}")


if __name__ == "__main__":
    main()
