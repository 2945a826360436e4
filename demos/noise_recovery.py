"""
Recovering Robinson structure from a noisy kernel
=================================================

Start from an ordered kernel, add calibrated noise, and run the full
pipeline: p-norm normalization, cut-off of extreme values, deviation
estimation, window-width selection, and a theoretical error bound on the
returned Robinson approximation.
"""

import json

from robinson_lab import (
    StepGraphon,
    add_noise,
    measured_cut_error,
    plant_violation,
    recover,
    recover_bounded,
    toeplitz_decay,
)

# Noise magnitudes are calibrated in cut norm: the report carries the
# exact cut norm of the perturbation whenever the size permits.
truth = StepGraphon(toeplitz_decay(10, seed=4).values + 3.0)
noisy, noise_rep = add_noise(truth, "uniform_bounded", 0.35, seed=4)
print("noise cut norm:", noise_rep.cut_norm, "(exact: %s)" % noise_rep.cut_norm_exact)

approx, rep = recover(noisy, p=6.0)
print("\ncase:", rep.case_taken)
print("window width alpha:", rep.alpha)
print("deviation of input:", rep.deviation_input, "(mode: %s)" % rep.deviation_mode)
# The bound is in normalized units and the measured error in the input's;
# the cut norm is 1-homogeneous, so scale the bound back.  It is evaluated
# at the deviation estimate, which may undershoot the true deviation, so it
# is not a certificate.
bound = rep.normalization_scale * rep.theory_bound
print("theoretical bound:", bound)
print("measured error:   ", rep.measured_error, "(exact: %s)" % rep.measured_error_exact)
assert rep.measured_error <= bound

# How close is the recovered kernel to the clean truth?  The bound is
# stated against the noisy input; the distance to the truth adds at
# most the noise level.
dist, dist_exact = measured_cut_error(truth, approx)
print("distance to clean truth:", dist, "(exact: %s)" % dist_exact)
assert dist <= rep.measured_error + noise_rep.cut_norm + 1e-9

# Reports serialize to a stable JSON shape for logging and the CLI.
print("\n" + json.dumps({k: v for k, v in rep.to_dict().items() if k != "timings"},
                        indent=2, default=str))

# Kernels already in [0, 1] take a dedicated route with a sharper
# constant and no p to choose.
base, _ = plant_violation(toeplitz_decay(9, seed=11), gap=0.35, seed=11)
unit = StepGraphon(base.values / base.values.max())
approx_u, rep_u = recover_bounded(unit)
print("bounded route case:", rep_u.case_taken, "alpha:", rep_u.alpha)
print("bound:", rep_u.theory_bound, "measured:", rep_u.measured_error)
