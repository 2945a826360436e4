"""robinson-lab: how far is a symmetric step graphon from Robinson form?

A step graphon is a symmetric piecewise-constant kernel on [0,1]^2.  This
package measures its deviation from the Robinson ("values decay away from the
diagonal") shape, recovers a Robinson approximation with a theoretical
cut-norm error bound, and ships the supporting machinery: exact and
local-search cut norms, window supremum statistics, band/grey region
diagnostics, interval splitting and pigeonhole shrinking, synthetic
generators, and a CLI.
"""

from .core import (
    StepGraphon,
    CellSet,
    CutoffResult,
    RobinsonCheck,
    load_graphon,
    save_graphon,
    lp_norm,
    refine,
    step_to,
    cutoff,
    is_robinson,
)
from .cutnorm import CutNormResult, cut_norm, cut_norm_exact, cut_norm_local_search
from .deviation import (
    DeviationCertificate,
    deviation_exact,
    deviation_heuristic,
)
from .approx import (
    BoxIntegrator,
    RobinsonApprox,
    closed_form_robinson_ae,
    diagonal_band_integral,
    monotone_envelope,
    robinson_approx,
    ul_sup,
)
from .regions import (
    BoundaryCurve,
    RegionMap,
    boundary_curve,
    cell_crosses,
    compute_regions,
    largest_grey_square,
    verify_partition,
)
from .combinatorics import (
    IntervalSet,
    SplitResult,
    interval_set_integral,
    pigeonhole_shrink,
    split_with_small_remainder,
)
from .synth import (
    NoiseReport,
    add_noise,
    cumulative_envelope,
    permute_scramble,
    plant_violation,
    quadratic_sum,
    sample_random_graph,
    smooth_exp,
    toeplitz_decay,
)
from .recovery import (
    RecoveryReport,
    estimate_deviation,
    measured_cut_error,
    proposition_constants,
    recover,
    recover_bounded,
    theoretical_bound,
)
from .render import heatmap_svg, region_csv, region_svg, render_heatmap, render_regions

__version__ = "0.1.0"

__all__ = [
    "StepGraphon", "CellSet", "CutoffResult", "RobinsonCheck",
    "load_graphon", "save_graphon", "lp_norm", "refine", "step_to",
    "cutoff", "is_robinson",
    "CutNormResult", "cut_norm", "cut_norm_exact", "cut_norm_local_search",
    "DeviationCertificate", "deviation_exact", "deviation_heuristic",
    "BoxIntegrator", "RobinsonApprox", "closed_form_robinson_ae",
    "diagonal_band_integral", "monotone_envelope", "robinson_approx", "ul_sup",
    "BoundaryCurve", "RegionMap", "boundary_curve", "cell_crosses",
    "compute_regions", "largest_grey_square", "verify_partition",
    "IntervalSet", "SplitResult", "interval_set_integral",
    "pigeonhole_shrink", "split_with_small_remainder",
    "NoiseReport", "add_noise", "cumulative_envelope", "permute_scramble",
    "plant_violation", "quadratic_sum", "sample_random_graph", "smooth_exp",
    "toeplitz_decay",
    "RecoveryReport", "estimate_deviation", "measured_cut_error",
    "proposition_constants", "recover", "recover_bounded", "theoretical_bound",
    "heatmap_svg", "region_csv", "region_svg", "render_heatmap", "render_regions",
    "__version__",
]
