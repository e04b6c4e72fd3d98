"""aliaslab: desk-scale laboratory for view-sampling aliasing in
generalized Radon reconstructions.

The package builds analytic sinograms of disk phantoms for two curve
families (straight lines, and circles centered on an acquisition circle),
smooths them in the scalar variable, reconstructs by filtered
backprojection from a finite set of view angles, and compares the
resulting interior oscillation against a closed-form lattice-sum
prediction driven by the tangency geometry.
"""

from aliaslab.experiment_config import ConfigError, ExperimentConfig, load_config_file, parse_config_text
from aliaslab.forward_model import (
    SemiDiscreteData,
    SinogramSampler,
    sinogram_circle_disk,
    sinogram_line_disk,
)
from aliaslab.geometry import (
    DiskPhantom,
    RadonFamily,
    SamplingScheme,
    TangencyDescriptor,
    circle_family,
    grad_phi,
    line_family,
    mu0_closed_form,
    mu0_numeric,
    phi_eval,
    tangency_enumerate,
    tangent_p,
)
from aliaslab.outputs import (
    PROFILE_HEADER,
    read_profile_csv,
    write_pgm16,
    write_profile_csv,
    write_psi_table_csv,
)
from aliaslab.pipeline import (
    ExperimentResult,
    query_range,
    report_text,
    resolve_theta,
    run_experiment,
    write_artifacts,
)
from aliaslab.predictor import (
    ComparisonMetrics,
    compare,
    fill_prediction,
    predict_at,
    predict_profile,
)
from aliaslab.reconstruction import (
    AliasProfile,
    FilteredView,
    ImageGrid,
    ReconstructionRun,
    backproject,
    filter_view,
    pv_filter_uniform,
    scaled_difference_profile,
    view_values_at,
)
from aliaslab.special_functions import (
    DEFAULT_MOLLIFIER,
    DEFAULT_PSI_CONFIG,
    MollifierSpec,
    PsiEvalConfig,
    big_psi,
    delta_psi,
    hurwitz_tail,
    psi_eval,
    psi_eval_quadrature_oracle,
    w_eval,
    w_prime_eval,
)

__version__ = "0.1.0"
