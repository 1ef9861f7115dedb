"""Modified semiclassical expansions for nonlinear quantum oscillators.

Exact-rational formal power-series engines for the Hamilton-Jacobi and
transport hierarchies, closed-form 1D anharmonic-oscillator formulas, a
numerical variational action minimizer, an independent Rayleigh-Schrodinger
oracle, and Borel-Pade resummation with a spectral reference.
"""

from .errors import EngineError
from .series import PolySeries, dot_gradients, format_rational, parse_rational
from .model import (
    BUILTIN_KAPPA,
    OscillatorModel,
    builtin_kappa,
    builtin_model,
    kappa_model,
)
from .hjformal import (
    FormalAction,
    SternbergMap,
    flow_field,
    hj_residual,
    solve_hj_formal,
    sternberg_linearize,
    sternberg_residual,
)
from .transport import (
    ExcitedExpansion,
    GroundExpansion,
    energy_series,
    excited_expansion,
    excited_report,
    gap_series,
    ground_expansion,
    ground_report,
    total_energy_series,
    transport_residual,
)
from .closedform import (
    Kappa1DModel,
    evaluate_wavefunction,
    phi0_closed,
    q_closed,
    s0_closed,
    s1_closed,
    s2_closed,
    sternberg_1d,
    sternberg_1d_inverse,
    u1_closed,
    u2_closed,
    wavefunction_factors,
)
from .variational import (
    CurveGrid,
    FlowTrajectory,
    HypothesisReport,
    MomentumProvider,
    VariationalResult,
    check_hypotheses,
    minimize_action,
    numeric_s1,
    semi_flow,
)
from .rsoracle import (
    RSExpansion,
    compare_with_transport,
    first_order_matrix_element,
    rs_expand,
)
from .resummation import (
    ResummationResult,
    borel_pade,
    pade_coefficients,
    partial_sums,
    reference_energy,
    resum_series,
)

__version__ = "0.1.0"
