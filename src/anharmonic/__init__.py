"""Modified semiclassical expansions for nonlinear quantum oscillators.

Exact-rational formal power-series engines for the Hamilton-Jacobi and
transport hierarchies, closed-form 1D anharmonic-oscillator formulas, a
numerical variational action minimizer, an independent Rayleigh-Schrodinger
oracle, and Borel-Pade resummation with a spectral reference.
"""

from .errors import EngineError
from .model import kappa_model
from .hjformal import solve_hj_formal
from .transport import energy_series, ground_expansion

__all__ = ["EngineError", "kappa_model", "solve_hj_formal", "ground_expansion",
           "energy_series"]

__version__ = "0.1.0"
