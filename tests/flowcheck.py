"""The decay bound a backward semi-flow must meet, shared by the flow
tests."""

import numpy as np


def decay_bound_satisfied(traj, omega_min: float, epsilon: float) -> bool:
    """Check |gamma(t)| <= |gamma(0)| exp((omega_min - epsilon) t) for t <= 0
    on a FlowTrajectory."""
    radius = np.linalg.norm(traj.points, axis=1)
    r0 = radius[-1]  # t = 0 is the last entry
    bound = r0 * np.exp((omega_min - epsilon) * traj.times)
    return bool(np.all(radius <= bound * (1.0 + 1e-9) + 1e-12))
