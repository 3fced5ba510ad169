"""Downlink outage probability of full-duplex cellular networks.

Three independent evaluation routes over one Poisson-point-process system
model:

* :mod:`fdcell.analytic` -- general expressions: closed-form interference
  kernels inside adaptive radial quadrature,
* :mod:`fdcell.closedform` -- elementary reductions for the quartic path-loss,
  equal-power, noise-free special case,
* :mod:`fdcell.simulate` -- seeded Monte Carlo realization of the network,

plus :mod:`fdcell.sweep` / :mod:`fdcell.cli` to produce plot-ready parameter
sweeps and analytic-vs-simulation agreement reports.
"""

from .model import (
    Method,
    NetworkParams,
    OutageEstimate,
    Scenario,
    nearest_bs_distance_pdf,
    threshold_from_rate,
)
from .quadrature import QuadratureConfig, QuadratureError
from .simulate import NetworkRealization, SimConfig, SimMode
from .sweep import AgreementReport, SweepRow, SweepSpec, compare_report, run_sweep

__version__ = "0.1.0"

__all__ = [
    "AgreementReport",
    "Method",
    "NetworkParams",
    "NetworkRealization",
    "OutageEstimate",
    "QuadratureConfig",
    "QuadratureError",
    "Scenario",
    "SimConfig",
    "SimMode",
    "SweepRow",
    "SweepSpec",
    "compare_report",
    "nearest_bs_distance_pdf",
    "run_sweep",
    "threshold_from_rate",
    "__version__",
]
