"""Near-field matter-wave interferometry toolkit.

Fringe patterns, visibilities, classical moire baselines, decoherence
channels and spontaneous-localization bounds for three-grating
interferometers (material masks, optical phase gratings and pulsed
ionizing gratings).
"""

from .core import BeamState, talbot_time, velocity_weights
from .species import LIBRARY, Species, get_species, gold_cluster
from .gratings import IonizingGrating, LaserPhaseGrating, MaterialGrating
from .engine import (InterferometerConfig, detector_signal,
                     sinusoidal_visibility, talbot_lau_coefficient,
                     talbot_pattern, time_domain_visibility)
from .classical import classical_visibility_quadrature
from .decoherence import (DecoherenceChannel, GasEnvironment,
                          collisional_channel, collisional_eta, csl_channel)
from .metrology import DeflectionField, stark_fringe_shift
from .csl import critical_mass, exclusion_map
from .scenario import Scenario, ScenarioError, load_scenario, parse_quantity

__version__ = "0.1.0"
