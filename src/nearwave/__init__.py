"""Near-field matter-wave interferometry toolkit.

Fringe patterns, visibilities, classical moire baselines, decoherence
channels and spontaneous-localization bounds for three-grating
interferometers (material masks, optical phase gratings and pulsed
ionizing gratings).
"""

from .core import (BeamState, de_broglie_wavelength, talbot_length,
                   talbot_time, velocity_weights)
from .species import LIBRARY, Species, get_species, gold_cluster
from .gratings import IonizingGrating, LaserPhaseGrating, MaterialGrating
from .engine import (InterferometerConfig, detector_signal,
                     sinusoidal_visibility, talbot_lau_coefficient,
                     talbot_pattern, time_domain_visibility,
                     velocity_averaged_pattern)
from .classical import classical_visibility_quadrature
from .decoherence import (DecoherenceChannel, GasEnvironment,
                          collisional_channel, collisional_eta, csl_channel,
                          thermal_emission_channel)
from .metrology import (DeflectionField, ShiftDistribution,
                        shift_dephasing_factor, stark_fringe_shift,
                        total_polarizability)
from .csl import (CslParameters, OtimaTemplate, critical_mass, csl_visibility,
                  exclusion_map)
from .scenario import Scenario, ScenarioError, load_scenario, parse_quantity

__version__ = "0.1.0"
