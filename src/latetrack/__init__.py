"""latetrack: latency-aware tracking simulation, evaluation, and
bounding-box motion prediction.

The package simulates a tracker processing a fixed-rate frame stream
under latency (skipping frames it cannot keep up with), scores runs
with deadline-based matching over a permitted-latency sweep, and trains
motion predictors (Kalman variants and a small temporal network) that
compensate for the latency by predicting where the target will be when
processing finishes.

The root exports the names of the README's library example; every
other name is imported from its module.
"""

__version__ = "0.1.0"

from .boxes import load_sequence
from .evaluate import EstimateMatcher, sweep
from .latency import LatencyProfile
from .simulate import TrackerAdapter, run_stream
