"""latetrack: latency-aware tracking simulation, evaluation, and
bounding-box motion prediction.

The package simulates a tracker processing a fixed-rate frame stream
under latency (skipping frames it cannot keep up with), scores runs
with deadline-based matching over a permitted-latency sweep, and trains
motion predictors (Kalman variants and a small temporal network) that
compensate for the latency by predicting where the target will be when
processing finishes.
"""

__version__ = "0.1.0"

from .boxes import FrameClock, Sequence, center_error, iou, load_sequence, save_sequence
from .errors import DivergenceError, ValidationError
from .evaluate import EstimateMatcher, EvalCurve, sigma_grid, sweep
from .latency import LatencyProfile
from .motion import apply_motion_rows, encode_motion, encode_motion_rows
from .network import PMWeights, init_weights, l1_loss, load_weights, pm_predict, save_weights
from .predictors import (KalmanBoxPredictor, MotionNetPredictor, ZeroMotionPredictor,
                         kf_fit_noise, kf_motion_batch, load_kf_noise, save_kf_noise)
from .simulate import (PredictorAdapter, RunLog, TrackerAdapter, load_run_log, load_trace,
                       next_frame, pick_horizon_n, predictor_for, run_stream, run_streams,
                       save_run_log, save_trace)
from .training import (AdamW, OptimizerConfig, SyntheticSpec, Windows, gen_synthetic,
                       motion_l1_on_samples, pm_motion_batch, sample_windows, train_pm)
