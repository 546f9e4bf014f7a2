"""The benchmark's span tracer must find every function it traces and
every attribute its work counts read, and the library calls the
benchmark's workloads make must keep working.

bench/tracing.py swaps traced latetrack functions by name, so renaming
or deleting one (say pm_predict or kf_update) would break only the
benchmark's traced run. Its work counts read `log.processed`,
`log.predictor_invocations` and `seq.ground_truth`. Installing the
tracer here, running one short traced simulation and sweep, and turning
the spans into layer metrics catches either break in the ordinary test
run. bench/workloads.py calls the noise fit as a library function
(make_kf_state, kf_fit_noise, save_kf_noise), so its fit step runs here
too, on tiny inputs, and so does the whole fit workload: its steps, then
its quality metrics, which sample windows from a list of BoundingBoxes.
"""

import importlib
import importlib.util
import sys
import time
from pathlib import Path

from latetrack import evaluate, simulate
from latetrack.boxes import BoundingBox, FrameClock, Sequence, load_sequence
from latetrack.latency import LatencyProfile
from latetrack.network import DEFAULT_K
from latetrack.predictors import kf_motion_batch, load_kf_noise
from latetrack.seeding import rng_for
from latetrack.training import (SINUSOIDAL, SyntheticSpec, Windows, gen_synthetic,
                                motion_l1_on_samples, sample_windows)

from _oracles import linear_track

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up while the module runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_install_wraps_every_traced_name_and_uninstall_restores_it():
    tracing = load_bench("tracing")
    modules = {name: importlib.import_module(name) for name in tracing.MODULES}
    traced = ([(modules[home], attr) for home, attr, _, _ in tracing.SPANNED]
              + [(modules[home], attr) for home, attr, _ in tracing.COUNTED]
              + [(modules["latetrack.predictors"], "kf_motion_batch")]
              + [(getattr(modules[home], cls), attr) for home, cls, attr, _ in tracing.METHODS])
    owners = {*modules.values(), *(owner for owner, _ in traced)}
    before = {owner: dict(vars(owner)) for owner in owners}

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr in traced:
            assert vars(owner)[attr] is not before[owner][attr], \
                f"{owner.__name__}.{attr} was not wrapped"
    finally:
        tracer.uninstall()

    for owner, names in before.items():
        after = vars(owner)
        assert set(after) == set(names), owner.__name__
        changed = [name for name, value in names.items() if after[name] is not value]
        assert not changed, f"{owner.__name__}: {changed} not restored"


def test_traced_run_and_sweep_give_layer_metrics():
    tracing = load_bench("tracing")
    seq = Sequence("cv", FrameClock(30.0),
                   tuple(linear_track(BoundingBox(50, 50, 12, 12), (2.0, 0.5), 20)))
    tracker = simulate.TrackerAdapter(LatencyProfile.constant(0.05), sigma_pos=0.3)
    predictor = simulate.predictor_for(simulate.KF, LatencyProfile.constant(0.005))

    tracer = tracing.Tracer()
    tracer.install()
    try:
        log = simulate.run_stream(seq, tracker, predictor, seed=1)
        evaluate.sweep([seq], [log])
    finally:
        tracer.uninstall()
    m = tracing.layer_metrics(tracer.spans, tracer.counts, {}, [])

    assert m["simulate.run_stream.calls"] == 1
    assert m["simulate.run_stream.frames_processed"] == len(log.frame) == 13
    assert m["simulate.run_stream.frames_skipped"] == len(seq) - len(log.frame)
    assert m["simulate.run_stream.predictor_invocations"] == log.predictor_invocations == 12
    assert m["predictors.kf_update.calls"] == 12
    assert m["evaluate.sweep.calls"] == 1
    assert m["evaluate.sweep.matches"] == len(seq) * len(evaluate.sigma_grid())
    assert m["evaluate.EstimateMatcher.build_s"] > 0


def test_workload_noise_fit_runs_on_tiny_tracks(tmp_path):
    # traced, so the fit's loss_evals keeps its meaning: kf_motion_batch
    # runs once for the init's validation loss and once per step, and
    # every step goes through the traced AdamW.step
    workloads = load_bench("workloads")
    tracing = load_bench("tracing")
    tracks = gen_synthetic(SyntheticSpec(SINUSOIDAL, 2, 40, seed=3, noise_sigma=0.45))
    out = tmp_path / "noise.json"
    size = workloads.SIZES["tiny"]["fit"]
    tracer = tracing.Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        assert workloads._fit_noise(tracks, 3, size, out) == 0
    finally:
        tracer.uninstall()
    assert time.perf_counter() - start < 0.5
    m = tracing.layer_metrics(tracer.spans, tracer.counts, {}, [])
    assert m["predictors.kf_fit_noise.loss_evals"] == size["fit_steps"] + 1
    # every window pass, a step's gradient or a validation loss, is
    # DEFAULT_K kf_update steps of one stack
    assert m["predictors.kf_update.calls"] == DEFAULT_K * (2 * size["fit_steps"] + 1)
    assert m["training.AdamW.step.calls"] == size["fit_steps"]
    q, r = load_kf_noise(out)
    assert len(q) == 8 and len(r) == 4


def test_fit_workload_runs_its_steps_and_quality_on_tiny_inputs(tmp_path):
    workloads = load_bench("workloads")
    seed = 1
    workload = workloads.setup_fit(tmp_path, seed, workloads.SIZES["tiny"])
    for step in workload.steps:
        assert step.run() == 0, step.verb
        assert all(path.is_file() for path in step.outputs), step.verb
    quality = workload.quality()
    assert set(quality) == set(workloads.QUALITY["fit"])
    # the workload samples from a list of BoundingBoxes and scores one-row
    # Windows; the column path gives the same bits
    q, r = load_kf_noise(tmp_path / "noise.json")
    holdout = sorted((tmp_path / "holdout").glob("*.txt"))
    assert holdout
    windows = Windows.concat(sample_windows(load_sequence(path), 3, 1, (1, 2),
                                            rng_for(seed, "holdout", path.stem))
                             for path in holdout)
    assert quality["kf_fit_l1"] == motion_l1_on_samples(windows, kf_motion_batch(1, q, r))
