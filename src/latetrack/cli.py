"""Command line surface: gen, simulate, evaluate, train, compare,
horizon.

Every command takes --out and writes a manifest.json there; result
files carry the manifest ref in a comment/field. Randomness funnels
through --seed and fixed-key derivation, so outputs are reproducible.

Exit codes: 0 success, 2 validation failure, 3 I/O failure,
4 training divergence.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import asdict
from pathlib import Path

from .boxes import DEFAULT_FRAMERATE, load_sequence, save_sequence
from .config import (Config, predictor_from_config, synthetic_spec_from_config,
                     tracker_from_config)
from .errors import DivergenceError, ValidationError
from .evaluate import average_curves, sigma_grid, sweep
from .latency import Exhausted, LatencyProfile
from .network import DEFAULT_K, save_weights
from .report import (StageTimer, build_manifest, svg_line_plot, write_csv,
                     write_json, write_manifest, write_markdown_table)
from .seeding import derive_seed, rng_for
from .simulate import (HORIZON_TRIALS, PREDICTOR_LATENCY, load_run_log, pick_horizon_n,
                       predictor_for, run_files, run_streams, save_run_log, save_trace)
from .training import (DEFAULT_STRIDE_SET, OptimizerConfig, gen_synthetic, sample_windows,
                       train_pm)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_DIVERGENCE = 4

# the optional values a train config sets, and how each parses
_OPTIMIZER_VALUES = {"seed": int, "epochs": int, "milestones": (int,), "lr": float,
                     "weight_decay": float, "batch_size": int}
_WIDTHS = {"c_enc": int, "c_dec": int}
_TRAIN_KEYS = (*_OPTIMIZER_VALUES, "k", "horizon", "stride_set", *_WIDTHS)
_LOSS_HEADER = ["epoch", "train_l1", "val_l1"]
_COMPARE_HEADER = ["predictor", "auc_la0", "dp_la0", "mauc", "mdp", "mean_extra_latency_s"]


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_sequences(arg: str, framerate: float = DEFAULT_FRAMERATE) -> tuple:
    """The sequences a file or directory holds, and their manifest
    inputs, `sequence:<file name>`."""
    path = Path(arg)
    if path.is_dir():
        files = sorted(path.glob("*.txt"))
        if not files:
            raise ValidationError(f"{path}: no *.txt sequence files")
    elif path.exists():
        files = [path]
    else:
        raise FileNotFoundError(f"no such sequence path: {path}")
    return ([load_sequence(f, framerate=framerate) for f in files],
            {f"sequence:{f.name}": f for f in files})


def _config_inputs(label: str, cfg: Config) -> dict:
    """A config file and every file its reader opened, for the manifest."""
    return {label: cfg.source, **{f"{label}.{key}": p for key, p in cfg.files.items()}}


def _sequences_and_trackers(args):
    """The sequences, the tracker config, one tracker per sequence, and
    the manifest inputs of all of them."""
    sequences, inputs = _load_sequences(args.sequences, framerate=args.framerate)
    cfg = Config.load(args.tracker)
    trackers = tracker_from_config(cfg, sequences)
    return sequences, cfg, trackers, {**inputs, **_config_inputs("tracker", cfg)}


@contextmanager
def _naming_replay_files(tracker_cfg: Config, predictor_cfg: Config = None):
    """Let a replay latency block that runs out name the file it came
    from (Config.latency_source)."""
    try:
        yield
    except Exhausted as exc:
        cfg = predictor_cfg if exc.role == "predictor" else tracker_cfg
        raise ValidationError(f"{cfg.latency_source(exc.sequence)}: {exc}") from None


def cmd_gen(args) -> int:
    cfg = Config.load(args.spec)
    spec = synthetic_spec_from_config(cfg, seed_override=args.seed)
    timer = StageTimer()
    manifest = build_manifest("gen", spec.seed,
                              {"spec": cfg.values, "resolved_seed": spec.seed},
                              {"spec": args.spec})
    out = _out_dir(args)
    with timer.stage("generate"):
        sequences = gen_synthetic(spec)
    with timer.stage("write"):
        for seq in sequences:
            save_sequence(seq, out / f"{seq.name}.txt", manifest_ref=manifest.ref)
    write_manifest(manifest, out, timer.stages)
    print(f"wrote {len(sequences)} sequences to {out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    seed = args.seed or 0
    sequences, tracker_cfg, trackers, inputs = _sequences_and_trackers(args)
    predictor = pred_cfg = None
    payload = {"tracker": tracker_cfg.values}
    if args.predictor:
        pred_cfg = Config.load(args.predictor)
        predictor = predictor_from_config(pred_cfg)
        inputs.update(_config_inputs("predictor", pred_cfg))
        payload["predictor"] = pred_cfg.values
    timer = StageTimer()
    manifest = build_manifest("simulate", seed, payload, inputs)
    with timer.stage("simulate"), _naming_replay_files(tracker_cfg, pred_cfg):
        logs = run_streams(sequences, trackers, predictor,
                           [derive_seed(seed, "simulate", seq.name) for seq in sequences])
    out = _out_dir(args)
    with timer.stage("write"):
        for seq, log in zip(sequences, logs):
            save_run_log(log, out / f"{seq.name}.log.csv", manifest_ref=manifest.ref)
            save_trace(log, out / f"{seq.name}.trace.csv", manifest_ref=manifest.ref)
    write_manifest(manifest, out, timer.stages)
    print(f"simulated {len(sequences)} sequences to {out}")
    return EXIT_OK


def _curve_summary(auc_curve, dp_curve) -> dict:
    return {
        "auc_la0": auc_curve.values[0],
        "dp_la0": dp_curve.values[0],
        "mauc": auc_curve.aggregate,
        "mdp": dp_curve.aggregate,
    }


def cmd_evaluate(args) -> int:
    sequences, inputs = _load_sequences(args.sequences, framerate=args.framerate)
    pairs = []
    for seq, log_file in zip(sequences, run_files(args.logs, sequences, ".log.csv")):
        inputs[f"log:{seq.name}"] = log_file
        pairs.append((seq, load_run_log(log_file, seq.name)))
    manifest = build_manifest("evaluate", args.seed or 0, {"framerate": args.framerate}, inputs)
    out = _out_dir(args)
    timer = StageTimer()
    with timer.stage("score"):
        curves = [sweep([s], [l]) for s, l in pairs]
        auc_curve = average_curves([auc for auc, _ in curves])
        dp_curve = average_curves([dp for _, dp in curves])
    overall = _curve_summary(auc_curve, dp_curve)
    per_seq = {s.name: _curve_summary(*c) for (s, _), c in zip(pairs, curves)}
    with timer.stage("write"):
        grid = sigma_grid()
        write_csv(out / "curves.csv", ["sigma", "auc", "dp"],
                  [(s, a, d) for s, a, d in zip(grid, auc_curve.values, dp_curve.values)],
                  manifest_ref=manifest.ref)
        write_json(out / "summary.json", {**overall, "per_sequence": per_seq},
                   manifest_ref=manifest.ref)
        rows = [(name, *summary.values())
                for name, summary in [*sorted(per_seq.items()), ("all", overall)]]
        write_markdown_table(out / "summary.md", ["sequence", *overall], rows,
                             manifest_ref=manifest.ref, title="Latency-aware evaluation")
        if args.format == "svg":
            svg_line_plot(out / "curves.svg",
                          [("AUC@Laσ", grid, auc_curve.values),
                           ("DP@Laσ", grid, dp_curve.values)],
                          title="Latency-aware scores vs permitted latency",
                          x_label="permitted latency σ (frame periods)",
                          y_label="score", manifest_ref=manifest.ref)
    write_manifest(manifest, out, timer.stages)
    print(f"mAUC={overall['mauc']:.4f} mDP={overall['mdp']:.4f} "
          f"(AUC@La0={overall['auc_la0']:.4f} DP@La0={overall['dp_la0']:.4f})")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = Config.load(args.config) if args.config else Config({}, "<defaults>")
    cfg.reject_unknown(_TRAIN_KEYS)
    flags = {"seed": args.seed, "epochs": args.epochs}
    values = {**asdict(OptimizerConfig()), **cfg.set_values(_OPTIMIZER_VALUES),
              **{key: flag for key, flag in flags.items() if flag is not None}}
    # an --epochs override may cut the run short of configured milestones
    values["milestones"] = tuple(m for m in values["milestones"] if m < values["epochs"])
    with cfg.naming() if args.config else nullcontext():
        opt = OptimizerConfig(**values)
    k = cfg.get("k", int, DEFAULT_K)
    horizon = cfg.get("horizon", int, 2)
    stride_set = cfg.get("stride_set", (int,), DEFAULT_STRIDE_SET)
    sequences, inputs = _load_sequences(args.corpus)
    if args.config:
        inputs["config"] = args.config
    for seq in sequences:
        if not seq.annotated.all():
            raise ValidationError(f"training sequence {seq.name!r} has missing annotations")
    timer = StageTimer()
    with timer.stage("windows"):
        grouped = [sample_windows(seq, k, horizon, stride_set,
                                  rng_for(opt.seed, "windows", seq.name))
                   for seq in sequences]
    with timer.stage("train"):
        weights, history = train_pm(grouped, opt, **cfg.set_values(_WIDTHS))
    manifest = build_manifest(
        "train", opt.seed,
        {"optimizer": {"lr": opt.lr, "weight_decay": opt.weight_decay, "epochs": opt.epochs,
                       "milestones": list(opt.milestones), "batch_size": opt.batch_size},
         "window": {"k": k, "horizon": horizon, "stride_set": list(stride_set)},
         "model": {"c_enc": weights.c_enc, "c_dec": weights.c_dec}},
        inputs)
    out = _out_dir(args)
    with timer.stage("write"):
        save_weights(weights, out / "pm_checkpoint.json", manifest_ref=manifest.ref)
        write_csv(out / "loss.csv", _LOSS_HEADER, history, manifest_ref=manifest.ref)
    write_manifest(manifest, out, timer.stages)
    if history:
        print(f"trained {opt.epochs} epochs; final val L1 {history[-1][2]:.6f}")
    else:
        print("wrote initialized checkpoint (no training epochs)")
    return EXIT_OK


def cmd_compare(args) -> int:
    seed = args.seed or 0
    sequences, tracker_cfg, trackers, inputs = _sequences_and_trackers(args)
    names = [n.strip() for n in args.predictors.split(",") if n.strip()]
    if not names:
        raise ValidationError("--predictors must name at least one of none,zero,kf,kf_learned,pm")
    for name in names:
        if names.count(name) > 1:
            raise ValidationError(f"--predictors names {name!r} twice")
    if args.horizon is not None and args.horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {args.horizon}")
    timer = StageTimer()
    if args.horizon is not None:
        horizon = args.horizon
    else:
        with timer.stage("pre_run"), _naming_replay_files(tracker_cfg):
            horizon = pick_horizon_n(sequences[0], trackers[0], seed=derive_seed(seed, "horizon"))
    latency = LatencyProfile.constant(args.pred_latency)
    adapters = []
    for name in names:
        kind, _, file = name.partition(":")
        adapters.append((name, predictor_for(kind, latency, file=file or None,
                                             default_horizon=horizon)))
        if file:
            inputs[name] = file
    manifest = build_manifest(
        "compare", seed,
        {"tracker": tracker_cfg.values, "predictors": names, "horizon": horizon,
         "pred_latency": args.pred_latency},
        inputs)
    rows = []
    curves_by_name = {}
    with timer.stage("simulate_and_score"), _naming_replay_files(tracker_cfg):
        for name, adapter in adapters:
            logs = run_streams(sequences, trackers, adapter,
                               [derive_seed(seed, "compare", name, seq.name) for seq in sequences])
            auc_curve, dp_curve = sweep(sequences, logs)
            curves_by_name[name] = auc_curve
            invocations = sum(log.predictor_invocations for log in logs)
            total_latency = sum(sum(log.predictor_latencies) for log in logs)
            extra = total_latency / invocations if invocations else 0.0
            rows.append((name, *_curve_summary(auc_curve, dp_curve).values(), extra))
    out = _out_dir(args)
    with timer.stage("write"):
        write_csv(out / "comparison.csv", _COMPARE_HEADER, rows, manifest_ref=manifest.ref)
        write_markdown_table(out / "comparison.md", _COMPARE_HEADER, rows,
                             manifest_ref=manifest.ref, title="Predictor comparison")
        if args.format == "svg":
            grid = sigma_grid()
            svg_line_plot(out / "comparison.svg",
                          [(name, grid, curve.values) for name, curve in curves_by_name.items()],
                          title="AUC@Laσ by predictor",
                          x_label="permitted latency σ (frame periods)",
                          y_label="AUC", manifest_ref=manifest.ref)
    write_manifest(manifest, out, timer.stages)
    for row in rows:
        print(f"{row[0]}: AUC@La0={row[1]:.4f} DP@La0={row[2]:.4f} "
              f"mAUC={row[3]:.4f} mDP={row[4]:.4f} extra={row[5] * 1e3:.2f} ms")
    return EXIT_OK


def cmd_horizon(args) -> int:
    seed = args.seed or 0
    sequences, tracker_cfg, trackers, inputs = _sequences_and_trackers(args)
    timer = StageTimer()
    manifest = build_manifest("horizon", seed,
                              {"tracker": tracker_cfg.values, "trials": args.trials}, inputs)
    with timer.stage("pre_run"), _naming_replay_files(tracker_cfg):
        gaps = [pick_horizon_n(seq, trk, trials=args.trials,
                               seed=derive_seed(seed, "horizon", seq.name))
                for seq, trk in zip(sequences, trackers)]
    out = _out_dir(args)
    per_seq = {seq.name: gap for seq, gap in zip(sequences, gaps)}
    overall = max(gaps)
    with timer.stage("write"):
        write_json(out / "horizon.json",
                   {"per_sequence": per_seq, "horizon_n": overall, "trials": args.trials},
                   manifest_ref=manifest.ref)
    write_manifest(manifest, out, timer.stages)
    print(f"horizon N = {overall}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latetrack",
        description="Latency-aware tracking: simulate streams, score them, train predictors.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    common.add_argument("--out", required=True, help="output directory")
    reads = argparse.ArgumentParser(add_help=False, parents=[common])
    reads.add_argument("--framerate", type=float, default=DEFAULT_FRAMERATE,
                       help="capture rate kappa in frames per second")
    reports = argparse.ArgumentParser(add_help=False, parents=[reads])
    reports.add_argument("--format", choices=["svg"],
                         help="also plot the curves as SVG (CSV, JSON and Markdown "
                              "are always written)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate synthetic sequences")
    p.add_argument("spec", help="synthetic spec config file")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("simulate", parents=[reads], help="run the latency simulator")
    p.add_argument("--sequences", required=True, help="sequence file or directory")
    p.add_argument("--tracker", required=True, help="tracker config file")
    p.add_argument("--predictor", help="predictor config file")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("evaluate", parents=[reports], help="score run logs over the sigma grid")
    p.add_argument("--sequences", required=True)
    p.add_argument("--logs", required=True, help="log file or directory of <name>.log.csv")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("train", parents=[common], help="train the motion network")
    p.add_argument("--corpus", required=True, help="directory of training sequences")
    p.add_argument("--config", help="training config file")
    p.add_argument("--epochs", type=int, help="override the configured epoch count")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("compare", parents=[reports], help="compare predictors end to end")
    p.add_argument("--sequences", required=True)
    p.add_argument("--tracker", required=True)
    p.add_argument("--predictors", required=True,
                   help="comma list: none,zero,kf,kf_learned:<file>,pm:<checkpoint>")
    p.add_argument("--horizon", type=int, help="prediction horizon (default: from pre-runs)")
    p.add_argument("--pred-latency", type=float, default=PREDICTOR_LATENCY,
                   help="constant predictor latency in seconds")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("horizon", parents=[reads], help="pick the horizon from pre-runs")
    p.add_argument("--sequences", required=True)
    p.add_argument("--tracker", required=True)
    p.add_argument("--trials", type=int, default=HORIZON_TRIALS)
    p.set_defaults(fn=cmd_horizon)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
