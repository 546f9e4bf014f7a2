"""Key-value config files for the CLI.

Format: one `key = value` per line, `#` comments, blank lines ignored.
Dotted keys group related settings (latency.kind, latency.mean). Values
are plain strings until a typed getter parses them; comma-separated
lists are allowed where a ranged or tuple value is expected. Each file
a reader opens is noted in the config's `files`, for the manifest.
Each reader accepts only its own keys; any other key is an error that
names the key and the file.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ValidationError
from .latency import LatencyProfile
from .training import SyntheticSpec

ORACLE_NOISY = "oracle_noisy"
REPLAY_LOG = "replay_log"

_LATENCY_KEYS = ("latency.kind", "latency.mean", "latency.stddev", "latency.floor",
                "latency.file")
_SPEC_KEYS = ("kind", "count", "length", "duration", "seed", "framerate", "center_range",
             "size_range", "speed_range", "accel_range", "amplitude_range", "period_range",
             "walk_step", "noise_sigma")
_TRACKER_KEYS = ("behavior", "sigma_pos", "sigma_scale", "trace", *_LATENCY_KEYS)
_PREDICTOR_KEYS = ("kind", "noise", "weights", "horizon", *_LATENCY_KEYS)


class Config:
    """Parsed key-value file with typed access."""

    def __init__(self, values: dict, source: str = "<config>"):
        self.values = dict(values)
        self.source = source
        self.files = {}

    @classmethod
    def from_text(cls, text: str, source: str = "<config>") -> "Config":
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"{source}:{lineno}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key:
                raise ValidationError(f"{source}:{lineno}: empty key")
            if key in values:
                raise ValidationError(f"{source}:{lineno}: duplicate key {key!r}")
            values[key] = value
        return cls(values, source)

    @classmethod
    def load(cls, path) -> "Config":
        path = Path(path)
        return cls.from_text(path.read_text(), str(path))

    def __contains__(self, key: str) -> bool:
        return key in self.values

    def reject_unknown(self, known) -> None:
        """A ValidationError naming the first key outside `known`."""
        for key in self.values:
            if key not in known:
                raise ValidationError(f"{self.source}: unknown key {key!r}")

    def has_group(self, prefix: str) -> bool:
        return any(k.startswith(prefix) for k in self.values)

    def _get(self, key: str, default, kind=str, many: bool = False):
        """The key's value parsed as `kind` (a comma-separated tuple of
        them if `many`), else the default; a missing key with no
        default is an error."""
        if key not in self.values:
            if default is None:
                raise ValidationError(f"{self.source}: missing required key {key!r}")
            return tuple(default) if many else default
        if many:
            return tuple(self._parse(key, kind, part) for part in self.values[key].split(","))
        return self._parse(key, kind, self.values[key])

    def _parse(self, key: str, kind, text: str):
        try:
            return kind(text)
        except ValueError:
            raise ValidationError(
                f"{self.source}: key {key!r} needs a {kind.__name__}, got {text!r}") from None

    def get_str(self, key: str, default=None) -> str:
        return self._get(key, default)

    def get_int(self, key: str, default=None) -> int:
        return self._get(key, default, int)

    def get_float(self, key: str, default=None) -> float:
        return self._get(key, default, float)

    def get_floats(self, key: str, default=None) -> tuple:
        return self._get(key, default, float, many=True)

    def get_ints(self, key: str, default=None) -> tuple:
        return self._get(key, default, int, many=True)

    def get_path(self, key: str) -> str:
        """The key's value, noted in `files` as a file the config names."""
        self.files[key] = self.get_str(key)
        return self.files[key]


def latency_from_config(cfg: Config, prefix: str = "latency.") -> LatencyProfile:
    kind = cfg.get_str(prefix + "kind")
    if kind == "constant":
        return LatencyProfile.constant(cfg.get_float(prefix + "mean"))
    if kind == "gaussian":
        return LatencyProfile.gaussian(cfg.get_float(prefix + "mean"),
                                       cfg.get_float(prefix + "stddev"),
                                       floor=cfg.get_float(prefix + "floor", 0.001))
    if kind == "replay":
        path = Path(cfg.get_path(prefix + "file"))
        try:
            values = [float(ln) for ln in path.read_text().split()]
        except ValueError:
            raise ValidationError(f"{path}: replay latency file must hold one number per line") from None
        return LatencyProfile.replay(values)
    raise ValidationError(f"{cfg.source}: unknown latency kind {kind!r}")


def synthetic_spec_from_config(cfg: Config, seed_override=None) -> SyntheticSpec:
    cfg.reject_unknown(_SPEC_KEYS)
    if "length" in cfg and "duration" in cfg:
        raise ValidationError(f"{cfg.source}: give either length or duration, not both")
    length = cfg.get_int("length", 0) or cfg.get_int("duration", 0)
    if length == 0:
        raise ValidationError(f"{cfg.source}: missing required key 'length'")
    seed = cfg.get_int("seed", 0) if seed_override is None else seed_override
    return SyntheticSpec(
        kind=cfg.get_str("kind"),
        n_sequences=cfg.get_int("count"),
        length=length,
        seed=seed,
        framerate_kappa=cfg.get_float("framerate", 30.0),
        center_range=cfg.get_floats("center_range", (120.0, 400.0)),
        size_range=cfg.get_floats("size_range", (40.0, 70.0)),
        speed_range=cfg.get_floats("speed_range", (1.0, 4.0)),
        accel_range=cfg.get_floats("accel_range", (0.02, 0.12)),
        amplitude_range=cfg.get_floats("amplitude_range", (15.0, 35.0)),
        period_range=cfg.get_floats("period_range", (18.0, 40.0)),
        walk_step=cfg.get_float("walk_step", 2.0),
        noise_sigma=cfg.get_float("noise_sigma", 0.0),
    )


def tracker_from_config(cfg: Config, sequences) -> list:
    """One TrackerAdapter per sequence. A replay_log tracker reads each
    sequence's trace here, once: `trace` is one trace file or a directory
    of <name>.trace.csv files."""
    from .simulate import TrackerAdapter, load_trace

    cfg.reject_unknown(_TRACKER_KEYS)
    behavior = cfg.get_str("behavior", ORACLE_NOISY)
    if behavior == ORACLE_NOISY:
        tracker = TrackerAdapter(latency_from_config(cfg),
                                 sigma_pos=cfg.get_float("sigma_pos", 0.0),
                                 sigma_scale=cfg.get_float("sigma_scale", 0.0))
        return [tracker] * len(sequences)
    if behavior == REPLAY_LOG:
        latency = latency_from_config(cfg) if cfg.has_group("latency.") else None
        trace = Path(cfg.get_str("trace"))
        trackers = []
        for seq in sequences:
            path = trace / f"{seq.name}.trace.csv" if trace.is_dir() else trace
            cfg.files[f"trace:{seq.name}"] = path
            trackers.append(TrackerAdapter.replay(load_trace(path), latency))
        return trackers
    raise ValidationError(f"{cfg.source}: unknown tracker behavior {behavior!r}")


def predictor_from_config(cfg: Config):
    """Predictor config: `kind`, its file (`noise =` for kf_learned,
    `weights =` for pm), `horizon` (default 2; a pm horizon defaults to
    its checkpoint's head count), and an optional `latency.` group."""
    from .simulate import KF_LEARNED, NEURAL_PM, predictor_for

    cfg.reject_unknown(_PREDICTOR_KEYS)
    kind = cfg.get_str("kind")
    file_key = {KF_LEARNED: "noise", NEURAL_PM: "weights"}.get(kind)
    latency = (latency_from_config(cfg) if cfg.has_group("latency.")
               else LatencyProfile.constant(0.005))
    return predictor_for(kind, latency,
                         file=cfg.get_path(file_key) if file_key else None,
                         horizon=cfg.get_int("horizon") if "horizon" in cfg else None)
