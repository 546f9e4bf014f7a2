"""Key-value config files for the CLI.

Format: one `key = value` per line, `#` comments, blank lines ignored.
Dotted keys group related settings (latency.kind, latency.mean). Values
are plain strings until a typed getter parses them; comma-separated
lists are allowed where a ranged or tuple value is expected. Each file
a reader opens is noted in the config's `files`, for the manifest.
A reader passes the library only the keys a file sets, so a key left
out takes the default of the object it configures, written there once.
Each reader accepts only the keys its kind reads; any other key is an
error that names the key, the kind and the file.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ValidationError, naming
from .latency import LatencyProfile
from .simulate import (KF, KF_LEARNED, NEURAL_PM, NONE, PREDICTOR_LATENCY, ZERO_MOTION,
                       TrackerAdapter, load_trace, predictor_for, run_files)
from .training import SyntheticSpec

ORACLE_NOISY = "oracle_noisy"
REPLAY_LOG = "replay_log"

# The keys each kind reads besides the one that names it (a latency kind's
# after the group prefix), and how optional values parse: int, float, or
# (int,)/(float,) for a comma-separated tuple.
_LATENCY_KEYS = {"constant": ("mean",), "gaussian": ("mean", "stddev", "floor"),
                 "replay": ("file",)}
_LATENCY_GROUP = tuple(f"latency.{key}" for key in ("kind", "mean", "stddev", "floor", "file"))
_SPEC_VALUES = {"seed": int, "center_range": (float,), "size_range": (float,),
                "speed_range": (float,), "accel_range": (float,), "amplitude_range": (float,),
                "period_range": (float,), "walk_step": float, "noise_sigma": float}
_SPEC_KEYS = ("kind", "count", "length", *_SPEC_VALUES)
_TRACKER_NOISE = {"sigma_pos": float, "sigma_scale": float}
_TRACKER_KEYS = {ORACLE_NOISY: (*_TRACKER_NOISE, *_LATENCY_GROUP),
                 REPLAY_LOG: ("trace", *_LATENCY_GROUP)}
_PREDICTOR_KEYS = {NONE: (), ZERO_MOTION: ("horizon", *_LATENCY_GROUP),
                   KF: ("horizon", *_LATENCY_GROUP),
                   KF_LEARNED: ("noise", "horizon", *_LATENCY_GROUP),
                   NEURAL_PM: ("weights", "horizon", *_LATENCY_GROUP)}


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

    def reject_unknown(self, known, reader: str = None, prefix: str = "") -> None:
        """A ValidationError naming the first key under `prefix` whose
        rest is outside `known`, and the `reader` that does not read it."""
        for key in self.values:
            if key.startswith(prefix) and key[len(prefix):] not in known:
                raise ValidationError(f"{self.source}: unknown key {key!r}"
                                      + (f" for {reader}" if reader else ""))

    def has_group(self, prefix: str) -> bool:
        return any(k.startswith(prefix) for k in self.values)

    def _get(self, key: str, default, kind=str):
        """The key's value parsed as `kind` (a comma-separated tuple if
        `kind` is `(int,)` or `(float,)`), else the default; a missing
        key with no default is an error."""
        if key not in self.values:
            if default is None:
                raise ValidationError(f"{self.source}: missing required key {key!r}")
            return default
        if isinstance(kind, tuple):
            return tuple(self._parse(key, kind[0], part) for part in self.values[key].split(","))
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

    def get_ints(self, key: str, default=None) -> tuple:
        return self._get(key, default, (int,))

    def set_values(self, kinds: dict, prefix: str = "") -> dict:
        """Each key of `kinds` that the file sets under `prefix`, parsed
        as its kind; a key the file leaves out is left out, so the
        library's default applies."""
        return {key: self._get(prefix + key, None, kind)
                for key, kind in kinds.items() if prefix + key in self.values}

    def get_name(self, key: str) -> str:
        """The key's value as a file or directory name; an empty value
        names none."""
        name = self.get_str(key)
        if not name:
            raise ValidationError(f"{self.source}: key {key!r} needs a file name, got ''")
        return name

    def get_path(self, key: str) -> str:
        """get_name's file, noted in `files` as a file the config names."""
        path = self.get_name(key)
        self.files[key] = path
        return path

    def latency_source(self, sequence: str) -> str:
        """The file a replay latency block of `sequence` came from: this
        config's `latency.file`, else the trace tracker_from_config read
        for the sequence, whose recorded durations a replay tracker
        replays."""
        return self.files.get("latency.file", self.files.get(_trace_key(sequence)))

    def naming(self):
        """errors.naming for this file: an error raised inside names it,
        or a file it has named so far."""
        return naming(self.source, *self.files.values())


def latency_from_config(cfg: Config, prefix: str = "latency.") -> LatencyProfile:
    kind = cfg.get_str(prefix + "kind")
    if kind not in _LATENCY_KEYS:
        raise ValidationError(f"{cfg.source}: unknown latency kind {kind!r}")
    cfg.reject_unknown(("kind", *_LATENCY_KEYS[kind]), f"latency kind {kind!r}", prefix)
    if kind == "constant":
        with cfg.naming():
            return LatencyProfile.constant(cfg.get_float(prefix + "mean"))
    if kind == "gaussian":
        with cfg.naming():
            return LatencyProfile.gaussian(cfg.get_float(prefix + "mean"),
                                           cfg.get_float(prefix + "stddev"),
                                           **cfg.set_values({"floor": float}, prefix))
    path = Path(cfg.get_path(prefix + "file"))
    try:
        values = [float(ln) for ln in path.read_text().splitlines()]
    except ValueError:
        raise ValidationError(f"{path}: replay latency file must hold one number per line") from None
    with naming(path):
        return LatencyProfile.replay(values)


def synthetic_spec_from_config(cfg: Config, seed_override=None) -> SyntheticSpec:
    cfg.reject_unknown(_SPEC_KEYS)
    kind, count, length = cfg.get_str("kind"), cfg.get_int("count"), cfg.get_int("length")
    values = cfg.set_values(_SPEC_VALUES)
    if seed_override is not None:
        values["seed"] = seed_override
    with cfg.naming():
        return SyntheticSpec(kind, count, length, **values)


def _trace_key(sequence: str) -> str:
    """The `files` key of the trace a replay tracker reads for `sequence`."""
    return f"trace:{sequence}"


def tracker_from_config(cfg: Config, sequences) -> list:
    """One TrackerAdapter per sequence. A replay_log tracker reads each
    sequence's trace here, once, before a verb creates its --out:
    `trace` is a directory of <name>.trace.csv files, or one trace file
    for a single sequence."""
    behavior = cfg.get_str("behavior", ORACLE_NOISY)
    if behavior not in _TRACKER_KEYS:
        raise ValidationError(f"{cfg.source}: unknown tracker behavior {behavior!r}")
    cfg.reject_unknown(("behavior", *_TRACKER_KEYS[behavior]),
                       f"tracker behavior {behavior!r}")
    if behavior == ORACLE_NOISY:
        latency = latency_from_config(cfg)
        with cfg.naming():
            tracker = TrackerAdapter(latency, **cfg.set_values(_TRACKER_NOISE))
        return [tracker] * len(sequences)
    latency = latency_from_config(cfg) if cfg.has_group("latency.") else None
    trackers = []
    for seq, path in zip(sequences, run_files(cfg.get_name("trace"), sequences, ".trace.csv")):
        cfg.files[_trace_key(seq.name)] = path
        trace = load_trace(path, seq.name)
        with naming(path):
            trackers.append(TrackerAdapter.replay(trace, latency))
    return trackers


def predictor_from_config(cfg: Config):
    """Predictor config: `kind`, its file (`noise =` for kf_learned,
    `weights =` for pm), `horizon` (default 2; a pm horizon defaults to
    its checkpoint's head count), and an optional `latency.` group
    (default: constant PREDICTOR_LATENCY). `none` reads only `kind`."""
    kind = cfg.get_str("kind")
    if kind in _PREDICTOR_KEYS:  # predictor_for names an unknown kind
        cfg.reject_unknown(("kind", *_PREDICTOR_KEYS[kind]), f"predictor kind {kind!r}")
    file_key = {KF_LEARNED: "noise", NEURAL_PM: "weights"}.get(kind)
    latency = (latency_from_config(cfg) if cfg.has_group("latency.")
               else LatencyProfile.constant(PREDICTOR_LATENCY))
    file = cfg.get_path(file_key) if file_key else None
    horizon = cfg.get_int("horizon") if "horizon" in cfg else None
    with cfg.naming():
        return predictor_for(kind, latency, file=file, horizon=horizon)
