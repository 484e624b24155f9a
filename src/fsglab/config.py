"""Run configuration: a small dotted-key text dialect with strict schema.

Format: one `key = value` per line, `#` starts a comment, blank lines are
ignored.  Nesting is spelled with dots (`base_optimizer.lr = 0.001`).
Unknown keys are rejected.  `save_config` emits the canonical form (sorted
keys, shortest round-tripping float repr), so load -> save -> load is the
identity and the canonical bytes are stable enough to hash.

An empty file is a valid config: every field has a default.  The train
settings, their defaults, types and checks are those of `TrainConfig`; its
nested dataclasses give the dotted `base_optimizer.*` and `lr_decay.*` keys.
Only the run-level keys (method, dataset, model, output, bench) are listed
here.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .hypernet import field_leaves
from .trainer import TrainConfig, check_fields

_DEFAULT_LAYERS = [
    "dense:2:32", "bias:32", "relu",
    "dense:32:32:bin", "relu",
    "dense:32:2", "bias:2",
]

_TAGS = {int: "int", float: "float", str: "str", bool: "bool"}


# key -> (type tag, default); type tags: int, float, str, bool, list
_SCHEMA = {key: (_TAGS[type(v)], v) for key, v in field_leaves(TrainConfig())}
_SCHEMA.update({
    "method": ("str", "fsg"),
    "dataset.kind": ("str", "spirals"),
    "dataset.classes": ("int", 2),
    "dataset.n_per_class": ("int", 200),
    "dataset.test_per_class": ("int", 0),
    "dataset.noise": ("float", 0.15),
    "dataset.seed": ("int", 1),
    "dataset.images_path": ("str", ""),
    "dataset.labels_path": ("str", ""),
    "dataset.test_images_path": ("str", ""),
    "dataset.test_labels_path": ("str", ""),
    "model.layers": ("list", _DEFAULT_LAYERS),
    "output_dir": ("str", "runs/out"),
    "bench.dim": ("int", 10),
    "bench.noise": ("float", 0.1),
    "bench.slow_noise": ("float", 0.5),
    "bench.c": ("float", 4.0),
    "bench.t": ("int", 10000),
    "bench.repeats": ("int", 3),
    "bench.seeds": ("int", 10),
    "bench.omega": ("float", 0.8),
    "bench.theta": ("float", 1.25),
    "bench.components": ("int", 64),
})

_ENUMS = {
    "method": ("fsg", "ste"),
    "dataset.kind": ("blobs", "spirals", "idx"),
}
# the (images, labels) pairs of an idx run's training and test splits
_IDX_PATHS = (("dataset.images_path", "dataset.labels_path"),
              ("dataset.test_images_path", "dataset.test_labels_path"))
# run-level sizes; TrainConfig.validate checks the train settings' own
_AT_LEAST_ONE = ("dataset.classes", "dataset.n_per_class", "bench.dim", "bench.t",
                 "bench.repeats", "bench.seeds", "bench.components")


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {k: v for k, (_, v) in _SCHEMA.items()}
        merged.update(self.values)
        self.values = merged

    def __getitem__(self, key):
        return self.values[key]

    def to_train_config(self) -> TrainConfig:
        tc = TrainConfig()
        for key, _ in field_leaves(tc):
            *path, name = key.split(".")
            setattr(functools.reduce(getattr, path, tc), name, self.values[key])
        return tc


def parse_value(key: str, raw: str, where: str):
    """raw as key's type; a ConfigError starts with where, e.g. `line 3, col 5`."""
    tag = _SCHEMA[key][0]
    raw = raw.strip()
    if not raw and tag != "str":
        raise ConfigError(f"{where}: empty value for {key!r}")
    try:
        if tag == "int":
            if "." in raw or "e" in raw.lower():
                raise ValueError
            return int(raw)
        if tag == "float":
            value = float(raw)
            if math.isfinite(value):
                return value
        elif tag == "bool":
            if raw not in ("true", "false"):
                raise ValueError
            return raw == "true"
        elif tag == "list":
            return [p.strip() for p in raw.split(",") if p.strip()]
        else:
            return raw
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {tag} for {key!r}") from None
    raise ConfigError(f"{where}: {key!r} must be finite, got {raw!r}")  # a nan or inf float


def loads_config(text: str) -> RunConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            col = len(line) - len(line.lstrip()) + 1
            raise ConfigError(f"line {lineno}, col {col}: expected 'key = value'")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _SCHEMA:
            col = line.index(key) + 1 if key and key in line else 1
            raise ConfigError(f"line {lineno}, col {col}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = parse_value(key, raw, f"line {lineno}, col {line.index('=') + 2}")
    cfg = RunConfig(values)
    check_fields(cfg.__getitem__, _AT_LEAST_ONE, _ENUMS)
    kind, classes = cfg["dataset.kind"], cfg["dataset.classes"]
    if kind != "blobs" and classes != 2:
        raise ConfigError(f"field 'dataset.classes': only blobs read it, {kind} keeps 2, "
                          f"got {classes}")
    if kind == "idx":  # each pair is given whole or not at all
        for pair in _IDX_PATHS:
            missing = [key for key in pair if not cfg[key]]
            if len(missing) == 1:
                raise idx_path_error(missing[0])
    cfg.to_train_config().validate()
    return cfg


def idx_path_error(key: str) -> ConfigError:
    return ConfigError(f"field {key!r}: idx data needs both its images and labels paths, got ''")


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_config(fh.read())


def _format_value(key: str, value) -> str:
    tag = _SCHEMA[key][0]
    if tag == "bool":
        return "true" if value else "false"
    if tag == "list":
        return ", ".join(value)
    if tag == "float":
        return repr(float(value))
    return str(value)


def dumps_config(cfg: RunConfig) -> str:
    lines = [f"{key} = {_format_value(key, cfg.values[key])}" for key in sorted(_SCHEMA)]
    return "\n".join(lines) + "\n"


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_config(cfg))


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(dumps_config(cfg).encode("utf-8")).hexdigest()
