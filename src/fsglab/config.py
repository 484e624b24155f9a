"""Run configuration: a small dotted-key text dialect with strict schema.

Format: one `key = value` per line, `#` starts a comment, blank lines are
ignored.  Nesting is spelled with dots (`base_optimizer.lr = 0.001`).
Unknown keys are rejected.  `save_config` emits the canonical form (sorted
keys, shortest round-tripping float repr), so load -> save -> load is the
identity and the canonical bytes are stable enough to hash.

An empty file is a valid config: every field has a default.  The train
settings are the fields of `TrainConfig` (nested: `base_optimizer.*`,
`lr_decay.*`); `_SCHEMA` adds the run-level keys (method, dataset, model,
output, bench).

Each rule a value must meet is one `(key, test(value, get), message)` entry,
and `check` raises `ConfigError("field '<key>': <message>, got <value!r>")`
at the first that fails.  TRAIN_RULES hold for every TrainConfig a trainer
is built from, LOAD_RULES (the run-level keys) on every load before them,
BENCH_RULES for `bench-convergence`, DATA_RULES for runs that read data.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
from dataclasses import dataclass, field

from .convergence import FIT_WINDOW
from .errors import ConfigError
from .hypernet import SCAN_CHUNK, field_leaves


@dataclass
class OptimizerConfig:
    kind: str = "adam"
    lr: float = 1e-3
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass
class LrDecay:
    every: int = 30  # epochs
    factor: float = 0.1


@dataclass
class TrainConfig:
    """Every train setting; each leaf field is a config key (nested ones dotted).
    Defaults follow the experiment-setup table this lab is derived from."""

    alpha: float = 1.0
    beta: float = 0.3
    l: int = 6
    base_optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    hyper_lr: float = 1e-3
    epochs: int = 100
    batch_size: int = 64
    lr_decay: LrDecay = field(default_factory=LrDecay)
    seed: int = 0
    slow_kind: str = "selective-ssm"
    fast_kind: str = "mlp"
    bit_width: int = 1
    fast_hidden: int = 100
    token_dim: int = 16
    state_dim: int = 8
    expand: int = 2
    scan_chunk: int = SCAN_CHUNK
    history_source: str = "raw"
    record_timing: bool = False

    def validate(self) -> None:
        """The one check of the train settings, `TRAIN_RULES`."""
        check(TRAIN_RULES, lambda key: operator.attrgetter(key)(self))


def check(rules, get) -> None:
    """ConfigError naming the key of the first rule whose test(get(key), get) fails; a
    message that quotes another key is a function of get."""
    for key, test, message in rules:
        value = get(key)
        if not test(value, get):
            message = message(get) if callable(message) else message
            raise ConfigError(f"field {key!r}: {message}, got {value!r}")


def _sizes(*keys):
    return [(key, lambda v, get: v >= 1, f"{key} must be >= 1") for key in keys]


def _enums(*table):
    return [(key, lambda v, get, allowed=allowed: v in allowed, f"{key} must be one of {allowed}")
            for key, allowed in table]


TRAIN_RULES = [
    *_sizes("l", "epochs", "batch_size", "bit_width", "fast_hidden", "token_dim", "state_dim",
            "expand", "scan_chunk"),
    *_enums(("slow_kind", ("selective-ssm", "lstm", "off")),
            ("fast_kind", ("mlp", "identity", "off")),
            ("history_source", ("raw", "composed")),
            ("base_optimizer.kind", ("sgd", "adam"))),
    *((key, lambda v, get: v > 0, f"{key.split('.')[-1]} must be > 0")
      for key in ("base_optimizer.lr", "base_optimizer.eps", "hyper_lr", "lr_decay.factor")),
    # Adam divides by 1 - beta**t; momentum >= 1 makes SGD's velocity grow without bound
    *((key, lambda v, get: 0.0 <= v < 1.0, f"{key.split('.')[-1]} must be in [0, 1)")
      for key in ("base_optimizer.beta1", "base_optimizer.beta2", "base_optimizer.momentum")),
    ("beta", lambda v, get: 0.0 <= v <= 1.0, "beta must be in [0, 1]"),
    ("lr_decay.every", lambda v, get: v >= 0, "every must be >= 0 (0 never decays)"),
]

# the (images, labels) pairs of an idx run's training and test splits
_IDX_PAIRS = (("dataset.images_path", "dataset.labels_path"),
              ("dataset.test_images_path", "dataset.test_labels_path"))
_IDX_PAIR = "idx data needs both its images and labels paths"
# the keys only the synthetic generators (blobs, spirals) read
_SYNTHETIC = ("dataset.n_per_class", "dataset.test_per_class", "dataset.noise", "dataset.seed")

LOAD_RULES = [
    *_sizes("dataset.classes", "dataset.n_per_class", "bench.dim", "bench.t", "bench.repeats",
            "bench.seeds", "bench.components"),
    *_enums(("method", ("fsg", "ste")), ("dataset.kind", ("blobs", "spirals", "idx"))),
    ("dataset.classes", lambda v, get: v == 2 or get("dataset.kind") == "blobs",
     lambda get: f"only blobs read it, {get('dataset.kind')} keeps 2"),
    *((key, lambda v, get: not v or get("dataset.kind") == "idx",
       lambda get: f"only idx reads it, {get('dataset.kind')} keeps ''")
      for pair in _IDX_PAIRS for key in pair),
    # each pair is given whole or not at all
    *((key, lambda v, get, other=other: v or not get(other), _IDX_PAIR)
      for pair in _IDX_PAIRS for key, other in (pair, pair[::-1])),
    ("dataset.test_per_class", lambda v, get: v >= 0,
     "dataset.test_per_class must be >= 0 (0 draws no test split)"),
    *((key, lambda v, get, key=key: v == _SCHEMA[key][1] or get("dataset.kind") != "idx",
       lambda get, key=key: f"only blobs and spirals read it, idx keeps {_SCHEMA[key][1]!r}")
      for key in _SYNTHETIC),
]

# the domain of `run_fsg_convex`, which a train config need not meet
BENCH_RULES = [
    ("bench.c", lambda v, get: v > 0, "C must be positive"),
    ("bench.omega", lambda v, get: v > 0, "omega must be positive"),
    ("bench.theta", lambda v, get: v >= get("bench.omega"),
     lambda get: f"theta must be >= omega = {get('bench.omega')}"),
    ("beta", lambda v, get: v < 1, "the bench needs beta < 1"),
    ("bench.t", lambda v, get: v >= FIT_WINDOW[0], f"the rate fit starts at t = {FIT_WINDOW[0]}"),
]

# a config may leave the idx pair out; a run reads it
DATA_RULES = [("dataset.images_path", lambda v, get: v or get("dataset.kind") != "idx", _IDX_PAIR)]

_DEFAULT_LAYERS = ["dense:2:32", "bias:32", "relu", "dense:32:32:bin", "relu", "dense:32:2",
                   "bias:2"]

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


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = {**{k: v for k, (_, v) in _SCHEMA.items()}, **self.values}

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
    check(LOAD_RULES, cfg.__getitem__)
    cfg.to_train_config().validate()
    return cfg


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
