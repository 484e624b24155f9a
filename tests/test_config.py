import functools

import pytest

from fsglab.config import (
    TRAIN_RULES,
    RunConfig,
    TrainConfig,
    config_hash,
    dumps_config,
    load_config,
    loads_config,
    save_config,
)
from fsglab.errors import ConfigError
from fsglab.hypernet import field_leaves


def test_empty_file_gives_full_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = load_config(path)
    assert cfg["beta"] == 0.3
    assert cfg["l"] == 6
    assert cfg["hyper_lr"] == 1e-3
    assert cfg["lr_decay.every"] == 30
    assert cfg["lr_decay.factor"] == 0.1
    assert cfg["base_optimizer.kind"] == "adam"


def test_invalid_l_names_field():
    with pytest.raises(ConfigError, match="'l'"):
        loads_config("l = 0\n")


def test_round_trip_structural_equality(tmp_path):
    text = "\n".join([
        "# experiment",
        "beta = 0.5",
        "l = 4",
        "base_optimizer.kind = sgd",
        "base_optimizer.lr = 0.01",
        "model.layers = dense:2:4, bias:4, relu, dense:4:2:bin",
        "record_timing = false",
    ])
    cfg = loads_config(text)
    path = tmp_path / "a.cfg"
    save_config(cfg, path)
    again = load_config(path)
    assert again.values == cfg.values


def test_canonical_form_is_byte_stable(tmp_path):
    cfg = loads_config("beta = 0.5\n")
    first = dumps_config(cfg)
    second = dumps_config(loads_config(first))
    assert first == second
    assert config_hash(cfg) == config_hash(loads_config(first))


def test_saved_idx_config_reloads(tmp_path):
    # the saved form writes every key, dataset.classes = 2 included
    cfg = loads_config("\n".join([
        "dataset.kind = idx",
        "dataset.images_path = data/train-images-idx3-ubyte",
        "dataset.labels_path = data/train-labels-idx1-ubyte",
        "model.layers = flatten, dense:784:10:bin, bias:10",
    ]))
    path = tmp_path / "config.txt"
    save_config(cfg, path)
    again = load_config(path)
    assert again.values == cfg.values
    assert dumps_config(again) == dumps_config(cfg)


def test_unknown_key_rejected_with_location():
    with pytest.raises(ConfigError, match="line 2.*mystery"):
        loads_config("beta = 0.5\nmystery = 1\n")


def test_parse_error_reports_line_and_col():
    with pytest.raises(ConfigError, match="line 3"):
        loads_config("beta = 0.5\n\njust some words\n")


def test_type_errors_name_key():
    with pytest.raises(ConfigError, match="'epochs'"):
        loads_config("epochs = soon\n")
    with pytest.raises(ConfigError, match="'record_timing'"):
        loads_config("record_timing = yes\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        loads_config("beta = 0.5\nbeta = 0.6\n")


@pytest.mark.parametrize("text", [
    *(f"{key} = 0" for key in ("scan_chunk", "token_dim", "state_dim", "expand",
                               "fast_hidden", "bit_width", "bench.seeds", "bench.repeats",
                               "bench.components", "bench.dim", "bench.t",
                               "dataset.classes", "dataset.n_per_class")),
    "scan_chunk = -5",
    "bench.t = -1",
])
def test_nonpositive_size_names_field(text):
    key = text.split(" =")[0]
    with pytest.raises(ConfigError, match=f"'{key}'"):
        loads_config(text)


@pytest.mark.parametrize("text", [
    "dataset.classes = 5",  # spirals is the default kind
    "dataset.kind = spirals\ndataset.classes = 1",
    "dataset.kind = idx\ndataset.classes = 10",
])
def test_classes_the_dataset_kind_does_not_take(text):
    with pytest.raises(ConfigError, match="'dataset.classes'"):
        loads_config(text)


@pytest.mark.parametrize("text", ["dataset.kind = spirals\ndataset.classes = 2",
                                  "dataset.kind = blobs\ndataset.classes = 5",
                                  "dataset.kind = idx",
                                  "dataset.kind = idx\ndataset.classes = 2"])
def test_classes_the_dataset_kind_takes(text):
    loads_config(text)


@pytest.mark.parametrize("kind", ["blobs", "spirals"])
@pytest.mark.parametrize("key", ["dataset.images_path", "dataset.labels_path",
                                 "dataset.test_images_path", "dataset.test_labels_path"])
def test_idx_path_the_dataset_kind_does_not_read(kind, key):
    with pytest.raises(ConfigError, match=f"^field '{key}': only idx reads it, {kind} keeps '', "
                                          f"got '/nope'$"):
        loads_config(f"dataset.kind = {kind}\n{key} = /nope\n")


@pytest.mark.parametrize("kind", ["blobs", "spirals", "idx"])
def test_saved_config_of_every_kind_reloads(kind):
    cfg = loads_config(f"dataset.kind = {kind}\n")
    assert dumps_config(loads_config(dumps_config(cfg))) == dumps_config(cfg)


# one rejected value per key of TRAIN_RULES
TRAIN_REJECTS = [("l", 0), ("epochs", 0), ("batch_size", 0), ("bit_width", 0),
                 ("fast_hidden", 0), ("token_dim", 0), ("state_dim", 0), ("expand", 0),
                 ("scan_chunk", -2), ("slow_kind", "gru"), ("fast_kind", "rnn"),
                 ("history_source", "mixed"), ("base_optimizer.kind", "rmsprop"),
                 ("base_optimizer.lr", 0.0), ("base_optimizer.eps", -1e-08), ("hyper_lr", 0.0),
                 ("lr_decay.factor", -0.5), ("base_optimizer.beta1", 1.0),
                 ("base_optimizer.beta2", -0.1), ("base_optimizer.momentum", 1.5),
                 ("beta", 1.5), ("lr_decay.every", -1)]


def test_every_train_rule_has_a_rejected_value():
    assert [key for key, _ in TRAIN_REJECTS] == [key for key, _, _ in TRAIN_RULES]


@pytest.mark.parametrize("key,value", TRAIN_REJECTS, ids=[key for key, _ in TRAIN_REJECTS])
def test_train_rule_says_the_same_built_or_loaded(key, value):
    tc = TrainConfig()
    *path, name = key.split(".")
    setattr(functools.reduce(getattr, path, tc), name, value)
    with pytest.raises(ConfigError, match=f"^field '{key}': .*, got {value!r}$") as built:
        tc.validate()
    with pytest.raises(ConfigError) as loaded:
        loads_config(f"{key} = {value}\n")
    assert str(built.value) == str(loaded.value)


def test_enum_validation():
    with pytest.raises(ConfigError, match="slow_kind"):
        loads_config("slow_kind = transformer\n")


def test_comments_and_blanks_ignored():
    cfg = loads_config("# header\n\nbeta = 0.7  # inline\n")
    assert cfg["beta"] == 0.7


def test_to_train_config_carries_fields():
    cfg = loads_config("alpha = 0.4\nbeta = 0.2\nl = 5\nhyper_lr = 0.01\n")
    tc = cfg.to_train_config()
    assert tc.alpha == 0.4
    assert tc.beta == 0.2
    assert tc.l == 5
    assert tc.hyper_lr == 0.01
    tc.validate()


def test_to_train_config_carries_every_train_key():
    cfg = loads_config("base_optimizer.momentum = 0.5\nlr_decay.every = 7\n"
                       "scan_chunk = 16\nrecord_timing = true\n")
    flat = dict(field_leaves(cfg.to_train_config()))
    assert flat == {key: cfg[key] for key in flat}
    assert flat["lr_decay.every"] == 7 and flat["record_timing"] is True


def test_config_hash_pinned():
    assert config_hash(loads_config("")) == (
        "35877688f73c81b94ca0ed8c6dbae0e7cf9f10751375c34b1fae89094d34f07c")
    assert config_hash(loads_config("beta = 0.5\nl = 4\nbase_optimizer.kind = sgd")) == (
        "eb067d9d0f6044d53f2efd49e9c95e8c483f7a98ea84fc42fa54d92143dac506")


def test_runconfig_defaults_are_isolated():
    a = RunConfig({"beta": 0.9})
    b = RunConfig({})
    assert a["beta"] == 0.9
    assert b["beta"] == 0.3
