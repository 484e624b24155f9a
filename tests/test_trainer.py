import numpy as np
import pytest

from fsglab import checks
from fsglab import trainer as trainer_module
from fsglab.data import gen_synthetic
from fsglab.errors import ContractError, DimensionError, DivergenceError, FormatError
from fsglab.model import Model
from fsglab.rng import Rng
from fsglab.checks import _group_norm_fd
from fsglab.trainer import (
    FsgTrainer,
    LrDecay,
    OptimizerConfig,
    SteTrainer,
    TrainConfig,
    compose_gradient,
)

TOY_LAYERS = ["dense:2:8", "bias:8", "relu", "dense:8:2:bin", "bias:2"]


def toy_config(**kw):
    base = dict(
        alpha=1.0, beta=0.3, l=3,
        base_optimizer=OptimizerConfig(kind="sgd", lr=0.05),
        hyper_lr=1e-3, epochs=1, batch_size=16,
        lr_decay=LrDecay(every=0, factor=1.0), seed=99,
        slow_kind="off", fast_kind="identity",
        token_dim=4, state_dim=2, expand=2, fast_hidden=8,
    )
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def blobs():
    return gen_synthetic("blobs", 40, 0.4, Rng(17))


class TestComposeGradient:
    def test_beta_zero_drops_slow(self):
        rng = Rng(1)
        f, da = rng.normals((2, 2)), rng.normals((2, 2))
        out = compose_gradient(f, rng.normals((2, 2)), da, alpha=0.7, beta=0.0)
        assert np.allclose(out, 0.7 * f * da, atol=1e-15)

    def test_cancellation(self):
        one = np.ones((2, 2))
        out = compose_gradient(one, one, one, alpha=1.0, beta=1.0)
        assert not out.any()

    def test_elementwise_oracle(self):
        rng = Rng(2)
        f, s, da = rng.normals((3, 2)), rng.normals((3, 2)), rng.normals((3, 2))
        out = compose_gradient(f, s, da, alpha=0.4, beta=0.9)
        expect = np.zeros_like(f)
        for idx in np.ndindex(f.shape):
            expect[idx] = 0.4 * f[idx] * da[idx] - 0.9 * s[idx]
        assert np.allclose(out, expect, atol=1e-15)

    def test_absent_slow_treated_as_zero(self):
        rng = Rng(3)
        f, da = rng.normals((2, 2)), rng.normals((2, 2))
        assert np.allclose(compose_gradient(f, None, da, 1.0, 0.3), f * da)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            compose_gradient(np.zeros((2, 2)), None, np.zeros((3, 3)), 1.0, 0.3)


class TestFirstIteration:
    @pytest.mark.parametrize("opt", [
        OptimizerConfig(kind="sgd", lr=0.05),
        OptimizerConfig(kind="sgd", lr=0.05, momentum=0.9),
        OptimizerConfig(kind="adam", lr=0.05),
    ], ids=["sgd", "sgd-momentum", "adam"])
    def test_no_binarized_update(self, blobs, opt):
        """No generated gradient exists yet, so none reaches the base optimizer:
        a zero one would still create (and, for Adam, advance) its slots."""
        tr = FsgTrainer(Model.build(TOY_LAYERS, Rng(99)), toy_config(base_optimizer=opt))
        before = tr.model.layers[3].w.copy()
        tr.step(blobs.x[:16], blobs.y[:16])
        assert np.array_equal(tr.model.layers[3].w, before)
        assert "layer3.w" not in tr.base_state.slots

    def test_buffers_seeded(self, blobs):
        tr = FsgTrainer(Model.build(TOY_LAYERS, Rng(99)), toy_config())
        tr.step(blobs.x[:16], blobs.y[:16])
        assert len(tr.buffers[3]) == 1
        assert tr.prev_quant_grad[3] is not None


class TestDegeneracy:
    def test_criterion_4_sees_one_flipped_forward_weight(self, monkeypatch):
        """Criterion 4 compares the weights the forward used, not a copy of them."""
        effective_weight = FsgTrainer._effective_weight

        def flip_at_step_30(self, *args):
            w_fwd, da_fwd = effective_weight(self, *args)
            if self.iteration + 1 == 30:
                w_fwd = w_fwd.copy()
                w_fwd.flat[0] = -w_fwd.flat[0]
            return w_fwd, da_fwd

        assert checks.criterion_4_degeneracy()[0]
        monkeypatch.setattr(FsgTrainer, "_effective_weight", flip_at_step_30)
        assert not checks.criterion_4_degeneracy()[0]

    def test_binarized_weights_offset_by_one(self, blobs):
        fsg = FsgTrainer(Model.build(TOY_LAYERS, Rng(99)), toy_config())
        ste = SteTrainer(Model.build(TOY_LAYERS, Rng(99)), toy_config())
        snaps = {"fsg": [], "ste": []}
        for name, tr, total in (("fsg", fsg, 21), ("ste", ste, 20)):
            steps = 0
            while steps < total:
                for bx, by in tr._batches(blobs.x, blobs.y):
                    tr.step(bx, by)
                    snaps[name].append(tr.model.layers[3].w.copy())
                    steps += 1
                    if steps >= total:
                        break
        for k in range(20):
            assert np.array_equal(snaps["fsg"][k + 1], snaps["ste"][k])


class TestHypernetGradients:
    def test_step2_matches_finite_differences(self, blobs):
        """End-to-end hypernet gradients through the re-parameterized forward
        (surrogate quantizer) match central finite differences.

        Comparison is per parameter group in infinity norm: the FD noise floor
        is set by the O(1) loss, so coordinates with near-zero gradients carry
        no signal individually."""
        cfg = toy_config(fast_kind="mlp", slow_kind="selective-ssm", l=2,
                         alpha=0.7, beta=0.4, fast_hidden=5, token_dim=3,
                         state_dim=2, base_optimizer=OptimizerConfig(kind="sgd", lr=0.1))
        tr = FsgTrainer(Model.build(["dense:2:4:bin", "bias:4", "relu",
                                     "dense:4:2", "bias:2"], Rng(11)), cfg)
        r = Rng(555)
        for name, arr in tr.bundle.named_params():
            if name == "slow.a_log":
                arr[...] = r.uniforms(arr.shape) - 0.5
            else:
                arr[...] = 0.8 * r.normals(arr.shape)
        b1 = (blobs.x[:8], blobs.y[:8])
        b2 = (blobs.x[8:16], blobs.y[8:16])
        tr.step(*b1)
        for i in tr.bin_indices:
            tr.buffers[i].load(r.normals((2, tr.buffers[i].xi)))
            tr.prev_quant_grad[i] = r.normals(tr.model.layers[i].w.shape)
        res = tr._compute_step(*b2, surrogate=True)
        hyper = res["hyper_grads"]
        for name, arr in tr.bundle.named_params():
            rel = _group_norm_fd(lambda: tr.surrogate_loss(*b2), arr, hyper[name])
            assert rel < 1e-4, f"{name}: {rel}"

    def test_surrogate_loss_is_pure(self, blobs):
        cfg = toy_config(fast_kind="mlp", slow_kind="selective-ssm", l=2)
        tr = FsgTrainer(Model.build(TOY_LAYERS, Rng(3)), cfg)
        tr.step(blobs.x[:16], blobs.y[:16])
        before = tr.params_checksum()
        tr.surrogate_loss(blobs.x[16:32], blobs.y[16:32])
        assert tr.params_checksum() == before


class TestTrainerBehavior:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_error_carries_iteration(self, blobs):
        # the first update overflows the weights, so the next forward
        # produces a non-finite loss
        cfg = toy_config(base_optimizer=OptimizerConfig(kind="sgd", lr=1e300))
        tr = SteTrainer(Model.build(["dense:2:8", "dense:8:2"], Rng(1)), cfg)
        with pytest.raises(DivergenceError) as err:
            for _ in range(50):
                tr.train_epoch(blobs.x, blobs.y)
        assert err.value.iteration > 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("method,fast_kind,momentum,weights,at", [
        ("ste", "identity", 0.0, "W", 2),
        ("fsg", "identity", 0.0, "W' = W - lr[*]G", 2),
        ("fsg", "mlp", 0.9, "W", 4)])
    def test_nonfinite_weights_name_layer_and_iteration(self, blobs, method, fast_kind,
                                                        momentum, weights, at):
        # lr = 1e308 overflows an update of W; with plain SGD the FSG trainer
        # meets the overflow one step earlier, at the probe point W' = W - lr*G
        cfg = toy_config(fast_kind=fast_kind, base_optimizer=OptimizerConfig(
            kind="sgd", lr=1e308, momentum=momentum))
        trainer = FsgTrainer if method == "fsg" else SteTrainer
        tr = trainer(Model.build(["dense:2:8:bin", "dense:8:2:bin"], Rng(1)), cfg)
        with pytest.raises(DivergenceError,
                           match=f"^non-finite weights {weights} of layer 0 at iteration {at}$"):
            tr.train_epoch(blobs.x, blobs.y)
        assert tr.iteration == at - 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_evaluate_names_nonfinite_weights(self, blobs):
        tr = SteTrainer(Model.build(TOY_LAYERS, Rng(1)), toy_config())
        tr.step(blobs.x[:16], blobs.y[:16])
        tr.model.layers[3].w[0, 0] = np.inf
        with pytest.raises(DivergenceError,
                           match="^non-finite weights W of layer 3 at iteration 1$"):
            tr.evaluate(blobs.x, blobs.y)

    def test_nonfinite_probe_point_on_surrogate_path_names_layer(self, blobs):
        tr = FsgTrainer(Model.build(TOY_LAYERS, Rng(5)), toy_config())
        tr.step(blobs.x[:16], blobs.y[:16])
        tr.prev_quant_grad[3] = np.full_like(tr.model.layers[3].w, np.inf)  # G = inf
        with pytest.raises(DivergenceError, match="^non-finite weights W' = W - lr[*]G "
                                                  "of layer 3 at iteration 2$"):
            tr.surrogate_loss(blobs.x[16:32], blobs.y[16:32])

    def test_nonfinite_generated_gradient_names_layer(self, blobs):
        cfg = toy_config(fast_kind="mlp", slow_kind="selective-ssm", l=2)
        tr = FsgTrainer(Model.build(TOY_LAYERS, Rng(5)), cfg)
        tr.train_epoch(blobs.x, blobs.y)
        tr.bundle.w_head[...] = np.nan
        with pytest.raises(DivergenceError, match="layer 3") as err:
            tr.train_epoch(blobs.x, blobs.y)
        assert err.value.iteration == tr.iteration + 1

    def test_nonfinite_hyper_gradient_names_parameter_before_any_update(self, blobs,
                                                                         monkeypatch):
        cfg = toy_config(fast_kind="mlp", slow_kind="selective-ssm", l=2)
        tr = FsgTrainer(Model.build(TOY_LAYERS, Rng(5)), cfg)
        tr.train_epoch(blobs.x, blobs.y)
        real = trainer_module.slow_backward

        def poisoned(*args, **kwargs):
            grads = real(*args, **kwargs)
            grads["slow.a_log"][0, 0] = np.nan
            return grads

        monkeypatch.setattr(trainer_module, "slow_backward", poisoned)
        before = {name: arr.copy() for name, arr in tr.bundle.named_params()}
        it = tr.iteration + 1
        with pytest.raises(DivergenceError, match=f"^non-finite hyper-gradient of slow.a_log "
                                                  f"at iteration {it}$") as err:
            tr.step(blobs.x[:16], blobs.y[:16])
        assert err.value.iteration == it and tr.iteration == it - 1
        for name, arr in tr.bundle.named_params():
            assert np.array_equal(arr, before[name]), name

    def test_evaluate_purity(self, blobs):
        cfg = toy_config(fast_kind="mlp", slow_kind="selective-ssm")
        tr = FsgTrainer(Model.build(TOY_LAYERS, Rng(5)), cfg)
        for _ in range(2):
            tr.train_epoch(blobs.x, blobs.y)
        before = tr.params_checksum()
        buffers_before = {i: b.window().copy() for i, b in tr.buffers.items()}
        opt_before = {k: {kk: vv.copy() for kk, vv in v.items()}
                      for k, v in tr.base_state.slots.items()}
        tr.evaluate(blobs.x, blobs.y, "train")
        assert tr.params_checksum() == before
        for i, b in tr.buffers.items():
            assert np.array_equal(b.window(), buffers_before[i])
        for k, v in tr.base_state.slots.items():
            for kk, vv in v.items():
                assert np.array_equal(vv, opt_before[k][kk])

    def test_step_and_evaluate_keep_the_callers_numpy_state(self, blobs):
        """The kernels scope numpy's ufunc buffer; none of it may leak out."""
        cfg = toy_config(fast_kind="mlp", slow_kind="selective-ssm")
        tr = FsgTrainer(Model.build(TOY_LAYERS, Rng(5)), cfg)
        with np.errstate(all="ignore"):
            np.setbufsize(4096)
            before = (np.getbufsize(), np.geterr())
            for _ in range(2):  # the first step and a generated-gradient one
                tr.step(blobs.x[:16], blobs.y[:16])
                assert (np.getbufsize(), np.geterr()) == before
            tr.evaluate(blobs.x, blobs.y)
            assert (np.getbufsize(), np.geterr()) == before

    def test_evaluate_perfect_fit(self):
        # dataset the quantized model classifies perfectly by construction
        data = gen_synthetic("blobs", 10, 0.0, Rng(2))
        tr = SteTrainer(Model.build(["dense:2:2", "bias:2"], Rng(1)), toy_config())
        tr.model.layers[0].w[...] = np.array([[5.0, -5.0], [0.0, 0.0]])
        rec = tr.evaluate(data.x, data.y, "train")
        assert rec.accuracy == 1.0

    def test_empty_batch_contract(self, blobs):
        tr = SteTrainer(Model.build(TOY_LAYERS, Rng(1)), toy_config())
        with pytest.raises(ContractError):
            tr.evaluate(blobs.x[:0], blobs.y[:0])
        with pytest.raises(ContractError):
            tr.train_epoch(blobs.x[:0], blobs.y[:0])

    def test_determinism_metrics_stream(self, blobs):
        def run():
            cfg = toy_config(fast_kind="mlp", slow_kind="selective-ssm", l=2,
                             base_optimizer=OptimizerConfig(kind="adam", lr=1e-3))
            tr = FsgTrainer(Model.build(TOY_LAYERS, Rng(5)), cfg)
            return [repr(tr.train_epoch(blobs.x, blobs.y)) for _ in range(3)]

        assert run() == run()

    def test_lr_decay_schedule(self):
        cfg = toy_config(lr_decay=LrDecay(every=2, factor=0.1))
        tr = SteTrainer(Model.build(TOY_LAYERS, Rng(1)), cfg)
        assert tr.current_lr() == pytest.approx(0.05)
        tr.epoch = 2
        assert tr.current_lr() == pytest.approx(0.005)
        tr.epoch = 4
        assert tr.current_lr() == pytest.approx(0.0005)

    def test_history_source_composed(self, blobs):
        cfg = toy_config(fast_kind="mlp", slow_kind="off", history_source="composed")
        tr = FsgTrainer(Model.build(TOY_LAYERS, Rng(6)), cfg)
        tr.step(blobs.x[:16], blobs.y[:16])
        _, res = tr.step(blobs.x[16:32], blobs.y[16:32])
        i = tr.bin_indices[0]
        pushed = tr.buffers[i].entries()[-1]
        assert np.array_equal(pushed, res["layers"][i].g_fsg.reshape(-1))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="l must"):
            toy_config(l=0).validate()
        with pytest.raises(ValueError, match="beta"):
            toy_config(beta=1.5).validate()
        with pytest.raises(ValueError, match="lr"):
            toy_config(base_optimizer=OptimizerConfig(kind="sgd", lr=0.0)).validate()

    def test_checkpoint_round_trip(self, blobs, tmp_path):
        """The checkpoint npz holds every array (model, hypernets, optimizer slots, histories,
        meta) bit for bit, dtype included."""
        cfg = toy_config(fast_kind="mlp", slow_kind="selective-ssm", l=2,
                         base_optimizer=OptimizerConfig(kind="adam", lr=1e-3))
        tr = FsgTrainer(Model.build(TOY_LAYERS, Rng(8)), cfg)
        for _ in range(2):
            tr.train_epoch(blobs.x, blobs.y)
        arrays = tr._checkpoint_arrays()
        assert {"lre", "hyper.lre.m", "base.layer3.w.v", "meta.data_rng_state"} <= set(arrays)
        assert any(name.startswith("history.") for name in arrays)
        path = tmp_path / "ckpt.npz"
        tr.save_checkpoint(path)
        with np.load(path, allow_pickle=False) as loaded:
            assert sorted(loaded.files) == sorted(arrays)
            for name, arr in arrays.items():
                assert np.array_equal(loaded[name], arr), name
                assert loaded[name].dtype == arr.dtype, name


class TestIntegration:
    def test_conv_model_trains_with_generated_gradients(self):
        # tiny conv net end to end: conv features, binarized conv, dense head
        rng = Rng(12)
        x = rng.normals((24, 1, 6, 6))
        y = (x.mean(axis=(1, 2, 3)) > 0).astype(np.int64)
        layers = ["conv2d:1:3:3:pad=1", "bias:3", "relu",
                  "conv2d:3:3:3:pad=1:bin", "relu", "flatten",
                  "dense:108:2", "bias:2"]
        cfg = toy_config(fast_kind="mlp", slow_kind="selective-ssm", l=2,
                         batch_size=12,
                         base_optimizer=OptimizerConfig(kind="adam", lr=1e-2))
        tr = FsgTrainer(Model.build(layers, Rng(2)), cfg)
        first = None
        for _ in range(15):
            rec = tr.train_epoch(x, y)
            first = first if first is not None else rec.loss
        assert np.isfinite(rec.loss)
        assert rec.loss < first  # it learns something
        assert tr.buffers[3].xi == 3 * 3 * 3 * 3

    def test_trainer_checkpoint_save_load_round_trip(self, blobs, tmp_path):
        cfg = toy_config(fast_kind="mlp", slow_kind="selective-ssm", l=2,
                         base_optimizer=OptimizerConfig(kind="adam", lr=1e-3))
        tr = FsgTrainer(Model.build(TOY_LAYERS, Rng(8)), cfg)
        for _ in range(2):
            tr.train_epoch(blobs.x, blobs.y)
        path = tmp_path / "state.npz"
        tr.save_checkpoint(path)
        rec_next = tr.train_epoch(blobs.x, blobs.y)

        other = FsgTrainer(Model.build(TOY_LAYERS, Rng(8)), cfg)
        other.load_checkpoint(path)
        assert other.iteration == tr.iteration - 5  # one 5-step epoch after saving
        rec_other = other.train_epoch(blobs.x, blobs.y)
        # resumed trainer reproduces the original's next epoch exactly
        assert repr(rec_other) == repr(rec_next)

    @pytest.mark.parametrize("corrupt", ["cut_lre", "drop_w_in", "cut_hyper_slots",
                                         "cut_base_slot", "narrow_history",
                                         "long_history", "transposed_prev_grad"])
    def test_checkpoint_shape_mismatch_raises(self, blobs, tmp_path, corrupt):
        layers = ["dense:2:8", "bias:8", "relu", "dense:8:8:bin", "relu",
                  "dense:8:2:bin", "bias:2"]
        cfg = toy_config(fast_kind="mlp", slow_kind="selective-ssm", l=2,
                         base_optimizer=OptimizerConfig(kind="adam", lr=1e-3))
        tr = FsgTrainer(Model.build(layers, Rng(8)), cfg)
        tr.train_epoch(blobs.x, blobs.y)
        path = tmp_path / "state.npz"
        tr.save_checkpoint(path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        assert arrays["lre"].shape == (2, cfg.token_dim)
        if corrupt == "cut_lre":
            arrays["lre"] = arrays["lre"][:1]
            match = r"'lre'.*\(1, 4\).*\(2, 4\)"
        elif corrupt == "drop_w_in":
            del arrays["slow.w_in"]
            match = "'slow.w_in'"
        elif corrupt == "cut_hyper_slots":
            # a (1, d) slot would fail later inside adam_step, unnamed
            arrays["hyper.lre.m"] = arrays["hyper.lre.m"][:1]
            arrays["hyper.lre.v"] = arrays["hyper.lre.v"][:1]
            match = r"'hyper.lre.m'.*\(1, 4\).*\(2, 4\)"
        elif corrupt == "cut_base_slot":
            arrays["base.layer3.w.v"] = arrays["base.layer3.w.v"][:1]
            match = r"'base.layer3.w.v'.*\(1, 8\).*\(8, 8\)"
        elif corrupt == "narrow_history":
            # a reshape to (-1, xi) would fuse the two half rows into one
            arrays["history.layer5"] = arrays["history.layer5"][:, :8]
            match = r"'history.layer5'.*\(2, 8\).*\(2, 16\)"
        elif corrupt == "long_history":
            arrays["history.layer5"] = np.concatenate([arrays["history.layer5"]] * 2)
            match = r"'history.layer5'.*\(4, 16\).*\(2, 16\)"
        else:
            arrays["prev_grad.layer5"] = arrays["prev_grad.layer5"].T
            match = r"'prev_grad.layer5'.*\(2, 8\).*\(8, 2\)"
        np.savez(path, **arrays)
        other = FsgTrainer(Model.build(layers, Rng(8)), cfg)
        with pytest.raises(FormatError, match=match):
            other.load_checkpoint(path)

    def test_lstm_slow_net_trains(self, blobs):
        cfg = toy_config(fast_kind="mlp", slow_kind="lstm", l=2,
                         base_optimizer=OptimizerConfig(kind="adam", lr=1e-3))
        tr = FsgTrainer(Model.build(TOY_LAYERS, Rng(9)), cfg)
        for _ in range(3):
            rec = tr.train_epoch(blobs.x, blobs.y)
        assert np.isfinite(rec.loss)
