"""One compute dtype: a stage-1 train step, network.predict and a stage-2
step compute every value and gradient in autodiff.COMPUTE_DTYPE, and agree
with the same code run in float64 on float64 copies of the parameters."""

import numpy as np
import pytest

from gridpose import autodiff as ad
from gridpose import codec, config, synth
from gridpose import interaction as ia
from gridpose import network as net

from conftest import float64

CFG = config.toy_preset()


@pytest.fixture
def dtypes(monkeypatch):
    """The dtype of every autodiff value and gradient made while it is active."""
    seen = []
    make, accumulate = ad.Tensor._make, ad.Tensor._accumulate

    def recording_make(data, parents, backward):
        out = make(data, parents, backward)
        seen.append(("value", out.data.dtype))
        return out

    def recording_accumulate(self, g, owned=False):
        seen.append(("gradient", np.asarray(g).dtype))
        return accumulate(self, g, owned)

    monkeypatch.setattr(ad.Tensor, "_make", staticmethod(recording_make))
    monkeypatch.setattr(ad.Tensor, "_accumulate", recording_accumulate)
    return seen


def kinds(seen, dtype):
    """Which kinds of record (value, gradient) were made in another dtype than dtype."""
    return sorted({kind for kind, d in seen if d != dtype})


@pytest.fixture(scope="module")
def frames():
    return [synth.sample_scene((43, i), CFG.scene) for i in range(16)]


@pytest.fixture(scope="module")
def targets(frames):
    return net.BatchTargets.from_scenes(frames, CFG.grid, CFG.labels, CFG.camera,
                                        np.stack([f.raster for f in frames]))


def test_parameters_and_data_enter_in_the_compute_dtype(targets):
    params = net.init_params(CFG.backbone, CFG.grid, CFG.labels, 0)
    model = ia.init_interaction(CFG.interaction_model_config(), 0)
    arrays = [*params.tensors.values(), *model.params.values(), targets.images]
    assert {a.dtype for a in arrays} == {np.dtype(ad.COMPUTE_DTYPE)}


def test_stage1_train_step(targets, dtypes):
    params = net.init_params(CFG.backbone, CFG.grid, CFG.labels, 1)
    args = (targets, CFG.loss, CFG.backbone, CFG.grid, CFG.labels, CFG.optim.conf_targets)
    value, grads, _ = net.multitask_loss(params, *args)
    assert dtypes and kinds(dtypes, ad.COMPUTE_DTYPE) == []
    assert {g.dtype for g in grads.values()} == {np.dtype(ad.COMPUTE_DTYPE)}

    dtypes.clear()
    want, want_grads, _ = net.multitask_loss(float64(params), *args)
    assert dtypes and kinds(dtypes, np.float64) == []
    assert {g.dtype for g in want_grads.values()} == {np.dtype(np.float64)}
    assert value == pytest.approx(want, rel=1e-5)

    net.sgd_epoch(params, targets, CFG.optim.lr, CFG.loss, CFG.backbone, CFG.grid, CFG.labels,
                  np.random.default_rng(0), batch_size=len(targets))
    assert {t.dtype for t in params.tensors.values()} == {np.dtype(ad.COMPUTE_DTYPE)}


def test_predict(frames, dtypes, monkeypatch):
    params = net.init_params(CFG.backbone, CFG.grid, CFG.labels, 2)
    heads = []
    decode_best = codec.decode_best

    def recording_decode_best(conf_logits, read_cells, *args):
        """Records the dtype of the head's confidence logits and of its channels
        at the winning cells, which predict computes outside autodiff."""
        def read(cells):
            channels = read_cells(cells)
            heads.append(channels.dtype)
            return channels

        heads.append(conf_logits.dtype)
        return decode_best(conf_logits, read, *args)

    monkeypatch.setattr(codec, "decode_best", recording_decode_best)
    preds = net.predict(params, np.stack([f.raster for f in frames]), CFG.backbone, CFG.grid,
                        CFG.labels, CFG.camera)
    assert len(preds) == len(frames)
    assert dtypes and kinds(dtypes, ad.COMPUTE_DTYPE) == []
    assert heads == [np.dtype(ad.COMPUTE_DTYPE)] * 2


def test_stage2_sequence_loss_step(dtypes):
    model = ia.init_interaction(CFG.interaction_model_config(), 3)
    rng = np.random.default_rng(4)
    batch = rng.normal(size=(CFG.interaction.batch_size, 16, model.cfg.input_width))
    labels = rng.integers(0, model.cfg.n_classes, size=len(batch))
    value, grads = ia.sequence_loss(model, batch, labels)
    assert dtypes and kinds(dtypes, ad.COMPUTE_DTYPE) == []
    assert {g.dtype for g in grads.values()} == {np.dtype(ad.COMPUTE_DTYPE)}

    dtypes.clear()
    want, want_grads = ia.sequence_loss(float64(model), batch, labels)
    assert dtypes and kinds(dtypes, np.float64) == []
    assert {g.dtype for g in want_grads.values()} == {np.dtype(np.float64)}
    assert value == pytest.approx(want, rel=1e-5)
