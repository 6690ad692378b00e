import numpy as np
import pytest

from dcsh import formats, network
from dcsh.cca import alpha, cca_loss, dcsh_loss, dcsh_lower_bound, k_max
from dcsh.centers import (
    HashCenterSet,
    assign_target,
    gen_bernoulli_centers,
    gen_hadamard_centers,
    update_centers,
)
from dcsh.data import gen_synthetic
from dcsh.errors import (
    ConfigurationError,
    DimensionError,
    NumericError,
    StaleCacheError,
)
from dcsh.network import (
    PREDICT_ROWS,
    DcshModel,
    TrainConfig,
    backward,
    binarize,
    build_model,
    finite_difference_report,
    forward,
    learning_rate,
    predict,
    sgd_step,
    train,
)


def tiny_model(seed=0):
    return build_model(D=6, C=3, bits=4, hidden=(8,), d_int=12, seed=seed)


class TestModelShape:
    def test_properties(self):
        m = tiny_model()
        assert (m.D, m.B, m.D_int, m.C) == (6, 4, 12, 3)
        assert m.hash_index == 1
        assert m.version == 0

    def test_default_intermediate_width(self):
        assert build_model(8, 3, 4).D_int == 128
        assert build_model(8, 40, 4).D_int == 160

    def test_seeded_init_is_reproducible(self):
        a, b = tiny_model(seed=5), tiny_model(seed=5)
        for (Wa, ba), (Wb, bb) in zip(a.layers, b.layers):
            np.testing.assert_array_equal(Wa, Wb)
            np.testing.assert_array_equal(ba, bb)
        c = tiny_model(seed=6)
        assert not np.array_equal(a.layers[0][0], c.layers[0][0])

    def test_biases_start_at_zero(self):
        for _, b in tiny_model().layers:
            assert (b == 0).all()

    def test_glorot_limits(self):
        m = build_model(D=100, C=3, bits=4, hidden=(50,), d_int=20, seed=2)
        W = m.layers[0][0]
        limit = np.sqrt(6.0 / (100 + 50))
        assert np.abs(W).max() <= limit
        assert np.abs(W).max() > 0.8 * limit

    def test_narrow_intermediate_rejected(self):
        with pytest.raises(ConfigurationError, match="must exceed C=3"):
            build_model(D=6, C=3, bits=4, hidden=(8,), d_int=3)
        layers = [
            (np.zeros((6, 4)), np.zeros(4)),
            (np.zeros((4, 3)), np.zeros(3)),
            (np.zeros((3, 3)), np.zeros(3)),
        ]
        with pytest.raises(ConfigurationError):
            DcshModel(layers)

    @pytest.mark.parametrize("kwargs", [
        {"hidden": (8, 0)},
        {"hidden": (-5,)},
        {"bits": 0},
        {"d_int": 0},
    ])
    def test_width_below_one_rejected(self, kwargs):
        args = {"D": 6, "C": 3, "bits": 4, "hidden": (8,), "d_int": 12, **kwargs}
        with pytest.raises(ConfigurationError, match="widths must be >= 1"):
            build_model(**args)

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_fewer_than_three_layers_rejected(self, count):
        layers = [
            (np.zeros((6, 4)), np.zeros(4)),
            (np.zeros((4, 12)), np.zeros(12)),
        ][:count]
        with pytest.raises(DimensionError, match=f"{count} layers"):
            DcshModel(layers)

    @pytest.mark.parametrize("hidden", [(), (8,), (8, 8)])
    def test_depth_read_from_layers(self, tmp_path, hidden):
        built = build_model(D=6, C=3, bits=4, hidden=hidden, d_int=12)
        path = tmp_path / "model.bin"
        formats.write_model(path, built.layers)
        m = DcshModel(formats.read_model(path))
        assert m.n_extractor == built.n_extractor == len(hidden)
        assert (m.D, m.B, m.D_int, m.C) == (6, 4, 12, 3)

    def test_mismatched_chain_rejected(self):
        layers = [
            (np.zeros((6, 4)), np.zeros(4)),
            (np.zeros((5, 12)), np.zeros(12)),
            (np.zeros((12, 3)), np.zeros(3)),
        ]
        with pytest.raises(DimensionError):
            DcshModel(layers)


class TestForward:
    def test_zero_weights_emit_half(self):
        layers = [
            (np.zeros((6, 4)), np.zeros(4)),
            (np.zeros((4, 12)), np.zeros(12)),
            (np.zeros((12, 3)), np.zeros(3)),
        ]
        m = DcshModel(layers)
        x_h, x_c, _ = forward(m, np.ones((5, 6)))
        np.testing.assert_array_equal(x_h, np.full((5, 4), 0.5))
        np.testing.assert_array_equal(x_c, np.full((5, 3), 0.5))

    def test_hand_computed_hash_unit(self):
        # one hash unit fed by weights (1, -1): input (3, 1) gives z = 2
        layers = [
            (np.array([[1.0], [-1.0]]), np.zeros(1)),
            (np.zeros((1, 3)), np.zeros(3)),
            (np.zeros((3, 2)), np.zeros(2)),
        ]
        m = DcshModel(layers)
        x_h, _, _ = forward(m, np.array([[3.0, 1.0]]))
        assert abs(x_h[0, 0] - 1.0 / (1.0 + np.exp(-2.0))) < 1e-15
        assert abs(x_h[0, 0] - 0.8808) < 1e-4

    def test_outputs_in_open_unit_interval(self):
        m = tiny_model(seed=3)
        X = np.random.default_rng(3).standard_normal((40, 6)) * 10
        x_h, x_c, _ = forward(m, X)
        for out in (x_h, x_c):
            assert (out > 0).all() and (out < 1).all()

    def test_sigmoid_stable_at_extremes(self):
        layers = [
            (np.array([[1.0]]), np.zeros(1)),
            (np.ones((1, 3)), np.zeros(3)),
            (np.ones((3, 2)), np.zeros(2)),
        ]
        m = DcshModel(layers)
        x_h, x_c, _ = forward(m, np.array([[-1000.0], [1000.0]]))
        assert np.all(np.isfinite(x_h)) and np.all(np.isfinite(x_c))
        assert x_h[0, 0] == 0.0 and x_h[1, 0] == 1.0

    def test_wrong_width_rejected(self):
        with pytest.raises(DimensionError):
            forward(tiny_model(), np.ones((3, 5)))


class TestPredict:
    @pytest.mark.parametrize("N", [1, 4095, 4096, 4097, 8195])
    def test_matches_forward_byte_for_byte(self, N):
        model = build_model(D=32, C=10, bits=32, seed=4)
        X = np.random.default_rng(N).standard_normal((N, 32))
        x_h, x_c, _ = forward(model, X)
        p_h, p_c = predict(model, X)
        assert p_h.tobytes() == x_h.tobytes()
        assert p_c.tobytes() == x_c.tobytes()

    @pytest.mark.parametrize("N, sizes", [
        (1, [1]),
        (PREDICT_ROWS, [PREDICT_ROWS]),
        (PREDICT_ROWS + 1, [2049, 2048]),
        (2 * PREDICT_ROWS + 3, [2732, 2732, 2731]),
    ])
    def test_near_equal_blocks(self, monkeypatch, N, sizes):
        seen = []

        def recording(model, batch):
            seen.append(batch.shape[0])
            return forward(model, batch)

        monkeypatch.setattr(network, "forward", recording)
        x_h, x_c = predict(tiny_model(), np.zeros((N, 6)))
        assert seen == sizes
        assert x_h.shape == (N, 4) and x_c.shape == (N, 3)

    def test_wrong_width_rejected(self):
        with pytest.raises(DimensionError):
            predict(tiny_model(), np.ones((3, 5)))


class TestBackward:
    def test_matches_finite_differences(self):
        rows = finite_difference_report(seed=1)
        assert len(rows) == 11
        for name, err in rows:
            assert err < 1e-3, f"{name}: {err}"

    @pytest.mark.parametrize("layer", [0, 1, 2, 3])
    @pytest.mark.parametrize("part", [0, 1], ids=["weights", "biases"])
    def test_report_names_a_wrong_gradient(self, monkeypatch, layer, part):
        def skewed(model, cache, grad_xh, grad_xc):
            grads = [list(g) for g in backward(model, cache, grad_xh, grad_xc)]
            grads[layer][part] = grads[layer][part] * 1.01
            return grads

        monkeypatch.setattr(network, "backward", skewed)
        wrong = f"backward layer {layer} {('weights', 'biases')[part]}"
        rows = finite_difference_report(seed=1)
        assert len(rows) == 11
        for name, err in rows:
            assert (err >= 1e-3) == (name == wrong), f"{name}: {err}"

    def test_zero_upstream_gives_zero_grads(self):
        m = tiny_model(seed=4)
        X = np.random.default_rng(4).standard_normal((10, 6))
        x_h, x_c, cache = forward(m, X)
        grads = backward(m, cache, np.zeros_like(x_h), np.zeros_like(x_c))
        for dW, db in grads:
            assert (dW == 0).all() and (db == 0).all()

    def test_linear_in_upstream(self):
        m = tiny_model(seed=5)
        rng = np.random.default_rng(5)
        X = rng.standard_normal((10, 6))
        x_h, x_c, cache = forward(m, X)
        g_h = rng.standard_normal(x_h.shape)
        g_c = rng.standard_normal(x_c.shape)
        once = backward(m, cache, g_h, g_c)
        twice = backward(m, cache, 2 * g_h, 2 * g_c)
        for (dW1, db1), (dW2, db2) in zip(once, twice):
            np.testing.assert_allclose(dW2, 2 * dW1, rtol=1e-12)
            np.testing.assert_allclose(db2, 2 * db1, rtol=1e-12)

    def test_stale_cache_rejected(self):
        m = tiny_model(seed=6)
        X = np.random.default_rng(6).standard_normal((10, 6))
        x_h, x_c, cache = forward(m, X)
        grads = backward(m, cache, np.zeros_like(x_h), np.zeros_like(x_c))
        sgd_step(m, grads, lr=0.1)
        with pytest.raises(StaleCacheError):
            backward(m, cache, np.zeros_like(x_h), np.zeros_like(x_c))

    def test_shape_mismatch_rejected(self):
        m = tiny_model(seed=7)
        X = np.random.default_rng(7).standard_normal((10, 6))
        x_h, x_c, cache = forward(m, X)
        with pytest.raises(DimensionError):
            backward(m, cache, np.zeros((10, 5)), np.zeros_like(x_c))


class TestSgdStep:
    def one_param_model(self, w):
        layers = [
            (np.array([[w]]), np.zeros(1)),
            (np.ones((1, 3)), np.zeros(3)),
            (np.ones((3, 2)), np.zeros(2)),
        ]
        return DcshModel(layers)

    def zero_grads(self, m):
        return [(np.zeros_like(W), np.zeros_like(b)) for W, b in m.layers]

    def test_basic_update(self):
        m = self.one_param_model(1.0)
        grads = self.zero_grads(m)
        grads[0] = (np.array([[2.0]]), np.zeros(1))
        sgd_step(m, grads, lr=0.1)
        assert abs(m.layers[0][0][0, 0] - 0.8) < 1e-15

    def test_zero_lr_leaves_params(self):
        m = tiny_model(seed=8)
        before = [(W.copy(), b.copy()) for W, b in m.layers]
        X = np.random.default_rng(8).standard_normal((10, 6))
        x_h, x_c, cache = forward(m, X)
        grads = backward(
            m, cache,
            np.random.default_rng(9).standard_normal(x_h.shape),
            np.random.default_rng(10).standard_normal(x_c.shape),
        )
        sgd_step(m, grads, lr=0.0)
        for (W, b), (W0, b0) in zip(m.layers, before):
            np.testing.assert_array_equal(W, W0)
            np.testing.assert_array_equal(b, b0)
        assert m.version == 1

    def test_version_counts_updates(self):
        m = self.one_param_model(1.0)
        for expect in (1, 2, 3):
            sgd_step(m, self.zero_grads(m), lr=0.1)
            assert m.version == expect

    def test_non_finite_grad_rejected(self):
        m = self.one_param_model(1.0)
        grads = self.zero_grads(m)
        grads[2] = (np.full((3, 2), np.nan), np.zeros(2))
        with pytest.raises(NumericError) as err:
            sgd_step(m, grads, lr=0.1)
        assert "layer 2" in str(err.value)

    def test_negative_lr_rejected(self):
        m = self.one_param_model(1.0)
        with pytest.raises(ConfigurationError):
            sgd_step(m, self.zero_grads(m), lr=-0.1)


class TestLearningRate:
    def test_step_schedule(self):
        assert learning_rate(3e-4, 0.7, 10, 0) == 3e-4
        assert learning_rate(3e-4, 0.7, 10, 9) == 3e-4
        assert learning_rate(3e-4, 0.7, 10, 10) == 3e-4 * 0.7
        assert learning_rate(3e-4, 0.7, 10, 25) == 3e-4 * 0.7 ** 2
        assert abs(learning_rate(3e-4, 0.7, 10, 25) - 0.000147) < 1e-12

    def test_bad_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            learning_rate(3e-4, 0.7, 0, 5)


class TestBinarize:
    def test_examples(self):
        np.testing.assert_array_equal(binarize([0.9, 0.1, 0.5]), [1, 0, 1])
        np.testing.assert_array_equal(binarize([[0.4999, 0.5001]]), [[0, 1]])
        np.testing.assert_array_equal(
            binarize(np.full((2, 3), 0.5)), np.ones((2, 3), dtype=np.uint8)
        )

    def test_dtype(self):
        assert binarize([0.7]).dtype == np.uint8


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig(epochs=5)
        assert cfg.batch_size == 200 and cfg.lr == 3e-4
        assert cfg.alpha == "emphasized" and cfg.seed == 0

    @pytest.mark.parametrize("kwargs", [
        {"epochs": 5, "lr": -1e-3},
        {"epochs": 0},
        {"epochs": 5, "lr": 0.0},
        {"epochs": 5, "lr_decay": 0.0},
        {"epochs": 5, "lr_decay": 1.5},
        {"epochs": 5, "decay_every": 0},
        {"epochs": 5, "alpha": "balanced"},
        {"epochs": 5, "alpha": "Emphasized"},
        # only the CLI reads a number from text
        {"epochs": 5, "alpha": "2.5"},
        {"epochs": 5, "alpha": -1.0},
        {"epochs": 5, "alpha": float("-inf")},
        # neither a mode nor a number
        {"epochs": 5, "alpha": None},
        {"epochs": 5, "reg": -1.0},
        # -1 and 1.5 are in TestSeedCheck
        {"epochs": 5, "seed": 2.0},
        {"epochs": 5, "seed": "3"},
        *({"epochs": 5, field: value}
          for field in ("lr", "reg", "alpha")
          for value in (float("nan"), float("inf"))),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("field, value, what", [
        ("epochs", 2.5, "an integer"),
        ("batch_size", 44.5, "an integer"),
        ("decay_every", 10.0, "an integer"),
        ("lr", None, "a number"),
        ("lr_decay", "0.7", "a number"),
        ("reg", None, "a number"),
    ])
    def test_wrong_type_rejected(self, field, value, what):
        kwargs = {"epochs": 5, field: value}
        with pytest.raises(ConfigurationError) as err:
            TrainConfig(**kwargs)
        assert str(err.value) == f"{field} must be {what}, got {value!r}"

    def test_numpy_scalars_accepted(self):
        cfg = TrainConfig(epochs=np.int64(5), batch_size=np.int32(44),
                          lr=np.float64(1e-3), reg=np.float32(1e-4))
        assert cfg.epochs == 5 and cfg.batch_size == 44


def small_run(seed=0, epochs=3, **kwargs):
    dataset = gen_synthetic(N=220, D=8, C=4, B_separation=6.0, seed=seed,
                            query_frac=0.2)
    config = TrainConfig(epochs=epochs, batch_size=44, lr=1e-3,
                         seed=seed, **kwargs)
    model = build_model(D=8, C=4, bits=8, hidden=(16,), d_int=20, seed=seed)
    centers0 = gen_hadamard_centers(8, 4)
    return train(model, config, dataset, centers0), dataset, config, centers0


class TestTrain:
    def test_curve_and_history_shapes(self):
        (model, history, curves), dataset, config, centers0 = small_run()
        assert len(curves) == 3 and len(history) == 4
        assert history[0] is centers0
        for e, (epoch, train_loss, test_loss) in enumerate(curves):
            assert epoch == e
            assert np.isfinite(train_loss)
            assert test_loss is not None and np.isfinite(test_loss)
        for e, cs in enumerate(history):
            assert cs.epoch == e

    def test_loss_never_beats_bound(self):
        (model, history, curves), *_ = small_run(epochs=5)
        bound = dcsh_lower_bound(8, 4)
        for _, train_loss, test_loss in curves:
            assert train_loss >= bound - 1e-3
            assert test_loss >= bound - 1e-3

    def test_training_reduces_loss(self):
        (model, history, curves), *_ = small_run(epochs=10)
        assert curves[-1][1] < curves[0][1]

    def test_deterministic_repeat(self):
        (m1, h1, c1), *_ = small_run(seed=7)
        (m2, h2, c2), *_ = small_run(seed=7)
        for (W1, b1), (W2, b2) in zip(m1.layers, m2.layers):
            np.testing.assert_array_equal(W1, W2)
            np.testing.assert_array_equal(b1, b2)
        assert c1 == c2
        for s1, s2 in zip(h1, h2):
            np.testing.assert_array_equal(s1.codes, s2.codes)

    def test_seed_changes_trajectory(self):
        (m1, _, c1), *_ = small_run(seed=1)
        (m2, _, c2), *_ = small_run(seed=2)
        assert c1 != c2

    def test_no_test_loss_for_tiny_query_split(self):
        dataset = gen_synthetic(N=110, D=8, C=4, seed=0, query_frac=0.05)
        assert dataset.query_indices.shape[0] <= 8
        config = TrainConfig(epochs=2, batch_size=35, lr=1e-3,
                             seed=0)
        model = build_model(D=8, C=4, bits=8, hidden=(16,), d_int=20, seed=0)
        _, _, curves = train(model, config, dataset, gen_hadamard_centers(8, 4))
        assert all(row[2] is None for row in curves)

    def test_mode_trains_like_its_value(self):
        (m1, _, c1), *_ = small_run(alpha="equalized")
        (m2, _, c2), *_ = small_run(alpha=alpha(8, 4, "equalized"))
        assert c1 == c2
        for (W1, b1), (W2, b2) in zip(m1.layers, m2.layers):
            assert W1.tobytes() == W2.tobytes() and b1.tobytes() == b2.tobytes()

    def test_alpha_zero_matches_hash_only_loop(self):
        (model, history, curves), dataset, config, centers0 = small_run(
            seed=3, epochs=3, alpha=0.0
        )
        # mirror loop: same seeding, hash correlation term only
        ref = build_model(D=8, C=4, bits=8, hidden=(16,), d_int=20, seed=3)
        shuffle_rng = np.random.default_rng(np.random.SeedSequence([3, 1]))
        train_idx = dataset.train_indices
        X_train = dataset.features[train_idx]
        Y_train = dataset.labels[train_idx]
        M = config.batch_size
        centers = centers0
        k_hash = k_max(8, 4, M)
        from dcsh.centers import assign_target

        for epoch in range(3):
            lr = learning_rate(config.lr, config.lr_decay,
                               config.decay_every, epoch)
            perm = shuffle_rng.permutation(train_idx.shape[0])
            for bi in range(train_idx.shape[0] // M):
                sel = perm[bi * M:(bi + 1) * M]
                Y_h = np.array([
                    assign_target(np.flatnonzero(Y_train[i]), centers, 3)
                    for i in sel
                ], dtype=np.float64)
                x_h, x_c, cache = forward(ref, X_train[sel])
                _, _, g_xh = cca_loss(x_h, Y_h, k_hash, config.reg)
                grads = backward(ref, cache, g_xh, np.zeros_like(x_c))
                sgd_step(ref, grads, lr)
            x_h_full, _, _ = forward(ref, X_train)
            centers = update_centers(x_h_full, Y_train, epoch=epoch + 1)
        for (W1, b1), (W2, b2) in zip(model.layers, ref.layers):
            np.testing.assert_array_equal(W1, W2)
            np.testing.assert_array_equal(b1, b2)
        np.testing.assert_array_equal(history[-1].codes, centers.codes)

    def test_one_target_vote_per_label_set_and_epoch(self, monkeypatch):
        # Two-label sets over Hadamard centers tie on half their bits.
        dataset = gen_synthetic(N=300, D=8, C=4, multilabel_p=0.5, seed=5,
                                query_frac=0.2)
        rows = np.concatenate([dataset.train_indices, dataset.query_indices])
        sets = {tuple(np.flatnonzero(dataset.labels[i]).tolist()) for i in rows}
        assert any(len(s) == 2 for s in sets)
        epochs = 3
        config = TrainConfig(epochs=epochs, batch_size=40, lr=1e-3,
                             seed=5)
        model = build_model(D=8, C=4, bits=8, hidden=(16,), d_int=20, seed=5)
        votes = []
        last_batch = []
        losses = []

        def counting_target(labels, centers, seed):
            # train hands over a label-table row's sorted class indices
            assert isinstance(labels, np.ndarray)
            votes.append((tuple(labels.tolist()), centers.epoch))
            return assign_target(labels, centers, seed)

        def recording_forward(model, batch):
            last_batch[:] = [batch]
            return forward(model, batch)

        def recording_loss(x_h, Y_h, *args):
            losses.append((last_batch[0], np.array(Y_h), votes[-1][1]))
            return dcsh_loss(x_h, Y_h, *args)

        monkeypatch.setattr(network, "assign_target", counting_target)
        monkeypatch.setattr(network, "forward", recording_forward)
        monkeypatch.setattr(network, "dcsh_loss", recording_loss)
        _, history, _ = train(model, config, dataset,
                              gen_hadamard_centers(8, 4))
        assert len(votes) == len(sets) * epochs
        for epoch in range(epochs):
            assert sorted(s for s, e in votes if e == epoch) == sorted(sets)
        # Every batch and test-loss target row equals a per-sample vote.
        row_of = {x.tobytes(): n for n, x in enumerate(dataset.features)}
        n_batches = dataset.train_indices.shape[0] // 40
        assert len(losses) == epochs * (n_batches + 1)
        for batch, Y_h, epoch in losses:
            want = np.array([
                assign_target(
                    np.flatnonzero(dataset.labels[row_of[x.tobytes()]]),
                    history[epoch], config.seed,
                )
                for x in batch
            ], dtype=np.float64)
            np.testing.assert_array_equal(Y_h, want)

    def test_single_bit_rejected(self):
        dataset = gen_synthetic(N=120, D=8, C=4, seed=0)
        config = TrainConfig(epochs=1, batch_size=40)
        model = build_model(D=8, C=4, bits=1, hidden=(16,), d_int=20)
        centers0 = HashCenterSet(np.array([[0], [1], [0], [1]]))
        with pytest.raises(ConfigurationError, match="at least 2 bits"):
            train(model, config, dataset, centers0)

    @pytest.mark.parametrize("batch", [8, 6])
    def test_batch_must_exceed_bits(self, batch):
        # 8 bits over C = 4 classes: batches of 5-8 rows pass the class
        # bound and only the bit bound rejects them
        dataset = gen_synthetic(N=120, D=8, C=4, seed=0)
        config = TrainConfig(epochs=1, batch_size=batch)
        model = build_model(D=8, C=4, bits=8, hidden=(16,), d_int=20)
        with pytest.raises(ConfigurationError, match="must exceed B=8 and C=4"):
            train(model, config, dataset, gen_hadamard_centers(8, 4))

    def test_center_shape_mismatch_rejected(self):
        dataset = gen_synthetic(N=120, D=8, C=4, seed=0)
        config = TrainConfig(epochs=1, batch_size=40)
        model = build_model(D=8, C=4, bits=8, hidden=(16,), d_int=20)
        with pytest.raises(DimensionError):
            train(model, config, dataset, gen_hadamard_centers(8, 3))

    def test_training_split_must_fill_a_batch(self):
        dataset = gen_synthetic(N=40, D=8, C=4, seed=0, query_frac=0.5)
        config = TrainConfig(epochs=1, batch_size=30)
        model = build_model(D=8, C=4, bits=8, hidden=(16,), d_int=20)
        with pytest.raises(ConfigurationError):
            train(model, config, dataset, gen_hadamard_centers(8, 4))


class TestSeedCheck:
    """Every seeded entry point rejects a seed that is not an integer
    >= 0 with a ConfigurationError, where numpy would raise ValueError or
    TypeError and `int()` would run 1.5 as 1."""

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0, got -1"),
        (1.5, "seed must be an integer, got 1.5"),
    ], ids=["negative", "fractional"])
    @pytest.mark.parametrize("entry", [
        lambda seed: gen_synthetic(N=40, D=8, C=4, seed=seed),
        lambda seed: tiny_model(seed=seed),
        lambda seed: gen_bernoulli_centers(24, 8, seed),
        lambda seed: TrainConfig(epochs=1, seed=seed),
    ], ids=["gen_synthetic", "build_model", "gen_bernoulli_centers",
            "train_config"])
    def test_rejected(self, entry, seed, message):
        with pytest.raises(ConfigurationError) as err:
            entry(seed)
        assert str(err.value) == message

    def test_numpy_integer_seed_accepted(self):
        a = tiny_model(seed=np.int64(4))
        b = tiny_model(seed=4)
        for (W1, _), (W2, _) in zip(a.layers, b.layers):
            assert W1.tobytes() == W2.tobytes()
