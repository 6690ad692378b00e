import dataclasses
import importlib
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from dcsh import __version__, cli, formats, network
from dcsh.cca import alpha
from dcsh.centers import assign_target
from dcsh.cli import _build_parser, main
from dcsh.network import DEFAULT_HIDDEN, TrainConfig
from dcsh.retrieval import SAME_CLASS, unpack_codes


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small end-to-end run shared by the artifact checks."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    run = root / "run"
    enc = root / "enc"
    ev = root / "eval"
    assert main([
        "synth", "--out", str(data), "--n", "220", "--dim", "8",
        "--classes", "4", "--separation", "8.0", "--query-frac", "0.2",
        "--seed", "0",
    ]) == 0
    assert main([
        "gen-centers", "--bits", "8", "--classes", "4",
        "--out", str(root / "centers.txt"),
    ]) == 0
    assert main([
        "train", "--features", str(data / "features.bin"),
        "--labels", str(data / "labels.txt"),
        "--splits", str(data / "splits.txt"),
        "--centers", str(root / "centers.txt"),
        "--out", str(run), "--bits", "8", "--batch", "44", "--lr", "0.001",
        "--epochs", "2", "--hidden", "16", "--d-int", "20", "--seed", "0",
    ]) == 0
    for split in ("gallery", "query"):
        assert main([
            "encode", "--model", str(run / "model.bin"),
            "--features", str(data / "features.bin"),
            "--splits", str(data / "splits.txt"),
            "--split", split, "--out", str(enc),
        ]) == 0
    common = [
        "--gallery-codes", str(enc / "codes-gallery.txt"),
        "--query-codes", str(enc / "codes-query.txt"),
        "--labels", str(data / "labels.txt"),
    ]
    assert main(["eval-map", *common, "--k", "100", "--out", str(ev)]) == 0
    assert main(["eval-pr", *common, "--out", str(ev)]) == 0
    return root


class TestPipelineArtifacts:
    def test_synth_outputs(self, pipeline):
        data = pipeline / "data"
        ds = formats.load_dataset(
            data / "features.bin", data / "labels.txt", data / "splits.txt"
        )
        assert ds.N == 220 and ds.D == 8 and ds.C == 4
        assert ds.query_indices.shape[0] == 44
        manifest = formats.read_config(data / "manifest-synth.txt")
        assert manifest["command"] == "synth"
        assert manifest["n"] == "220"
        assert manifest["separation"] == "8.0"
        assert manifest["version"] == __version__

    def test_center_file(self, pipeline):
        cs = formats.read_centers(pipeline / "centers.txt")
        assert cs.B == 8 and cs.C == 4 and cs.epoch == 0

    def test_train_outputs(self, pipeline):
        run = pipeline / "run"
        layers = formats.read_model(run / "model.bin")
        assert len(layers) == 4
        assert layers[0][0].shape == (8, 16)
        assert layers[-1][0].shape == (20, 4)
        rows = np.genfromtxt(run / "loss.csv", delimiter=",", names=True)
        assert rows["epoch"].tolist() == [0, 1]
        assert np.isfinite(rows["train_loss"]).all()
        for epoch in (0, 1, 2):
            cs = formats.read_centers(run / f"centers-e{epoch:04d}.txt")
            assert cs.epoch == epoch
        manifest = formats.read_config(run / "manifest-train.txt")
        assert manifest["bits"] == "8"
        assert manifest["hidden"] == "16"
        assert manifest["lr"] == "0.001"
        assert manifest["alpha"] == "emphasized"

    def test_encode_outputs(self, pipeline):
        enc = pipeline / "enc"
        ids, bits = formats.read_codes_text(enc / "codes-gallery.txt")
        assert ids.shape[0] == 176 and bits.shape == (176, 8)
        words, B = formats.read_codes_packed(enc / "codes-gallery.bin")
        assert B == 8
        np.testing.assert_array_equal(unpack_codes(words, B), bits)
        qids, qbits = formats.read_codes_text(enc / "codes-query.txt")
        assert qids.shape[0] == 44
        assert set(qids) & set(ids) == set()

    def test_eval_outputs(self, pipeline):
        ev = pipeline / "eval"
        map_lines = (ev / "map.csv").read_text().splitlines()
        assert map_lines[0] == "k,map"
        k, value = map_lines[1].split(",")
        assert k == "100" and 0.0 <= float(value) <= 1.0
        ap_lines = (ev / "ap.csv").read_text().splitlines()
        assert ap_lines[0] == "id,ap"
        assert len(ap_lines) == 1 + 44
        pr_lines = (ev / "pr.csv").read_text().splitlines()
        assert pr_lines[0] == "threshold,recall,precision"
        assert len(pr_lines) == 1 + 9  # thresholds 0..8

    @pytest.mark.parametrize("command, where", [
        ("synth", "data"), ("gen-centers", "."), ("train", "run"),
        ("encode", "enc"), ("eval-map", "eval"), ("eval-pr", "eval"),
    ])
    def test_manifest_keys_are_the_options(self, pipeline, command, where):
        top, _ = _build_parser()
        options = set(vars(top.parse_args([command]))) - {"command", "config"}
        manifest = formats.read_config(
            pipeline / where / f"manifest-{command}.txt"
        )
        assert set(manifest) == options | {"command", "version"}

    def test_query_ranking(self, pipeline, capsys):
        enc = pipeline / "enc"
        assert main([
            "query", "--gallery-codes", str(enc / "codes-gallery.txt"),
            "--code", "00000000", "--topk", "3",
        ]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3
        pairs = [tuple(int(v) for v in line.split("\t")) for line in out]
        dists = [d for _, d in pairs]
        assert dists == sorted(dists)

    def test_query_clips_large_k(self, pipeline, capsys):
        enc = pipeline / "enc"
        assert main([
            "query", "--gallery-codes", str(enc / "codes-gallery.txt"),
            "--code", "00000000", "--topk", "100000",
        ]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 176
        assert "clipped" in captured.err


class TestConfigMerge:
    def test_manifest_reproduces_run(self, pipeline):
        run, run2 = pipeline / "run", pipeline / "run2"
        assert main([
            "train", "--config", str(run / "manifest-train.txt"),
            "--out", str(run2),
        ]) == 0
        assert (run / "model.bin").read_bytes() == (run2 / "model.bin").read_bytes()
        assert (run / "loss.csv").read_bytes() == (run2 / "loss.csv").read_bytes()
        for epoch in (0, 1, 2):
            name = f"centers-e{epoch:04d}.txt"
            assert (run / name).read_bytes() == (run2 / name).read_bytes()

    def test_flag_beats_config(self, pipeline):
        run3 = pipeline / "run3"
        assert main([
            "train", f"--config={pipeline / 'run' / 'manifest-train.txt'}",
            "--out", str(run3), "--epochs", "1",
        ]) == 0
        rows = np.genfromtxt(run3 / "loss.csv", delimiter=",", names=True)
        assert rows.shape == ()  # one row
        first = np.genfromtxt(pipeline / "run" / "loss.csv", delimiter=",",
                              names=True)[0]
        assert rows.tolist() == first.tolist()

    def test_unknown_config_key(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("nonsense=1\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "nonsense" in capsys.readouterr().err

    def test_first_unknown_key_in_file_order(self, tmp_path, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("zeta=1\nalpha=2\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "'zeta'" in capsys.readouterr().err

    def test_every_unknown_key_named_sorted(self, tmp_path, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("zeta=1\nn=20\nalpha=2\nmid=3\n")
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: unknown config keys 'alpha', 'mid', 'zeta' for command "
            "'synth'\n"
        )
        assert not out.exists()

    def test_config_abbreviation(self, tmp_path):
        cfg = tmp_path / "s.txt"
        cfg.write_text("seed=7\n")
        centers = []
        for flag in ("--config", "--conf"):
            out = tmp_path / flag.lstrip("-") / "c.txt"
            assert main([
                "gen-centers", "--bits", "12", "--classes", "5",
                flag, str(cfg), "--out", str(out),
            ]) == 0
            manifest = formats.read_config(out.parent / "manifest-gen-centers.txt")
            assert manifest["seed"] == "7"
            centers.append(out.read_bytes())
        assert centers[0] == centers[1]

    def test_bad_config_value_names_the_flag(self, tmp_path, capsys):
        cfg = tmp_path / "s.txt"
        cfg.write_text("seed=x\n")
        argv = ["gen-centers", "--bits", "8", "--classes", "4",
                "--config", str(cfg), "--out", str(tmp_path / "c.txt")]
        assert main(argv) == 1
        assert "argument --seed: invalid int value: 'x'" in capsys.readouterr().err
        assert not (tmp_path / "c.txt").exists()
        # an explicit flag replaces the bad value before it is converted
        assert main([*argv, "--seed", "3"]) == 0

    @pytest.mark.parametrize("line", [
        "normalized_update=false", "alpha_mode=emphasized",
        "alpha_override=0.5", "clamp=1e-08", "momentum=0.0", "trials=100",
    ])
    def test_retired_key(self, pipeline, tmp_path, capsys, line):
        # Train manifests written before the key was removed carry it.
        key = line.split("=")[0]
        manifest = (pipeline / "run" / "manifest-train.txt").read_text()
        assert f"{key}=" not in manifest
        cfg = tmp_path / "old-manifest.txt"
        cfg.write_text(f"{manifest}{line}\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: unknown config key {key!r} for command 'train'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval-map", "eval-pr"])
    def test_eval_reads_labels_once(self, pipeline, tmp_path, monkeypatch,
                                    command):
        calls = []
        read = formats.read_labels

        def counting(path):
            calls.append(path)
            return read(path)

        monkeypatch.setattr(formats, "read_labels", counting)
        enc = pipeline / "enc"
        assert main([
            command, "--gallery-codes", str(enc / "codes-gallery.txt"),
            "--query-codes", str(enc / "codes-query.txt"),
            "--labels", str(pipeline / "data" / "labels.txt"),
            "--out", str(tmp_path),
        ]) == 0
        assert len(calls) == 1

    def test_manifest_command_key_ignored(self, pipeline, tmp_path):
        # manifests include command= and version=; the loader must skip them
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("command=synth\nversion=9.9\nn=20\ndim=8\nclasses=4\n")
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        ds = formats.load_dataset(
            out / "features.bin", out / "labels.txt", out / "splits.txt"
        )
        assert ds.N == 20


class TestLossCsv:
    def test_rows_are_the_losses_train_computed(self, pipeline, tmp_path,
                                                monkeypatch):
        """Each epoch's train loss is the mean of its batch losses, and its
        test loss is the one call over the whole query split; the last
        one is recomputed from model.bin and that epoch's centers."""
        calls = []
        dcsh_loss = network.dcsh_loss

        def recording(x_h, *args):
            result = dcsh_loss(x_h, *args)
            calls.append((x_h.shape[0], result[0]))
            return result

        monkeypatch.setattr(network, "dcsh_loss", recording)
        data = pipeline / "data"
        run = tmp_path / "run"
        epochs, batches = 3, 176 // 40
        assert main([
            "train", "--features", str(data / "features.bin"),
            "--labels", str(data / "labels.txt"),
            "--splits", str(data / "splits.txt"),
            "--centers", str(pipeline / "centers.txt"), "--out", str(run),
            "--bits", "8", "--batch", "40", "--lr", "0.001",
            "--epochs", str(epochs), "--hidden", "16", "--d-int", "20",
        ]) == 0
        rows = np.genfromtxt(run / "loss.csv", delimiter=",", names=True)
        assert len(rows) == epochs
        assert len(calls) == epochs * (batches + 1)
        for epoch, row in enumerate(rows):
            block = calls[epoch * (batches + 1):(epoch + 1) * (batches + 1)]
            assert [n for n, _ in block] == [40] * batches + [44]
            assert row["epoch"] == epoch
            assert row["train_loss"] == np.mean([loss for _, loss in block[:-1]])
            assert row["test_loss"] == block[-1][1]

        ds = formats.load_dataset(
            data / "features.bin", data / "labels.txt", data / "splits.txt"
        )
        model = network.DcshModel(formats.read_model(run / "model.bin"))
        centers = formats.read_centers(run / f"centers-e{epochs - 1:04d}.txt")
        Y_c = ds.labels[ds.query_indices]
        targets = np.array([assign_target(np.flatnonzero(y), centers, 0)
                            for y in Y_c], dtype=np.float64)
        x_h, x_c = network.predict(model, ds.features[ds.query_indices])
        test_loss, _, _ = dcsh_loss(x_h, targets, x_c, Y_c,
                                    alpha(8, 4, "emphasized"), TrainConfig.reg)
        assert rows["test_loss"][-1] == test_loss


class TestTrainDefaults:
    def test_flags_default_to_train_config(self):
        top, _ = _build_parser()
        args = vars(top.parse_args(["train"]))
        config = TrainConfig(epochs=50)
        for field in dataclasses.fields(TrainConfig):
            dest = "batch" if field.name == "batch_size" else field.name
            assert args[dest] == getattr(config, field.name), field.name
        assert args["hidden"] == DEFAULT_HIDDEN

    @pytest.mark.parametrize("text, want", [
        ("emphasized", "emphasized"), ("equalized", "equalized"),
        ("0", 0.0), ("2.5", 2.5),
    ])
    def test_alpha_flag_takes_a_mode_or_a_number(self, text, want):
        top, _ = _build_parser()
        assert top.parse_args(["train", "--alpha", text]).alpha == want

    @pytest.mark.parametrize("command, dest, want", [
        ("eval-map", "rule", SAME_CLASS),
        ("eval-pr", "rule", SAME_CLASS),
    ])
    def test_flags_default_to_library_constants(self, command, dest, want):
        top, _ = _build_parser()
        assert getattr(top.parse_args([command]), dest) == want


class TestCenterGeneratorChoice:
    def test_hadamard_when_possible(self, tmp_path, capsys):
        assert main([
            "gen-centers", "--bits", "16", "--classes", "16",
            "--out", str(tmp_path / "c.txt"),
        ]) == 0
        out = capsys.readouterr().out
        assert "hadamard" in out and "min distance 8" in out

    def test_bernoulli_for_non_power_of_two(self, tmp_path, capsys):
        assert main([
            "gen-centers", "--bits", "12", "--classes", "4",
            "--out", str(tmp_path / "c.txt"),
        ]) == 0
        assert "bernoulli" in capsys.readouterr().out

    def test_bernoulli_when_classes_exceed_bits(self, tmp_path, capsys):
        assert main([
            "gen-centers", "--bits", "8", "--classes", "9",
            "--out", str(tmp_path / "c.txt"),
        ]) == 0
        assert "bernoulli" in capsys.readouterr().out
        cs = formats.read_centers(tmp_path / "c.txt")
        assert cs.C == 9 and cs.B == 8


class TestCheckGrad:
    def test_passes_and_prints_table(self, capsys):
        assert main(["check-grad"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        assert len(out.splitlines()) == 12


class TestExitCodes:
    def test_missing_required_flags(self, capsys):
        assert main(["train"]) == 1
        err = capsys.readouterr().err
        assert "--features" in err and "--out" in err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_bad_flag_value(self, capsys):
        assert main(["synth", "--out", "x", "--n", "many"]) == 1

    def test_missing_input_file(self, tmp_path, capsys):
        assert main([
            "train", "--features", str(tmp_path / "absent.bin"),
            "--labels", str(tmp_path / "absent.txt"),
            "--splits", str(tmp_path / "absent2.txt"),
            "--out", str(tmp_path / "out"),
        ]) == 2

    def test_corrupt_input_file(self, tmp_path, capsys):
        bad = tmp_path / "features.bin"
        bad.write_bytes(b"JUNKJUNK" + b"\x00" * 16)
        labels = tmp_path / "labels.txt"
        labels.write_text("classes=2\n0\n1\n")
        splits = tmp_path / "splits.txt"
        splits.write_text("gallery+train\ngallery+train\n")
        assert main([
            "train", "--features", str(bad), "--labels", str(labels),
            "--splits", str(splits), "--out", str(tmp_path / "out"),
        ]) == 2
        assert "magic" in capsys.readouterr().err

    def test_bad_center_header_names_the_line(self, pipeline, tmp_path,
                                              capsys):
        centers = tmp_path / "centers.txt"
        centers.write_text("B=-3 C=1 epoch=0\n010\n")
        data = pipeline / "data"
        assert main([
            "train", "--features", str(data / "features.bin"),
            "--labels", str(data / "labels.txt"),
            "--splits", str(data / "splits.txt"), "--centers", str(centers),
            "--out", str(tmp_path / "out"), "--bits", "8", "--epochs", "1",
        ]) == 2
        assert f"{centers}:1: B must be >= 1" in capsys.readouterr().err

    def test_numeric_abort(self, pipeline, tmp_path, capsys):
        # features at overflow scale make the first forward pass non-finite
        data = pipeline / "data"
        huge = tmp_path / "features.bin"
        rng = np.random.default_rng(0)
        X = rng.choice([-1e308, 1e308], size=(220, 8))
        formats.write_features(huge, X)
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main([
                "train", "--features", str(huge),
                "--labels", str(data / "labels.txt"),
                "--splits", str(data / "splits.txt"),
                "--out", str(tmp_path / "out"), "--bits", "8",
                "--batch", "44", "--epochs", "1",
                "--hidden", "16", "--d-int", "20",
            ])
        assert rc == 3
        assert "numeric abort" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--reg", "-1"), ("--alpha", "-1"), ("--alpha", "balanced"),
        # no longer options of train
        ("--clamp", "0"), ("--clamp", "1e-8"), ("--momentum", "0.9"),
    ])
    def test_bad_stabilizer_is_a_usage_error(self, pipeline, tmp_path, capsys,
                                             flag, value):
        data = pipeline / "data"
        out = tmp_path / "out"
        assert main([
            "train", "--features", str(data / "features.bin"),
            "--labels", str(data / "labels.txt"),
            "--splits", str(data / "splits.txt"),
            "--out", str(out), "--bits", "8", "--batch", "44",
            "--epochs", "1", flag, value,
        ]) == 1
        assert flag.lstrip("-") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-5", "0"])
    def test_width_below_one_is_a_usage_error(self, pipeline, tmp_path,
                                              capsys, value):
        data = pipeline / "data"
        out = tmp_path / "out"
        assert main([
            "train", "--features", str(data / "features.bin"),
            "--labels", str(data / "labels.txt"),
            "--splits", str(data / "splits.txt"),
            "--out", str(out), "--bits", "8", "--batch", "44",
            "--epochs", "1", "--hidden", value,
        ]) == 1
        assert "widths must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("damage", [
        lambda layers: [],
        lambda layers: layers[-1:],
        lambda layers: layers[-2:],
        lambda layers: [layers[0], (layers[1][0][1:], layers[1][1]),
                        *layers[2:]],
        lambda layers: [*layers[:2], (np.zeros((8, 3)), np.zeros(3)),
                        (np.zeros((3, 4)), np.zeros(4))],
    ], ids=["0-layers", "1-layer", "2-layers", "broken-chain",
            "narrow-intermediate"])
    def test_malformed_model_is_a_data_error(self, pipeline, tmp_path,
                                             capsys, damage):
        layers = damage(formats.read_model(pipeline / "run" / "model.bin"))
        model = tmp_path / "model.bin"
        formats.write_model(model, layers)
        out = tmp_path / "out"
        assert main([
            "encode", "--model", str(model),
            "--features", str(pipeline / "data" / "features.bin"),
            "--splits", str(pipeline / "data" / "splits.txt"),
            "--out", str(out),
        ]) == 2
        assert f"{model}: " in capsys.readouterr().err
        assert not out.exists()

    def train_fails_without_output(self, pipeline, out, flags, code, capsys):
        data = pipeline / "data"
        assert main([
            "train", "--features", str(data / "features.bin"),
            "--labels", str(data / "labels.txt"),
            "--splits", str(data / "splits.txt"),
            "--out", str(out), "--bits", "8", "--batch", "44",
            "--epochs", "1", "--hidden", "16", "--d-int", "20", *flags,
        ]) == code
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--bits", "1"],
        ["--batch", "8"],
        ["--batch", "200"],  # the training split has 176 rows
    ])
    def test_rejected_train_config_leaves_no_run_directory(
            self, pipeline, tmp_path, capsys, flags):
        self.train_fails_without_output(
            pipeline, tmp_path / "out", flags, 1, capsys
        )

    @pytest.mark.parametrize("flag, value", [
        ("--lr", "nan"), ("--lr", "inf"), ("--reg", "nan"), ("--reg", "inf"),
        ("--alpha", "nan"), ("--alpha", "inf"),
    ])
    def test_non_finite_train_option_is_a_usage_error(
            self, pipeline, tmp_path, capsys, flag, value):
        data = pipeline / "data"
        out = tmp_path / "out"
        assert main([
            "train", "--features", str(data / "features.bin"),
            "--labels", str(data / "labels.txt"),
            "--splits", str(data / "splits.txt"),
            "--out", str(out), "--bits", "8", "--batch", "44",
            "--epochs", "1", "--hidden", "16", "--d-int", "20", flag, value,
        ]) == 1
        field = flag.lstrip("-").replace("-", "_")
        assert f"error: {field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 36.4 TiB"),
         "error: out of memory: Unable to allocate 36.4 TiB\n"),
        (MemoryError(), "error: out of memory\n"),
    ], ids=["numpy-message", "bare"])
    def test_out_of_memory_is_a_data_error(self, tmp_path, monkeypatch,
                                           capsys, exc, message):
        def exhausted(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_synth", exhausted)
        assert main(["synth", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_separation_is_a_usage_error(self, tmp_path, capsys,
                                                    value):
        out = tmp_path / "data"
        assert main(["synth", "--out", str(out), "--n", "40", "--dim", "8",
                     "--classes", "4", "--separation", value]) == 1
        assert "error: B_separation must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("via_config", [False, True],
                             ids=["flag", "config"])
    @pytest.mark.parametrize("command", [
        "synth", "gen-centers", "train", "check-grad",
    ])
    def test_negative_seed_is_a_usage_error(self, pipeline, tmp_path, capsys,
                                            command, via_config):
        data = pipeline / "data"
        out = tmp_path / "out"
        argv = {
            "synth": ["synth", "--out", str(out)],
            # 24 bits is no power of two, so the seed drives a Bernoulli draw
            "gen-centers": ["gen-centers", "--bits", "24", "--classes", "10",
                            "--out", str(out / "c.txt")],
            "train": ["train", "--features", str(data / "features.bin"),
                      "--labels", str(data / "labels.txt"),
                      "--splits", str(data / "splits.txt"),
                      "--out", str(out), "--bits", "8", "--batch", "44",
                      "--epochs", "1"],
            "check-grad": ["check-grad"],
        }[command]
        if via_config:
            cfg = tmp_path / "seed.txt"
            cfg.write_text("seed=-1\n")
            argv = [*argv, "--config", str(cfg)]
        else:
            argv = [*argv, "--seed", "-1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: argument --seed: seed must be >= 0, got -1\n"
        )
        assert not out.exists()

    def test_center_shape_mismatch_leaves_no_run_directory(
            self, pipeline, tmp_path, capsys):
        five = tmp_path / "five.txt"
        assert main(["gen-centers", "--bits", "8", "--classes", "5",
                     "--out", str(five)]) == 0
        self.train_fails_without_output(
            pipeline, tmp_path / "out", ["--centers", str(five)], 2, capsys
        )

    def test_unknown_encode_split(self, pipeline, tmp_path, capsys):
        assert main([
            "encode", "--model", str(pipeline / "run" / "model.bin"),
            "--features", str(pipeline / "data" / "features.bin"),
            "--splits", str(pipeline / "data" / "splits.txt"),
            "--split", "bogus", "--out", str(tmp_path / "out"),
        ]) == 1
        assert "bogus" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_encode_split_count_mismatch(self, pipeline, tmp_path, capsys):
        splits = tmp_path / "splits.txt"
        splits.write_text("query\ngallery+train\n")
        assert main([
            "encode", "--model", str(pipeline / "run" / "model.bin"),
            "--features", str(pipeline / "data" / "features.bin"),
            "--splits", str(splits), "--out", str(tmp_path / "out"),
        ]) == 2
        assert capsys.readouterr().err == (
            f"error: {splits}: 2 split lines vs 220 feature rows\n"
        )
        assert not (tmp_path / "out").exists()

    def test_duplicate_code_id(self, tmp_path, capsys):
        gallery = tmp_path / "codes-gallery.txt"
        gallery.write_text("0\t1010\n1\t0101\n0\t1111\n")
        query = tmp_path / "codes-query.txt"
        query.write_text("2\t1010\n")
        labels = tmp_path / "labels.txt"
        labels.write_text("classes=2\n0\n1\n0\n")
        assert main([
            "eval-map", "--gallery-codes", str(gallery),
            "--query-codes", str(query), "--labels", str(labels),
            "--k", "2", "--out", str(tmp_path / "eval"),
        ]) == 2
        assert f"{gallery}:3: duplicate id 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["query", "eval-map", "eval-pr"])
    def test_negative_code_id_is_a_data_error(self, tmp_path, capsys, command):
        gallery = tmp_path / "codes-gallery.txt"
        gallery.write_text("0\t1010\n-3\t0101\n")
        query = tmp_path / "codes-query.txt"
        query.write_text("1\t1010\n")
        labels = tmp_path / "labels.txt"
        labels.write_text("classes=2\n0\n1\n")
        out = tmp_path / "eval"
        pair = ["--gallery-codes", str(gallery), "--query-codes", str(query),
                "--labels", str(labels), "--out", str(out)]
        argv = {
            "query": ["query", "--gallery-codes", str(gallery),
                      "--code", "1010"],
            "eval-map": ["eval-map", *pair, "--k", "2"],
            "eval-pr": ["eval-pr", *pair],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {gallery}:2: bad id '-3'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-centers", "train"])
    def test_trials_is_not_an_option(self, pipeline, tmp_path, capsys,
                                     command):
        data = pipeline / "data"
        out = tmp_path / "out"
        argv = {
            # 24 bits is no power of two, so the centers would be Bernoulli
            "gen-centers": ["gen-centers", "--bits", "24", "--classes", "10",
                            "--out", str(out / "c.txt")],
            "train": ["train", "--features", str(data / "features.bin"),
                      "--labels", str(data / "labels.txt"),
                      "--splits", str(data / "splits.txt"),
                      "--out", str(out), "--bits", "24", "--batch", "44",
                      "--epochs", "1"],
        }[command]
        assert main([*argv, "--trials", "5"]) == 1
        assert capsys.readouterr().err == (
            "error: unrecognized arguments: --trials 5\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("text, where", [
        (b"0\t1010\n1\t10\xe90\n", ":2: codeword must be 4 chars of 0/1"),
        (b"0\t1010\n\xe91\t1010\n", ":2: bad id '\\xe91'"),
        (b"9223372036854775808\t1010\n", ":1: bad id '9223372036854775808'"),
    ], ids=["non-ascii-codeword", "non-ascii-id", "id-above-int64"])
    def test_unreadable_code_file_is_a_data_error(self, tmp_path, capsys,
                                                  text, where):
        gallery = tmp_path / "codes-gallery.txt"
        gallery.write_bytes(text)
        assert main([
            "query", "--gallery-codes", str(gallery), "--code", "1010",
        ]) == 2
        assert capsys.readouterr().err == f"error: {gallery}{where}\n"

    def test_non_ascii_label_file_is_a_data_error(self, tmp_path, capsys):
        gallery = tmp_path / "codes-gallery.txt"
        gallery.write_text("0\t1010\n1\t0101\n")
        labels = tmp_path / "labels.txt"
        labels.write_bytes(b"classes=2\n0\n1\xe9\n")
        assert main([
            "eval-map", "--gallery-codes", str(gallery),
            "--query-codes", str(gallery), "--labels", str(labels),
            "--out", str(tmp_path / "eval"),
        ]) == 2
        assert capsys.readouterr().err == (
            f"error: {labels}:3: non-ASCII byte 0xe9\n"
        )

    @pytest.mark.parametrize("text, where", [
        (b"classes=12\n+1\n 2\n1_0\n", ":2: bad label line '+1'"),
        (b"classes=12\n0\n1_0\n", ":3: bad label line '1_0'"),
        (b"classes= +3\n0\n1\n", ":1: bad header field 'classes='"),
    ], ids=["plus", "underscore", "header-space"])
    def test_lenient_label_file_is_a_data_error(self, tmp_path, capsys, text,
                                                where):
        gallery = tmp_path / "codes-gallery.txt"
        gallery.write_text("0\t1010\n1\t0101\n")
        labels = tmp_path / "labels.txt"
        labels.write_bytes(text)
        assert main([
            "eval-map", "--gallery-codes", str(gallery),
            "--query-codes", str(gallery), "--labels", str(labels),
            "--out", str(tmp_path / "eval"),
        ]) == 2
        assert capsys.readouterr().err == f"error: {labels}{where}\n"

    def test_spaced_center_header_is_a_data_error(self, pipeline, tmp_path,
                                                  capsys):
        centers = tmp_path / "centers.txt"
        centers.write_text("B=8  C=4 epoch=0 \n" + "01010101\n" * 4)
        data = pipeline / "data"
        assert main([
            "train", "--features", str(data / "features.bin"),
            "--labels", str(data / "labels.txt"),
            "--splits", str(data / "splits.txt"), "--centers", str(centers),
            "--out", str(tmp_path / "out"), "--bits", "8", "--epochs", "1",
        ]) == 2
        assert capsys.readouterr().err == (
            f"error: {centers}:1: bad header field ''\n"
        )

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == __version__


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dcsh", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == __version__

    @pytest.mark.skipif(shutil.which("dcsh") is None,
                        reason="console script not on PATH")
    def test_console_script(self):
        proc = subprocess.run(
            ["dcsh", "--version"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == __version__

    def test_console_script_entry_point_resolves(self, capsys):
        # what an installed `dcsh` would run, checked without installing
        tomllib = pytest.importorskip("tomllib")
        root = pathlib.Path(__file__).resolve().parents[1]
        text = (root / "pyproject.toml").read_text(encoding="utf-8")
        project = tomllib.loads(text)["project"]
        module_name, _, attr = project["scripts"]["dcsh"].partition(":")
        entry = getattr(importlib.import_module(module_name), attr)
        assert entry(["--version"]) == 0
        assert capsys.readouterr().out.strip() == __version__
        assert project["version"] == __version__
