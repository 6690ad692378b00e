import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from dcsh import __version__, formats
from dcsh.cli import main
from dcsh.retrieval import unpack_codes


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
        rows = formats.read_loss_csv(run / "loss.csv")
        assert [r[0] for r in rows] == [0, 1]
        assert all(np.isfinite(r[1]) for r in rows)
        for epoch in (0, 1, 2):
            cs = formats.read_centers(run / f"centers-e{epoch:04d}.txt")
            assert cs.epoch == epoch
        manifest = formats.read_config(run / "manifest-train.txt")
        assert manifest["bits"] == "8"
        assert manifest["hidden"] == "16"
        assert manifest["lr"] == "0.001"
        assert "alpha_override" not in manifest

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
        rows = formats.read_loss_csv(run3 / "loss.csv")
        assert len(rows) == 1
        first = formats.read_loss_csv(pipeline / "run" / "loss.csv")[0]
        assert rows[0] == first

    def test_unknown_config_key(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("nonsense=1\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "nonsense" in capsys.readouterr().err

    def test_retired_normalized_update_key(self, pipeline, tmp_path, capsys):
        # Train manifests written before the key was removed carry it.
        manifest = (pipeline / "run" / "manifest-train.txt").read_text()
        assert "normalized_update" not in manifest
        cfg = tmp_path / "old-manifest.txt"
        cfg.write_text(manifest + "normalized_update=false\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert "'normalized_update'" in capsys.readouterr().err
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

    def test_unknown_encode_split(self, pipeline, tmp_path, capsys):
        assert main([
            "encode", "--model", str(pipeline / "run" / "model.bin"),
            "--features", str(pipeline / "data" / "features.bin"),
            "--splits", str(pipeline / "data" / "splits.txt"),
            "--split", "bogus", "--out", str(tmp_path / "out"),
        ]) == 1
        assert "bogus" in capsys.readouterr().err
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
