import struct

import numpy as np
import pytest

from rescnn import autodiff as ad
from rescnn import cli
from rescnn import dataset as ds
from rescnn import model as md
from rescnn.errors import UsageError


def run_synth(tmp_path, name="data", **overrides):
    out = tmp_path / name
    argv = ["synth", "--out", str(out), "--n-train", "60", "--n-test", "30",
            "--relations", "3", "--vocab", "40", "--min-len", "6", "--max-len", "12",
            "--seed", "0"]
    for flag, value in overrides.items():
        argv += [f"--{flag}", str(value)]
    assert cli.main(argv) == 0
    return out


def run_train(tmp_path, data, name="run", extra=()):
    out = tmp_path / name
    argv = ["train", "--corpus", str(data / "train.jsonl"), "--out", str(out),
            "--variant", "cnn", "--conv-layers", "1", "--m", "8", "--dw", "6",
            "--dp", "2", "--emin", "-5", "--emax", "5", "--n", "16",
            "--batch", "8", "--epochs", "2", "--keep-prob", "1.0", "--seed", "0",
            *extra]
    assert cli.main(argv) == 0
    return out


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == 1
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert cli.main(["explode"]) == 1
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert cli.main(["synth", "--out", "x", "--bogus", "1"]) == 1
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert cli.main(["train", "--out", "somewhere"]) == 1
        capsys.readouterr()

    def test_manifest_flag_excludes_subcommand(self, tmp_path, capsys):
        data = run_synth(tmp_path)
        assert cli.main(["--manifest", str(data / "manifest.txt"), "synth"]) == 1
        capsys.readouterr()

    def test_even_conv_layers(self, tmp_path, capsys):
        data = run_synth(tmp_path)
        code = cli.main(["train", "--corpus", str(data / "train.jsonl"),
                         "--out", str(tmp_path / "run"), "--conv-layers", "4"])
        assert code == 1
        assert not (tmp_path / "run").exists()
        capsys.readouterr()

    def test_bad_pan_string(self, tmp_path, capsys):
        data = run_synth(tmp_path)
        run = run_train(tmp_path, data)
        code = cli.main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                         "--corpus", str(data / "test.jsonl"),
                         "--out", str(tmp_path / "ev"), "--pan", "10,frog"])
        assert code == 1
        capsys.readouterr()

    def test_nonpositive_pan_cutoff(self, tmp_path, capsys):
        data = run_synth(tmp_path)
        run = run_train(tmp_path, data)
        code = cli.main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                         "--corpus", str(data / "test.jsonl"),
                         "--out", str(tmp_path / "ev"), "--pan", "0,10"])
        assert code == 1
        capsys.readouterr()


class TestDataErrors:
    def test_missing_corpus_file(self, tmp_path, capsys):
        code = cli.main(["train", "--corpus", str(tmp_path / "absent.jsonl"),
                         "--out", str(tmp_path / "run")])
        assert code == 2
        capsys.readouterr()

    def test_malformed_corpus_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"tokens": ["a"], "e1_idx": 0}\n')
        code = cli.main(["train", "--corpus", str(bad), "--out", str(tmp_path / "run")])
        assert code == 2
        capsys.readouterr()

    def test_missing_checkpoint(self, tmp_path, capsys):
        data = run_synth(tmp_path)
        code = cli.main(["eval", "--checkpoint", str(tmp_path / "absent.bin"),
                         "--corpus", str(data / "test.jsonl"),
                         "--out", str(tmp_path / "ev")])
        assert code == 2
        err = capsys.readouterr().err
        assert "absent.bin" in err

    def test_single_relation_corpus(self, tmp_path, capsys):
        only_na = tmp_path / "na.jsonl"
        ds.write_corpus(
            only_na, [ds.CorpusInstance(("a", "b", "c"), 0, 2, "e1", "e2", "NA")]
        )
        code = cli.main(["train", "--corpus", str(only_na), "--out", str(tmp_path / "run")])
        assert code == 2
        capsys.readouterr()

    def test_label_a_checkpoint_cannot_store_fails_before_training(self, tmp_path, monkeypatch, capsys):
        corpus = tmp_path / "comma.jsonl"
        ds.write_corpus(corpus, [
            ds.CorpusInstance(("a", "b", "c"), 0, 2, "e1", "e2", "r,1"),
            ds.CorpusInstance(("c", "b", "a"), 0, 2, "e2", "e1", "NA"),
        ])

        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(ad, "backward", no_training)
        out = tmp_path / "run"
        code = cli.main(["train", "--corpus", str(corpus), "--out", str(out), "--n", "8", "--m", "4"])
        assert code == 2
        assert "relation label 'r,1' may not contain commas or newlines" in capsys.readouterr().err
        assert not (out / "trainlog.csv").exists()
        assert not (out / "checkpoint.bin").exists()

    def test_checkpoint_with_too_few_labels(self, tmp_path, capsys):
        data = run_synth(tmp_path)
        checkpoint = run_train(tmp_path, data) / "checkpoint.bin"
        blob = checkpoint.read_bytes()
        end = 8 + struct.unpack("<Q", blob[:8])[0]
        lines = blob[8:end].decode("utf-8").split("\n")
        manifest = "\n".join(line.rpartition(",")[0] if line.startswith("labels=") else line for line in lines)
        checkpoint.write_bytes(struct.pack("<Q", len(manifest)) + manifest.encode("utf-8") + blob[end:])
        code = cli.main(["eval", "--checkpoint", str(checkpoint), "--corpus", str(data / "test.jsonl"),
                         "--out", str(tmp_path / "ev")])
        assert code == 2
        assert "labels but num_relations" in capsys.readouterr().err

    def test_embedding_dim_mismatch(self, tmp_path, capsys):
        data = run_synth(tmp_path)
        vectors = tmp_path / "vec.txt"
        vectors.write_text("tok_a 0.1 0.2 0.3\n")
        code = cli.main(["train", "--corpus", str(data / "train.jsonl"),
                         "--out", str(tmp_path / "run"),
                         "--embeddings", str(vectors), "--dw", "6"])
        assert code == 2
        capsys.readouterr()


class TestSynthCommand:
    def test_writes_three_files(self, tmp_path, capsys):
        out = run_synth(tmp_path)
        assert (out / "train.jsonl").exists()
        assert (out / "test.jsonl").exists()
        assert (out / "gold.csv").exists()
        assert (out / "manifest.txt").exists()
        capsys.readouterr()

    def test_deterministic_bytes(self, tmp_path, capsys):
        a = run_synth(tmp_path, "a")
        b = run_synth(tmp_path, "b")
        for name in ("train.jsonl", "test.jsonl", "gold.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        capsys.readouterr()

    def test_gold_csv_round_trip(self, tmp_path, capsys):
        out = run_synth(tmp_path)
        gold = cli.read_gold_csv(out / "gold.csv")
        _, test, expected = ds.synth_generate(
            ds.SynthConfig(num_relations=3, vocab_size=40, num_train=60, num_test=30,
                           min_len=6, max_len=12, seed=0)
        )
        assert set(gold) == set(expected)
        capsys.readouterr()

    def test_invalid_config_is_usage_error(self, tmp_path, capsys):
        code = cli.main(["synth", "--out", str(tmp_path / "x"),
                         "--min-len", "9", "--max-len", "6"])
        assert code == 1
        capsys.readouterr()


class TestTrainCommand:
    def test_produces_expected_layout(self, tmp_path, capsys):
        data = run_synth(tmp_path)
        run = run_train(tmp_path, data)
        assert (run / "manifest.txt").exists()
        assert (run / "checkpoint.bin").exists()
        assert (run / "trainlog.csv").exists()
        out = capsys.readouterr().out
        assert "parameters" in out
        assert "final loss" in out

    def test_checkpoint_loads_and_matches_flags(self, tmp_path, capsys):
        data = run_synth(tmp_path)
        run = run_train(tmp_path, data)
        model = md.load_checkpoint(run / "checkpoint.bin")
        assert model.config.variant == "cnn"
        assert model.config.filters == 8
        assert model.config.embedding.word_dim == 6
        assert model.config.embedding.sent_len == 16
        capsys.readouterr()

    def test_two_runs_bit_identical(self, tmp_path, capsys):
        data = run_synth(tmp_path)
        a = run_train(tmp_path, data, "a")
        b = run_train(tmp_path, data, "b")
        assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()
        assert (a / "trainlog.csv").read_bytes() == (b / "trainlog.csv").read_bytes()
        capsys.readouterr()

    def test_pretrained_embeddings_accepted(self, tmp_path, capsys):
        data = run_synth(tmp_path)
        train, _, _ = ds.synth_generate(
            ds.SynthConfig(num_relations=3, vocab_size=40, num_train=60, num_test=30,
                           min_len=6, max_len=12, seed=0)
        )
        tokens = sorted({t for inst in train for t in inst.tokens})
        rng = np.random.default_rng(0)
        lines = [f"{tok} " + " ".join(f"{v:.4f}" for v in rng.normal(size=6))
                 for tok in tokens]
        vectors = tmp_path / "vec.txt"
        vectors.write_text("\n".join(lines) + "\n")
        run = run_train(tmp_path, data, "pre", extra=("--embeddings", str(vectors)))
        model = md.load_checkpoint(run / "checkpoint.bin")
        assert set(tokens) <= set(model.vocab.tokens)
        capsys.readouterr()


class TestEvalCommand:
    def test_outputs_and_table(self, tmp_path, capsys):
        data = run_synth(tmp_path)
        run = run_train(tmp_path, data)
        out = tmp_path / "ev"
        code = cli.main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                         "--corpus", str(data / "test.jsonl"),
                         "--out", str(out), "--pan", "5,10,500"])
        assert code == 0
        printed = capsys.readouterr().out
        assert (out / "pr.csv").exists()
        assert (out / "pan.csv").exists()
        assert (out / "manifest.txt").exists()
        assert "P@5" in printed
        # 500 exceeds the candidate list, so the row is marked
        assert "fewer candidates" in printed
        assert "mean" in printed

    def test_explicit_gold_file(self, tmp_path, capsys):
        data = run_synth(tmp_path)
        run = run_train(tmp_path, data)
        out = tmp_path / "ev"
        code = cli.main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                         "--corpus", str(data / "test.jsonl"),
                         "--gold", str(data / "gold.csv"),
                         "--out", str(out), "--pan", "5"])
        assert code == 0
        capsys.readouterr()

    def test_gold_flag_matches_default(self, tmp_path, capsys):
        # gold.csv was derived from the same test split, so both paths agree
        data = run_synth(tmp_path)
        run = run_train(tmp_path, data)
        args = ["--checkpoint", str(run / "checkpoint.bin"),
                "--corpus", str(data / "test.jsonl"), "--pan", "5,10"]
        assert cli.main(["eval", *args, "--out", str(tmp_path / "e1")]) == 0
        assert cli.main(["eval", *args, "--gold", str(data / "gold.csv"),
                         "--out", str(tmp_path / "e2")]) == 0
        assert ((tmp_path / "e1" / "pr.csv").read_bytes()
                == (tmp_path / "e2" / "pr.csv").read_bytes())
        capsys.readouterr()


class TestGradcheckCommand:
    def test_passes_and_reports(self, capsys):
        assert cli.main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "cnn_x" in out
        assert "rescnn_x" in out
        assert "PASS" in out

    def test_detects_injected_gradient_bug(self, monkeypatch, capsys):
        true_grad = ad._conv_input_grad

        def sabotaged(*args, **kwargs):
            return -true_grad(*args, **kwargs)

        monkeypatch.setattr(ad, "_conv_input_grad", sabotaged)
        assert cli.main(["gradcheck"]) == 3
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_report_file_when_out_given(self, tmp_path, capsys):
        assert cli.main(["gradcheck", "--out", str(tmp_path / "gc")]) == 0
        assert (tmp_path / "gc" / "manifest.txt").exists()
        report = (tmp_path / "gc" / "gradcheck.txt").read_text()
        assert "OVERALL" in report
        capsys.readouterr()


class TestManifestReplay:
    def test_round_trip_fields(self, tmp_path):
        data = run_synth(tmp_path)
        text = (data / "manifest.txt").read_text()
        assert text.startswith("command=synth\n")
        argv = cli.read_manifest(data / "manifest.txt")
        assert argv[0] == "synth"
        assert "--n-train" in argv

    def test_replay_reproduces_training_bytes(self, tmp_path, capsys):
        data = run_synth(tmp_path)
        first = run_train(tmp_path, data, "first")
        manifest = (tmp_path / "replay.txt")
        replay_dir = tmp_path / "second"
        manifest.write_text(
            (first / "manifest.txt").read_text().replace(str(first), str(replay_dir))
        )
        assert cli.main(["--manifest", str(manifest)]) == 0
        assert ((first / "checkpoint.bin").read_bytes()
                == (replay_dir / "checkpoint.bin").read_bytes())
        capsys.readouterr()

    def test_unknown_manifest_field_rejected(self, tmp_path, capsys):
        # the manifest is an input file, so a stray field is a data problem
        path = tmp_path / "m.txt"
        path.write_text("command=train\nbogus=1\n")
        assert cli.main(["--manifest", str(path)]) == 2
        capsys.readouterr()

    def test_missing_manifest_file(self, tmp_path, capsys):
        assert cli.main(["--manifest", str(tmp_path / "absent.txt")]) == 2
        capsys.readouterr()


class TestParseCutoffs:
    def test_parses_sorted_unique(self):
        assert cli._parse_cutoffs("100,200,300") == (100, 200, 300)

    def test_rejects_garbage(self):
        for bad in ("", "a,b", "10,,20", "-5"):
            with pytest.raises(UsageError):
                cli._parse_cutoffs(bad)
