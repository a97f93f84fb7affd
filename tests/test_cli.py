"""Command-line behavior: exit codes, output formats, and reproducibility.

Commands run in-process through main(argv) so stdout/stderr can be captured
exactly.  The corpus under tests/data/ is checked in; the evaluate
regression pins the byte-exact records produced by the first verified run
of the pinned flag set.
"""

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from citevec.cli import _build_parser, _from_flags, _sha256, main
from citevec.corpus import SyntheticSpec, generate_synthetic_corpus
from citevec.model import _EXPORTABLE, EmbeddingConfig, load_model
from citevec.recommend import CASES

corpus_module = importlib.import_module("citevec.corpus")

FIXTURE_TSV = Path(__file__).parent / "data" / "cli_fixture.tsv"

# pinned regression flags for the checked-in corpus
MODEL_FLAGS = [
    "--dim", "8", "--window", "6", "--negative", "3", "--iterations", "10",
    "--learning-rate", "0.05", "--seed", "13",
]
SPLIT_FLAGS = ["--test-fraction", "0.25", "--split-seed", "7"]
TRAIN_FLAGS = MODEL_FLAGS + SPLIT_FLAGS


def subcommand(name: str) -> dict[str, argparse.Action]:
    """The named subcommand's flags, by destination."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {action.dest: action for action in sub.choices[name]._actions}


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Model trained once on the checked-in corpus with the pinned flags."""
    path = tmp_path_factory.mktemp("cli") / "model.dcv"
    code = main(["train", str(FIXTURE_TSV), str(path)] + TRAIN_FLAGS)
    assert code == 0
    return path


def test_serving_never_imports_scipy(tmp_path):
    """Only training and ``infer_doc_vector`` use scipy, and import it
    where they use it: ``import citevec`` leaves it out, and so does a
    served ``citevec recommend`` whose i4o filter runs.  Checked in a fresh
    process."""
    script = textwrap.dedent("""
        import sys
        import numpy as np
        import citevec
        from citevec.cli import main
        from citevec.corpus import Vocabulary
        from citevec.model import EmbeddingConfig, init_model, save_model
        recommend_module = sys.modules["citevec.recommend"]

        def scipy_modules():
            return [name for name in sys.modules if name.split(".")[0] == "scipy"]

        assert not scipy_modules(), scipy_modules()
        vocab = Vocabulary()
        vocab.doc_list = [f"d{i}" for i in range(40)]
        vocab.doc_ids = {d: i for i, d in enumerate(vocab.doc_list)}
        vocab.word_list = ["alpha", "beta"]
        vocab.word_ids = {"alpha": 0, "beta": 1}
        vocab.word_counts = np.ones(2, dtype=np.int64)
        vocab.doc_cited_counts = np.ones(40, dtype=np.int64)
        model = init_model(vocab, EmbeddingConfig(dim=4, window=2, negative=1))
        model.matrices.doc_out[:] = np.random.default_rng(0).normal(size=(40, 4))
        save_model(model, sys.argv[1] + "/m.dcv")
        with open(sys.argv[1] + "/q.txt", "w") as handle:
            handle.write("alpha beta [[d3]]")
        recommend_module._FILTER_ENTRIES = 0
        assert main(["recommend", sys.argv[1] + "/m.dcv", "--text-file", sys.argv[1] + "/q.txt"]) == 0
        assert not scipy_modules(), scipy_modules()
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-W", "error", "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 10


class TestSynth:
    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        flags = ["--n-topics", "2", "--docs-per-topic", "4", "--clique-size", "2", "--seed", "5"]
        assert run(capsys, "synth", a, *flags)[0] == 0
        assert run(capsys, "synth", b, *flags)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fixture_corpus_matches_generator(self, tmp_path, capsys):
        # guards the checked-in file against silent edits
        out = tmp_path / "regen.tsv"
        code, _, _ = run(
            capsys, "synth", out,
            "--n-topics", "2", "--docs-per-topic", "6", "--clique-size", "3",
            "--vocab-per-topic", "12", "--noise-rate", "0.1", "--seed", "41",
        )
        assert code == 0
        assert out.read_bytes() == FIXTURE_TSV.read_bytes()

    def test_defaults_are_the_spec_defaults(self, tmp_path, capsys):
        out = tmp_path / "d.tsv"
        assert run(capsys, "synth", out)[0] == 0
        assert out.read_bytes() == generate_synthetic_corpus(SyntheticSpec())
        flags = subcommand("synth")
        for field in dataclasses.fields(SyntheticSpec):
            assert flags[field.name].default == getattr(SyntheticSpec(), field.name)

    def test_negative_seed_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "c.tsv"
        code, stdout, stderr = run(capsys, "synth", out, "--seed", "-1")
        assert code == 1 and stdout == "" and not out.exists()
        assert stderr.startswith("citevec: error:") and "Traceback" not in stderr

    def test_manifest_written(self, tmp_path, capsys):
        out = tmp_path / "c.tsv"
        run(capsys, "synth", out, "--seed", "3")
        manifest = json.loads((tmp_path / "c.tsv.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 3
        assert manifest["config"]["n_topics"] == 2
        assert manifest["finished_at"] is not None


class TestTrain:
    def test_progress_records_on_stdout(self, tmp_path, capsys):
        out = tmp_path / "m.dcv"
        code, stdout, stderr = run(
            capsys, "train", FIXTURE_TSV, out,
            "--dim", "4", "--iterations", "3", "--negative", "2", "--window", "6",
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert len(lines) == 3
        assert all(line.startswith("epoch=") and " loss=" in line for line in lines)
        assert out.exists()

    def test_content_epochs_reported_on_stderr(self, tmp_path, capsys):
        code, stdout, stderr = run(
            capsys, "train", FIXTURE_TSV, tmp_path / "m.dcv",
            "--dim", "4", "--iterations", "2", "--retrofit-epochs", "3",
        )
        assert code == 0
        content = [line for line in stderr.splitlines() if line.startswith("phase=content")]
        assert [line.split()[1] for line in content] == ["epoch=1", "epoch=2", "epoch=3"]
        for line in content:
            fields = dict(part.split("=") for part in line.split())
            assert set(fields) == {"phase", "epoch", "seen", "lr", "loss", "skipped"}
            assert float(fields["loss"]) > 0 and fields["skipped"] == "0"
        assert all(line.startswith("epoch=") for line in stdout.splitlines())

    def test_identical_flags_identical_model_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.dcv", tmp_path / "b.dcv"
        for path in (a, b):
            code, _, _ = run(capsys, "train", FIXTURE_TSV, path, *TRAIN_FLAGS)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_checksum_matches_corpus(self, tmp_path, capsys):
        import hashlib
        out = tmp_path / "m.dcv"
        run(capsys, "train", FIXTURE_TSV, out, "--dim", "4", "--iterations", "1")
        manifest = json.loads((tmp_path / "m.dcv.manifest.json").read_text())
        assert manifest["input_checksum"] == hashlib.sha256(FIXTURE_TSV.read_bytes()).hexdigest()
        assert manifest["output_checksum"] == hashlib.sha256(out.read_bytes()).hexdigest()
        assert manifest["config"]["dim"] == 4
        assert manifest["config"]["negative"] == 5  # desk-scale default
        assert manifest["config"]["iterations"] == 1

    def test_checksum_of_a_file_longer_than_one_read(self, tmp_path):
        import hashlib
        path = tmp_path / "big.bin"
        path.write_bytes(bytes(range(256)) * (10 * 1024 + 3))  # 2.5 MiB and a bit
        assert _sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_every_config_field_is_a_flag_with_the_cli_default(self):
        flags = subcommand("train")
        defaults = EmbeddingConfig(negative=5, iterations=20)
        for field in dataclasses.fields(EmbeddingConfig):
            assert flags[field.name].option_strings[0] == "--" + field.name.replace("_", "-")
            assert flags[field.name].default == getattr(defaults, field.name)
        args = _build_parser().parse_args(["train", "c.tsv", "m.dcv"])
        assert _from_flags(EmbeddingConfig, args) == defaults

    def test_no_structural_context(self):
        args = _build_parser().parse_args(["train", "c.tsv", "m.dcv", "--no-structural-context"])
        assert _from_flags(EmbeddingConfig, args).structural_context is False

    def test_config_error_exits_nonzero(self, tmp_path, capsys):
        code, stdout, stderr = run(capsys, "train", FIXTURE_TSV, tmp_path / "m.dcv", "--dim", "0")
        assert code == 1
        assert "error" in stderr
        assert stdout == ""

    @pytest.mark.parametrize("flag, value", [
        ("--seed", 2**63), ("--window", 2**32), ("--dim", 2**32), ("--negative", 2**32),
        ("--iterations", 2**32), ("--retrofit-epochs", 2**32),
    ])
    def test_value_the_model_file_cannot_hold_writes_nothing(self, tmp_path, capsys, flag, value):
        out = tmp_path / "m.dcv"
        code, stdout, stderr = run(capsys, "train", FIXTURE_TSV, out, flag, value)
        assert code == 1
        assert stderr.startswith("citevec: error:")
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_diverging_content_pass_writes_no_model(self, tmp_path, capsys):
        out = tmp_path / "m.dcv"
        with np.errstate(all="ignore"):
            code, stdout, stderr = run(
                capsys, "train", FIXTURE_TSV, out,
                "--iterations", "0", "--learning-rate", "1e200", "--min-lr", "0",
            )
        assert code == 1
        assert stderr.splitlines()[-1].startswith("citevec: error: non-finite")
        assert "content epoch" in stderr
        assert stdout == ""
        assert not out.exists()

    def test_parse_error_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("only-an-id-no-tab\n")
        code, _, stderr = run(capsys, "train", bad, tmp_path / "m.dcv")
        assert code == 1
        assert "error" in stderr

    def test_split_holdout_reported(self, tmp_path, capsys):
        out = tmp_path / "m.dcv"
        code, _, stderr = run(
            capsys, "train", FIXTURE_TSV, out,
            "--dim", "4", "--iterations", "1", *SPLIT_FLAGS,
        )
        assert code == 0
        assert "holding out 3 docs" in stderr


    def test_a_split_builds_only_the_training_vocabulary(self, trained, tmp_path, capsys,
                                                          monkeypatch):
        """``train`` with a split, and ``evaluate``, split the corpus's own
        lines and build the training docs' vocabulary only, never the whole
        corpus's: the model's bytes and the records stay the same."""
        _, records, _ = run(capsys, "evaluate", trained, FIXTURE_TSV, *SPLIT_FLAGS)
        built = []

        def build_vocabulary(docs):
            built.append(len(docs))
            return real_build(docs)

        real_build = corpus_module.build_vocabulary
        monkeypatch.setattr(corpus_module, "build_vocabulary", build_vocabulary)
        out = tmp_path / "m.dcv"
        assert run(capsys, "train", FIXTURE_TSV, out, *TRAIN_FLAGS)[0] == 0
        assert out.read_bytes() == trained.read_bytes()
        assert run(capsys, "evaluate", trained, FIXTURE_TSV, *SPLIT_FLAGS)[1] == records
        lines = len(FIXTURE_TSV.read_text().splitlines())
        assert len(built) == 2 and built[0] == built[1] == lines - 3


class TestRecommend:
    def test_markers_never_recommended(self, trained, tmp_path, capsys):
        text = tmp_path / "q.txt"
        text.write_text("w0t2 w0t5 w0t1 [[t0c0]] [[t0c1]]")
        code, stdout, _ = run(capsys, "recommend", trained, "--text-file", text, "--k", "10")
        assert code == 0
        ids = [line.split("\t")[1] for line in stdout.strip().splitlines()]
        assert "t0c0" not in ids and "t0c1" not in ids

    def test_output_format(self, trained, tmp_path, capsys):
        text = tmp_path / "q.txt"
        text.write_text("w0t2 w0t5 [[t0c0]]")
        code, stdout, _ = run(capsys, "recommend", trained, "--text-file", text, "--k", "3")
        lines = stdout.strip().splitlines()
        assert len(lines) == 3
        for rank, line in enumerate(lines, start=1):
            fields = line.split("\t")
            assert fields[0] == str(rank)
            float(fields[2])  # parses

    def test_k_one_gives_one_line(self, trained, tmp_path, capsys):
        text = tmp_path / "q.txt"
        text.write_text("w0t2 [[t0c0]]")
        _, stdout, _ = run(capsys, "recommend", trained, "--text-file", text, "--k", "1")
        assert len(stdout.strip().splitlines()) == 1

    def test_case_three_ignores_markers(self, trained, tmp_path, capsys):
        """Case 3's query ignores the markers, which are still excluded: at a
        k that keeps every candidate, the marked text's list is the plain
        text's less the marked ids."""
        plain = tmp_path / "plain.txt"
        marked = tmp_path / "marked.txt"
        plain.write_text("w0t2 w0t5 w0t1")
        marked.write_text("w0t2 w0t5 [[t0c0]] w0t1 [[t1c0]]")

        def ranked(text):
            code, out, _ = run(capsys, "recommend", trained, "--text-file", text,
                               "--case", "3", "--k", "1000")
            assert code == 0
            return [line.split("\t")[1:] for line in out.splitlines()]

        everything = ranked(plain)
        assert {"t0c0", "t1c0"} <= {doc for doc, _ in everything}
        assert ranked(marked) == [r for r in everything if r[0] not in ("t0c0", "t1c0")]

    def test_any_int_seed(self, trained, tmp_path, capsys):
        """Case 2 takes the seed modulo 2**64: -1 thins as 2**64 - 1."""
        text = tmp_path / "q.txt"
        text.write_text("w0t2 w0t5 [[t0c0]] [[t0c1]] [[t0c2]] [[t1c0]]")
        outs = []
        for seed in (-1, 2**64 - 1):
            code, out, _ = run(capsys, "recommend", trained, "--text-file", text,
                               "--case", "2", "--seed", seed)
            assert code == 0 and out
            outs.append(out)
        assert outs[0] == outs[1]

    def test_unknown_words_counted_on_stderr(self, trained, tmp_path, capsys):
        known = tmp_path / "known.txt"
        mixed = tmp_path / "mixed.txt"
        known.write_text("w0t2 w0t5 [[t0c0]]")
        mixed.write_text("w0t2 zzz w0t5 qqq [[t0c0]] zzz")
        code, out_known, err_known = run(capsys, "recommend", trained, "--text-file", known)
        assert code == 0
        code, out_mixed, err_mixed = run(capsys, "recommend", trained, "--text-file", mixed)
        assert code == 0
        assert out_mixed == out_known  # unknown words are dropped from the query
        assert err_known.splitlines() == ["dropped 0 unknown words"]
        assert err_mixed.splitlines() == ["dropped 3 unknown words"]

    def test_unknown_tokens_only_is_an_error(self, trained, tmp_path, capsys):
        text = tmp_path / "q.txt"
        text.write_text("zzz qqq xxx")
        code, stdout, stderr = run(capsys, "recommend", trained, "--text-file", text)
        assert code == 1
        assert "unknown" in stderr
        assert stdout == ""

    def test_empty_input_is_an_error(self, trained, tmp_path, capsys):
        text = tmp_path / "q.txt"
        text.write_text("   \n")
        code, _, stderr = run(capsys, "recommend", trained, "--text-file", text)
        assert code == 1

    def test_missing_model_exits_nonzero(self, tmp_path, capsys):
        text = tmp_path / "q.txt"
        text.write_text("w0t2")
        code, _, stderr = run(capsys, "recommend", tmp_path / "nope.dcv", "--text-file", text)
        assert code == 1


class TestEvaluate:
    def test_regression_baseline_exact(self, trained, capsys):
        # recorded from the first verified run of the pinned flag set, and
        # re-recorded when i4o came to rank only the documents cited in
        # training (0.8888888888888888 on every line before)
        code, stdout, _ = run(
            capsys, "evaluate", trained, FIXTURE_TSV, *SPLIT_FLAGS, "--case", "1", "--k", "3"
        )
        assert code == 0
        assert stdout == (
            "case=1 metric=recall value=1.0 n=9\n"
            "case=1 metric=map value=1.0 n=9\n"
            "case=1 metric=ndcg value=1.0 n=9\n"
        )

    def test_case_two_keep_prob_one_equals_case_one(self, trained, capsys):
        _, base, _ = run(
            capsys, "evaluate", trained, FIXTURE_TSV, *SPLIT_FLAGS, "--case", "1"
        )
        _, degenerate, _ = run(
            capsys, "evaluate", trained, FIXTURE_TSV, *SPLIT_FLAGS,
            "--case", "2", "--keep-prob", "1.0",
        )
        assert degenerate.replace("case=2", "case=1") == base

    def test_case_two_keep_prob_zero_equals_case_three(self, trained, capsys):
        _, base, _ = run(
            capsys, "evaluate", trained, FIXTURE_TSV, *SPLIT_FLAGS, "--case", "3"
        )
        _, thinned, _ = run(
            capsys, "evaluate", trained, FIXTURE_TSV, *SPLIT_FLAGS,
            "--case", "2", "--keep-prob", "0.0",
        )
        assert thinned.replace("case=2", "case=3") == base

    def test_bad_fraction_exits_nonzero(self, trained, capsys):
        code, _, stderr = run(
            capsys, "evaluate", trained, FIXTURE_TSV, "--test-fraction", "1.5"
        )
        assert code == 1
        assert "fraction" in stderr

    def test_split_spec_required(self, trained, capsys):
        code, _, stderr = run(capsys, "evaluate", trained, FIXTURE_TSV)
        assert code == 1

    def test_split_spec_checked_before_the_model_is_read(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "evaluate", tmp_path / "nope.dcv", FIXTURE_TSV)
        assert code == 1
        assert "--test-fraction" in stderr and "--test-ids" in stderr

    def test_explicit_test_ids(self, tmp_path, capsys):
        split = ["--test-ids", "t0d0,t1d0"]
        model = tmp_path / "ids.dcv"
        assert run(capsys, "train", FIXTURE_TSV, model, *MODEL_FLAGS, *split)[0] == 0
        code, stdout, _ = run(capsys, "evaluate", model, FIXTURE_TSV, *split, "--case", "1")
        assert code == 0
        assert "n=6" in stdout  # two held-out docs, three citations each

    @pytest.mark.parametrize("split", [
        ["--test-fraction", "0.25", "--split-seed", "8"],
        ["--test-fraction", "0.25"],
        ["--test-ids", "t0d0,t1d0"],
    ])
    def test_a_split_other_than_the_models_is_refused(self, trained, split, capsys):
        code, stdout, stderr = run(capsys, "evaluate", trained, FIXTURE_TSV, *split)
        assert code == 1 and stdout == ""
        assert "training vocabulary" in stderr
        for flag in ("--test-fraction", "--test-ids", "--split-seed"):
            assert flag in stderr

    def test_sub_clique_record_exact(self, tmp_path, capsys):
        """Co-citation must pick the target among its topic's sub-cliques
        here, so the record moves with the ranking.  Recorded at the first
        verified run, the same on OpenBLAS's default and Haswell kernels
        and on two BLAS threads.  Case 2 was re-recorded when its thinning
        became counter-based draws (recall 0.5701754385964912, map
        0.31315789473684214, ndcg 0.37652782830778125 before)."""
        corpus, model = tmp_path / "sub.tsv", tmp_path / "sub.dcv"
        split = ["--test-fraction", "0.2", "--split-seed", "1"]
        assert run(capsys, "synth", corpus, "--n-topics", "6", "--docs-per-topic", "60",
                   "--clique-size", "4", "--sub-cliques", "4", "--cites-per-doc", "3",
                   "--distractor-rate", "0.15", "--seed", "1")[0] == 0
        assert run(capsys, "train", corpus, model, "--dim", "16", "--window", "8",
                   "--negative", "2", "--iterations", "40", "--retrofit-epochs", "1",
                   "--learning-rate", "0.5", "--seed", "1", *split)[0] == 0
        records = ""
        for case in CASES:
            code, stdout, _ = run(capsys, "evaluate", model, corpus, *split,
                                  "--case", case, "--k", "5")
            assert code == 0
            records += stdout
        assert records == (
            "case=1 metric=recall value=0.7412280701754386 n=228\n"
            "case=1 metric=map value=0.44166666666666665 n=228\n"
            "case=1 metric=ndcg value=0.5167364303097229 n=228\n"
            "case=2 metric=recall value=0.5350877192982456 n=228\n"
            "case=2 metric=map value=0.3109649122807018 n=228\n"
            "case=2 metric=ndcg value=0.3663765883471861 n=228\n"
            "case=3 metric=recall value=0.2982456140350877 n=228\n"
            "case=3 metric=map value=0.147953216374269 n=228\n"
            "case=3 metric=ndcg value=0.18497721525554037 n=228\n"
        )


def test_main_builds_the_parser_once_per_process(tmp_path, capsys):
    _build_parser()
    before = _build_parser.cache_info()
    for name in ("a.tsv", "b.tsv"):
        assert run(capsys, "synth", tmp_path / name, "--docs-per-topic", "2")[0] == 0
    after = _build_parser.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 2)


@pytest.mark.parametrize("command", ["recommend", "evaluate"])
def test_case_choices_are_the_cases(command):
    assert tuple(subcommand(command)["case"].choices) == CASES


class TestExport:
    def test_which_choices_are_the_exportable_matrices(self):
        choices = subcommand("export")["which"].choices
        assert [choice.replace("-", "_") for choice in choices] == list(_EXPORTABLE)

    def test_line_count_and_prefix(self, trained, tmp_path, capsys):
        out = tmp_path / "vecs.txt"
        code, _, _ = run(capsys, "export", trained, out, "--which", "doc-in")
        assert code == 0
        lines = out.read_text().splitlines()
        n, dim = lines[0].split()
        assert int(dim) == 8
        assert len(lines) == int(n) + 1
        assert all(line.startswith("doc:") for line in lines[1:])

    def test_missing_model_exits_nonzero(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "export", tmp_path / "nope.dcv", tmp_path / "v.txt")
        assert code == 1

    def test_export_manifest(self, trained, tmp_path, capsys):
        out = tmp_path / "vecs.txt"
        run(capsys, "export", trained, out, "--which", "word-in")
        manifest = json.loads((tmp_path / "vecs.txt.manifest.json").read_text())
        assert manifest["config"] == {"which": "word_in"}
        assert manifest["output_checksum"] is not None


class TestModelFile:
    def test_trained_model_round_trips(self, trained):
        model = load_model(trained)
        assert model.config.dim == 8
        assert model.config.negative == 3
        assert model.trained_epochs == 10
        # recorded from a version 2 file: the file format never moves the values
        assert model.matrices.fingerprint() == 37625663

    def test_trained_model_file_bytes(self, trained):
        # recorded from a version 3 file: pins the header, vocabulary and padding too
        digest = hashlib.sha256(trained.read_bytes()).hexdigest()
        assert digest == "935db19c04644a4b88b107b43bb84e59f1e4252de1ba2d4b543842dc4a6596de"
