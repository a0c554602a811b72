import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from suite_support import subprocess_env
from punchgen.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*argv):
    """Run in-process, capturing exit code."""
    return main(list(argv))


def run_proc(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "punchgen.cli", *argv],
                          capture_output=True, text=True, cwd=cwd, env=subprocess_env())


# The fields each phase event must carry; `cli._measured` may add usage fields, but none may go.
EVENT_FIELDS = {
    "knowledge.annotated": {"event", "records", "with_triples", "sys_s", "minflt"},
    "train.done": {"event", "stage", "steps_run", "best_val_loss", "peak_rss_mb", "wall_s", "user_s",
                   "sys_s", "minor_faults"},
    "generate.done": {"event", "records", "beam", "seconds", "records_per_s", "decode_threads", "sys_s",
                      "minflt"},
    "evaluate.done": {"event", "rouge1", "rouge2", "rougeL", "n_lines", "seconds", "lines_per_s", "sys_s",
                      "minflt"},
}


def assert_usage(event: dict) -> None:
    """The event keeps every field it had, and carries the phase's wall, user and system
    seconds and minor page faults, as perf_counter and getrusage deltas."""
    assert EVENT_FIELDS[event["event"]] <= set(event), EVENT_FIELDS[event["event"]] - set(event)
    for key in ("wall_s", "user_s", "sys_s"):
        assert isinstance(event[key], float) and event[key] >= 0, key
    assert isinstance(event["minflt"], int) and event["minflt"] >= 0


class TestLazyImports:
    def test_program_modules_leave_requests_and_yaml_unimported(self):
        """Only live annotation uses requests and only --config runs use yaml, so a fresh
        interpreter that imports the program's modules has loaded neither."""
        modules = ("cli", "corpus", "decoding", "evaluation", "knowledge", "training")
        code = (f"import sys\nimport {', '.join('punchgen.' + m for m in modules)}\n"
                "print(sorted({'numpy', 'requests', 'yaml'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=subprocess_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['numpy']"  # numpy is the control: imports are seen


class TestDispatch:
    def test_help_exits_zero(self):
        proc = run_proc("--help")
        assert proc.returncode == 0
        assert "corpus" in proc.stdout and "selftest" in proc.stdout

    def test_unknown_subcommand_exits_one(self):
        proc = run_proc("frobnicate")
        assert proc.returncode == 1
        assert "error" in proc.stderr.lower()

    def test_missing_required_flag_exits_one(self):
        proc = run_proc("corpus", "build", "--output-dir", "x")
        assert proc.returncode == 1

    def test_runtime_error_exits_two(self, tmp_path):
        code = run_cli("kgraph", "dump", "--input", str(tmp_path / "nope.jsonl"),
                       "--record", "0")
        assert code == 2


class TestCorpusBuild:
    def test_builds_splits_and_sidecars(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = run_cli("corpus", "build", "--input", str(FIXTURES / "raw_jokes.txt"),
                       "--output-dir", str(out), "--seed", "1")
        assert code == 0
        for name in ("train", "valid", "test"):
            assert (out / f"{name}.jsonl").exists()
            meta = json.loads((out / f"{name}.jsonl.meta.json").read_text())
            assert meta["seed"] == 1 and meta["command"] == "corpus build"
        n = sum(1 for name in ("train", "valid", "test")
                for _ in (out / f"{name}.jsonl").read_text().strip().split("\n"))
        assert n == 40

    def test_does_not_mutate_input(self, tmp_path):
        src = tmp_path / "raw.txt"
        shutil.copy(FIXTURES / "raw_jokes.txt", src)
        before = hashlib.sha256(src.read_bytes()).hexdigest()
        run_cli("corpus", "build", "--input", str(src),
                "--output-dir", str(tmp_path / "out"), "--seed", "0")
        assert hashlib.sha256(src.read_bytes()).hexdigest() == before

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli("corpus", "build", "--input", str(FIXTURES / "raw_jokes.txt"),
                    "--output-dir", str(out), "--seed", "7")
        assert (a / "train.jsonl").read_bytes() == (b / "train.jsonl").read_bytes()
        assert (a / "test.jsonl").read_bytes() == (b / "test.jsonl").read_bytes()


class TestAnnotateAndDump:
    @pytest.fixture()
    def data_dir(self, tmp_path):
        out = tmp_path / "data"
        run_cli("corpus", "build", "--input", str(FIXTURES / "raw_jokes.txt"),
                "--output-dir", str(out), "--seed", "1")
        return out

    def test_annotate_fixture_mode(self, data_dir, capsys):
        out = data_dir / "train.ann.jsonl"
        code = run_cli("knowledge", "annotate", "--input", str(data_dir / "train.jsonl"),
                       "--fixtures", str(FIXTURES / "knowledge.json"),
                       "--output", str(out))
        assert code == 0
        lines = [json.loads(l) for l in out.read_text().strip().split("\n")]
        assert len(lines) == 28
        assert any(rec["triples"] for rec in lines)
        done = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert done["event"] == "knowledge.annotated" and done["records"] == 28
        assert_usage(done)

    def test_annotate_requires_provider_choice(self, data_dir):
        code = run_cli("knowledge", "annotate", "--input", str(data_dir / "train.jsonl"))
        assert code == 1

    def test_kgraph_dump(self, data_dir, tmp_path, capsys):
        ann = data_dir / "train.ann.jsonl"
        run_cli("knowledge", "annotate", "--input", str(data_dir / "train.jsonl"),
                "--fixtures", str(FIXTURES / "knowledge.json"), "--output", str(ann))
        lines = [json.loads(l) for l in ann.read_text().strip().split("\n")]
        idx = next(i for i, rec in enumerate(lines) if rec["triples"])
        dot = tmp_path / "g.dot"
        code = run_cli("kgraph", "dump", "--input", str(ann), "--record", str(idx),
                       "--output", str(dot))
        assert code == 0
        text = dot.read_text()
        assert text.startswith("digraph") and "color=green" in text

    def test_kgraph_dump_empty_record_is_runtime_error(self, data_dir):
        ann = data_dir / "train.ann.jsonl"
        run_cli("knowledge", "annotate", "--input", str(data_dir / "train.jsonl"),
                "--fixtures", str(FIXTURES / "knowledge.json"), "--output", str(ann))
        lines = [json.loads(l) for l in ann.read_text().strip().split("\n")]
        idx = next(i for i, rec in enumerate(lines) if not rec["triples"])
        assert run_cli("kgraph", "dump", "--input", str(ann), "--record", str(idx)) == 2

    def test_kgraph_dump_bad_index_is_usage_error(self, data_dir):
        assert run_cli("kgraph", "dump", "--input", str(data_dir / "train.jsonl"),
                       "--record", "9999") == 1


@pytest.fixture()
def paths(tmp_path):
    """A tiny plain checkpoint (max_len 16), one input record and the output path."""
    from punchgen.config import ModelConfig
    from punchgen.corpus import JokeRecord, write_jsonl
    from punchgen.model import Model, init_params, save_checkpoint
    from punchgen.tokenizer import train_tokenizer

    cfg = ModelConfig(d_model=8, n_blocks=1, n_heads=2, d_ff=16, vocab_size=300,
                      max_len=16, dropout=0.0)
    tok = train_tokenizer(["the cat sat on the mat"], vocab_size=cfg.vocab_size)
    ckpt = tmp_path / "model.ckpt"
    params = init_params(np.random.default_rng(0), cfg, tok.vocab_size, fused=False)
    save_checkpoint(ckpt, Model(params, cfg, tok, fused=False))
    records = tmp_path / "test.jsonl"
    write_jsonl([JokeRecord("the cat sat.", "on the mat")], records)
    return ckpt, records, tmp_path / "hyps.txt"


class TestGenerateFlags:
    def generate(self, paths, *flags):
        ckpt, records, out = paths
        return run_cli("generate", "--ckpt", str(ckpt), "--input", str(records),
                       "--output", str(out), *flags)

    def test_max_len_above_checkpoint_is_usage_error(self, paths, capsys):
        assert self.generate(paths, "--max-len", "17") == 1
        assert "--max-len must be in [1, 16]" in capsys.readouterr().err
        assert not paths[2].exists()
        assert self.generate(paths, "--max-len", "16", "--beam", "1") == 0

    def test_done_event_carries_time_and_rate(self, paths, capsys):
        assert self.generate(paths, "--max-len", "4", "--beam", "2") == 0
        done = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert done["event"] == "generate.done" and done["records"] == 1 and done["beam"] == 2
        assert done["seconds"] > 0
        assert done["records_per_s"] == pytest.approx(1 / done["seconds"])
        assert done["decode_threads"] == 1
        assert_usage(done)

    @pytest.mark.parametrize("records,floor,threads", [(3, None, 1), (1, 0, 1), (3, 0, 2)])
    def test_done_event_counts_decode_threads(self, paths, capsys, monkeypatch, records, floor, threads):
        """Records are shared between two threads when there are several and the model reaches
        autograd's LEAF_FLOOR."""
        from punchgen import autograd as ag
        from punchgen.corpus import JokeRecord, write_jsonl

        write_jsonl([JokeRecord(f"the cat sat {i}.", "on the mat") for i in range(records)], paths[1])
        if floor is not None:
            monkeypatch.setattr(ag, "LEAF_FLOOR", floor)
        assert self.generate(paths, "--max-len", "4", "--beam", "2") == 0
        done = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert (done["event"], done["records"], done["decode_threads"]) == ("generate.done", records, threads)

    def test_zero_beam_is_usage_error(self, paths, capsys):
        assert self.generate(paths, "--max-len", "4", "--beam", "0") == 1
        assert "--beam must be at least 1" in capsys.readouterr().err
        assert not paths[2].exists()


def _openblas(name: str):
    """A function of numpy's bundled OpenBLAS, or None when numpy uses another library."""
    import ctypes

    from numpy._core import _multiarray_umath

    return getattr(ctypes.CDLL(_multiarray_umath.__file__), name, None)


class TestOneBlasThread:
    def test_main_sets_one_openblas_thread(self):
        if _openblas("scipy_openblas_get_num_threads64_") is None:
            pytest.skip("numpy does not bundle scipy-openblas")
        code = ("import sys; sys.path.insert(0, sys.argv[1]); from test_cli import _openblas; "
                "from punchgen import cli; get = _openblas('scipy_openblas_get_num_threads64_'); "
                "cli.main(['evaluate']); print(get())")
        proc = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)],
                              capture_output=True, text=True,
                              env={**subprocess_env(), "OPENBLAS_NUM_THREADS": "2"})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1"]

    def test_generate_bytes_do_not_depend_on_openblas_threads(self, paths):
        ckpt, records, out = paths
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run([sys.executable, "-m", "punchgen.cli", "generate", "--ckpt", str(ckpt),
                                   "--input", str(records), "--output", str(out), "--beam", "3", "--max-len", "8"],
                                  capture_output=True, text=True,
                                  env={**subprocess_env(), "OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.fixture(scope="class")
    def bench_data(self, tmp_path_factory):
        """The benchmark's make_records(0, 24) as both the train and the valid split."""
        from inputs import make_records

        data = tmp_path_factory.mktemp("bench_data")
        lines = "".join(json.dumps(r) + "\n" for r in make_records(0, 24))
        for split in ("train", "valid"):
            (data / f"{split}.jsonl").write_text(lines)
        return data

    @staticmethod
    def pretrain_bytes(data: Path, out: Path, threads: str, through_main: bool) -> bytes:
        """pretrain.best of 3 desk steps on `data`, trained in a child process under
        OPENBLAS_NUM_THREADS=threads; without `through_main`, the command runs without
        `cli.main`, so nothing pins the OpenBLAS pool."""
        argv = ["train", "pretrain", "--data", str(data), "--out", str(out), "--preset", "desk",
                "--max-steps", "3", "--eval-every", "3"]
        run = (["-m", "punchgen.cli"] if through_main else
               ["-c", "import sys; from punchgen import cli; "
                      "args = cli.build_parser().parse_args(sys.argv[1:]); sys.exit(args.fn(args))"])
        proc = subprocess.run([sys.executable, *run, *argv], capture_output=True, text=True,
                              env={**subprocess_env(), "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        return (out / "pretrain.best").read_bytes()

    def test_pretrain_checkpoint_does_not_depend_on_openblas_threads(self, bench_data, tmp_path):
        one, two = (self.pretrain_bytes(bench_data, tmp_path / t, t, through_main=True) for t in "12")
        assert one == two

    def test_unpinned_pretrain_depends_on_openblas_threads(self, bench_data, tmp_path):
        """The control of the test above: without the pin, the same training writes other
        weights at 2 threads than at 1, so a lost pin fails that test."""
        if _openblas("scipy_openblas_get_num_threads64_") is None or (os.cpu_count() or 1) < 2:
            pytest.skip("needs numpy's bundled scipy-openblas and two cores")
        one, two = (self.pretrain_bytes(bench_data, tmp_path / t, t, through_main=False) for t in "12")
        assert one != two


class TestSidecarRecordsWhatRan:
    """A flag wins over the run config, the config fills in an absent flag, and the sidecar says which ran."""

    @pytest.mark.parametrize("source", ["config", "flag"])
    @pytest.mark.parametrize("field,config_value,flag,flag_value", [
        ("dedup_threshold", 0.5, "--dedup-threshold", 0.8),
        ("max_per_entity", 3, "--max-per-entity", 2),
        ("beam", 3, "--beam", 2),
        ("max_decode_len", 6, "--max-len", 5),
    ])
    def test_resolved_value_in_sidecar(self, tmp_path, paths, source, field, config_value,
                                       flag, flag_value):
        from punchgen.config import RunConfig

        cfg = tmp_path / "run.yaml"
        RunConfig(**{field: config_value}).save(cfg)
        extra = ["--config", str(cfg)] + ([flag, str(flag_value)] if source == "flag" else [])
        ckpt, records, hyps = paths
        if field == "dedup_threshold":
            out = tmp_path / "data"
            argv = ["corpus", "build", "--input", str(FIXTURES / "raw_jokes.txt"),
                    "--output-dir", str(out)]
            artifact = out / "train.jsonl"
        elif field == "max_per_entity":
            artifact = tmp_path / "ann.jsonl"
            argv = ["knowledge", "annotate", "--input", str(records),
                    "--fixtures", str(FIXTURES / "knowledge.json"), "--output", str(artifact)]
        else:
            artifact = hyps
            argv = ["generate", "--ckpt", str(ckpt), "--input", str(records), "--output", str(hyps)]
            argv += ["--max-len", "4"] if field == "beam" else ["--beam", "1"]
        assert run_cli(*argv, *extra) == 0
        meta = json.loads(Path(str(artifact) + ".meta.json").read_text())
        assert meta["config"][field] == (flag_value if source == "flag" else config_value)


class TestSidecarRecordsCheckpointModel:
    """Commands that build their model from a checkpoint record its architecture, not the preset's."""

    @pytest.mark.parametrize("command", ["finetune", "generate"])
    def test_model_config_from_checkpoint(self, tmp_path, paths, command):
        import dataclasses

        from punchgen.corpus import JokeRecord, write_jsonl
        from punchgen.model import load_checkpoint

        ckpt, records, hyps = paths
        if command == "finetune":
            data = tmp_path / "data"
            data.mkdir()
            for name in ("train", "valid"):
                write_jsonl([JokeRecord("the cat sat.", "on the mat", [("cat", "sat on", "mat")])],
                            data / f"{name}.jsonl")
            argv = ["train", "finetune", "--data", str(data), "--out", str(tmp_path / "ft"),
                    "--init", str(ckpt), "--max-steps", "1", "--eval-every", "1", "--batch-size", "1"]
            artifact = tmp_path / "ft" / "finetune.best"
        else:
            argv = ["generate", "--ckpt", str(ckpt), "--input", str(records), "--output", str(hyps),
                    "--beam", "1", "--max-len", "4"]
            artifact = hyps
        assert run_cli(*argv, "--preset", "desk") == 0
        meta = json.loads(Path(str(artifact) + ".meta.json").read_text())
        assert meta["config"]["model"] == dataclasses.asdict(load_checkpoint(ckpt)[0].cfg)
        assert meta["config"]["model"]["d_model"] == 8


class TestTrainEvents:
    def test_train_events_carry_tokens_and_rate(self, tmp_path, capsys):
        from punchgen.corpus import JokeRecord, write_jsonl

        data = tmp_path / "data"
        data.mkdir()
        records = [JokeRecord("the cat sat.", "on the mat"), JokeRecord("a dog ran.", "into a bar")]
        for name in ("train", "valid"):
            write_jsonl(records, data / f"{name}.jsonl")
        assert run_cli("train", "pretrain", "--data", str(data), "--out", str(tmp_path / "ckpt"),
                       "--preset", "desk", "--max-steps", "2", "--eval-every", "2", "--batch-size", "2") == 0
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        train = [e for e in events if e.get("split") == "train"]
        assert [e["step"] for e in train] == [1, 2]
        for e in train:
            assert isinstance(e["tokens"], int) and e["tokens"] > 0
            assert e["tokens_per_s"] > 0
        assert all("tokens_per_s" not in e for e in events if e.get("split") == "valid")

    def test_each_stage_closes_with_train_done(self, tmp_path, capsys):
        from punchgen.corpus import JokeRecord, write_jsonl

        data = tmp_path / "data"
        data.mkdir()
        records = [JokeRecord("the cat sat.", "on the mat", [("cat", "sat on", "mat")]),
                   JokeRecord("a dog ran.", "into a bar")]
        for name in ("train", "valid"):
            write_jsonl(records, data / f"{name}.jsonl")
        flags = ("--preset", "desk", "--max-steps", "2", "--eval-every", "1", "--batch-size", "2")
        assert run_cli("train", "pretrain", "--data", str(data), "--out", str(tmp_path / "pre"), *flags) == 0
        assert run_cli("train", "finetune", "--data", str(data), "--out", str(tmp_path / "ft"),
                       "--init", str(tmp_path / "pre" / "pretrain.best"), *flags) == 0
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        done = [e for e in events if e.get("event") == "train.done"]
        assert [e["stage"] for e in done] == ["pretrain", "finetune"]
        for e in done:
            assert e["steps_run"] == 2
            assert math.isfinite(e["best_val_loss"]) and e["peak_rss_mb"] > 0
            assert e["wall_s"] > 0 and e["user_s"] + e["sys_s"] > 0
            assert_usage(e)
            assert e["minor_faults"] == e["minflt"]


class TestFlagChecks:
    """Bad values exit 1 before any input is read or output written."""

    @pytest.mark.parametrize("flag,value,field", [
        ("--batch-size", "0", "batch_size"),
        ("--learning-rate", "-1", "learning_rate"),
        ("--eval-every", "0", "eval_every"),
        ("--max-steps", "0", "max_steps"),
    ])
    def test_bad_train_override_is_usage_error(self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "ckpt"
        code = run_cli("train", "pretrain", "--data", str(tmp_path / "missing"),
                       "--out", str(out), flag, value)
        assert code == 1
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_zero_max_per_entity_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        code = run_cli("knowledge", "annotate", "--input", str(tmp_path / "missing.jsonl"),
                       "--fixtures", str(FIXTURES / "knowledge.json"), "--output", str(out),
                       "--max-per-entity", "0")
        assert code == 1
        assert "--max-per-entity must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_workers_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        code = run_cli("knowledge", "annotate", "--input", str(tmp_path / "missing.jsonl"),
                       "--fixtures", str(FIXTURES / "knowledge.json"), "--output", str(out),
                       "--workers", "0")
        assert code == 1
        assert "--workers must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_train_split_fails_before_the_tokenizer(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "train.jsonl").write_text("")
        (data / "valid.jsonl").write_text("")
        out = tmp_path / "ckpt"
        assert run_cli("train", "pretrain", "--data", str(data), "--out", str(out)) == 2
        assert "has no records to train on" in capsys.readouterr().err
        assert not (out / "tokenizer.bpe").exists()

    @pytest.mark.parametrize("value", ["0", "1.5"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_dedup_threshold_is_usage_error(self, tmp_path, capsys, source, value):
        from punchgen.config import RunConfig

        out = tmp_path / "data"
        if source == "flag":
            extra = ["--dedup-threshold", value]
        else:
            cfg = tmp_path / "run.yaml"
            RunConfig(dedup_threshold=float(value)).save(cfg)
            extra = ["--config", str(cfg)]
        # the input does not exist: reading it first would exit 2, not 1
        code = run_cli("corpus", "build", "--input", str(tmp_path / "missing.txt"),
                       "--output-dir", str(out), *extra)
        assert code == 1
        assert "dedup threshold must be in (0, 1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc,field", [
        ({"model": {"dropout": 1.5}}, "dropout"),
        ({"train": {"clip_norm": -1.0}}, "clip_norm"),
        ({"train": {"beta1": 1.0}}, "beta1"),
        ({"model": {"leaky_slope": 0.2}}, "leaky_slope"),  # no longer a field
        ({"beams": 3}, "beams"),  # not a field
        (["beam", 3], "mapping"),
    ])
    def test_bad_config_file_is_usage_error(self, tmp_path, capsys, doc, field):
        import yaml

        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        out = tmp_path / "ckpt"
        # the data directory does not exist: reading it first would exit 2, not 1
        code = run_cli("train", "pretrain", "--data", str(tmp_path / "missing"), "--out", str(out),
                       "--config", str(cfg))
        assert code == 1
        assert field in capsys.readouterr().err
        assert not out.exists()


class TestEvaluateCli:
    def test_table_and_json_modes(self, tmp_path, capsys):
        hyps = tmp_path / "h.txt"
        refs = tmp_path / "r.txt"
        hyps.write_text("the cat sat\n")
        refs.write_text("the cat sat\n")
        assert run_cli("evaluate", "--hyps", str(hyps), "--refs", str(refs)) == 0
        out = capsys.readouterr().out
        assert "ROUGE-1" in out and "100.00" in out
        report = tmp_path / "report.json"
        assert run_cli("evaluate", "--hyps", str(hyps), "--refs", str(refs),
                       "--json", "--output", str(report)) == 0
        data = json.loads(report.read_text())
        assert data["rouge1"]["f1"] == 100.0

    def test_done_event_carries_scores_time_and_rate(self, tmp_path, capsys):
        hyps = tmp_path / "h.txt"
        refs = tmp_path / "r.txt"
        hyps.write_text("the cat sat\na dog\n")
        refs.write_text("the cat sat\na cat\n")
        assert run_cli("evaluate", "--hyps", str(hyps), "--refs", str(refs)) == 0
        done = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert done["event"] == "evaluate.done" and done["n_lines"] == 2
        assert done["rouge1"]["f1"] == pytest.approx(75.0)
        assert done["seconds"] > 0
        assert done["lines_per_s"] == pytest.approx(2 / done["seconds"])
        assert_usage(done)

    def test_empty_files_report_float_scores(self, tmp_path, capsys):
        hyps = tmp_path / "h.txt"
        refs = tmp_path / "r.txt"
        hyps.write_text("")
        refs.write_text("")
        assert run_cli("evaluate", "--hyps", str(hyps), "--refs", str(refs), "--json") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n_lines"] == 0
        for name in ("rouge1", "rouge2", "rougeL"):
            for field in ("precision", "recall", "f1"):
                assert type(data[name][field]) is float and data[name][field] == 0.0

    def test_line_mismatch_is_runtime_error(self, tmp_path):
        hyps = tmp_path / "h.txt"
        refs = tmp_path / "r.txt"
        hyps.write_text("one\n")
        refs.write_text("one\ntwo\n")
        assert run_cli("evaluate", "--hyps", str(hyps), "--refs", str(refs)) == 2


class TestConfigPlumbing:
    def test_config_file_round_trip(self, tmp_path):
        from punchgen.config import RunConfig, preset

        cfg = preset("desk")
        cfg.train.max_steps = 11
        path = tmp_path / "run.yaml"
        cfg.save(path)
        back = RunConfig.load(path)
        assert back.model.d_model == 64 and back.train.max_steps == 11

    def test_paper_preset_values(self):
        from punchgen.config import preset

        cfg = preset("paper")
        assert (cfg.model.d_model, cfg.model.n_blocks, cfg.model.n_heads,
                cfg.model.d_ff) == (512, 4, 8, 2048)
        assert cfg.model.vocab_size == 25000
        assert cfg.train.batch_size == 16 and cfg.train.learning_rate == 0.001
        assert cfg.beam == 5

    @pytest.mark.parametrize("field", ["max_steps", "eval_every", "patience"])
    def test_train_config_rejects_counts_below_one(self, field):
        from punchgen.config import TrainConfig

        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: 0})

    @pytest.mark.parametrize("field,value", [
        ("clip_norm", 0.0), ("clip_norm", -1.0), ("beta1", 1.0), ("beta1", -0.1),
        ("beta2", 1.0), ("eps", 0.0),
    ])
    def test_train_config_rejects_optimizer_values(self, field, value):
        from punchgen.config import TrainConfig

        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [1.0, 1.5, -0.1])
    def test_model_config_rejects_dropout_outside_unit_interval(self, value):
        from punchgen.config import ModelConfig

        with pytest.raises(ValueError, match="dropout"):
            ModelConfig(dropout=value)

    def test_unknown_preset(self):
        from punchgen.config import preset

        with pytest.raises(ValueError):
            preset("napkin")
