"""The per-layer bench patches punchgen functions by name; a rename must fail here."""

from punchgen import decoding, evaluation, model
from punchgen.corpus import JokeRecord, write_jsonl
from punchgen.selftest import desk_model

from perfbench.tracing import Tracer


def test_tracer_installs_runs_and_uninstalls():
    originals = (decoding.beam_search, decoding.decode_record, model.Model.decode_step,
                 model.init_node_features, model.encode_knowledge)
    lm = desk_model(seed=1, fused=True)
    rec = JokeRecord("the dog chewed the remote,", "x.", [("dog", "chews", "remote")])
    tracer = Tracer()
    try:
        tracer.install()  # AttributeError when a hooked name is gone
        text = tracer.run_phase("generate", lambda: decoding.decode_record(lm, rec, beam=3, max_len=6))
    finally:
        tracer.uninstall()
    assert (decoding.beam_search, decoding.decode_record, model.Model.decode_step,
            model.init_node_features, model.encode_knowledge) == originals
    assert isinstance(text, str)
    table = tracer.table()
    for name in ("decoding.decode_record", "decoding.beam_search", "model.encode_setup",
                 "model.encode_triples", "kgraph.node_init", "graph_encoder.gat",
                 "model.decode_step", "model.decode_states"):
        assert table[("generate", name)]["calls"] >= 1, name
    # one batched decoder call per search step, its detail the live-hypothesis count
    steps = [s for s in tracer.spans if s[0] == "model.decode_step"]
    assert 1 <= len(steps) <= 6
    assert all(1 <= s[5] <= 3 for s in steps)
    assert 1 <= tracer.notes["decoded_tokens"] <= len(steps)


def test_rouge_and_generate_phases_keep_the_rows_the_bench_reads(tmp_path):
    """`perfbench/tracing.py` reads these spans; without them a `--trace 1` run reports nothing or fails."""
    lm = desk_model(seed=1, fused=True)
    records = tmp_path / "test.jsonl"
    write_jsonl([JokeRecord("the dog chewed the remote,", "x.", [("dog", "chews", "remote")]),
                 JokeRecord("a cat sat,", "on the mat.")], records)
    tracer = Tracer()
    try:
        tracer.install()
        tracer.run_phase("rouge", lambda: evaluation.evaluate_lines(["the cat sat", "a dog"],
                                                                    ["the cat", "a dog ran"]))
        tracer.run_phase("generate", lambda: decoding.generate_file(records, lm, tmp_path / "hyps.txt",
                                                                    beam=2, max_len=4))
    finally:
        tracer.uninstall()
    table = tracer.table()
    assert table[("rouge", "evaluation.rouge_n")]["calls"] >= 1
    assert table[("rouge", "kernels.lcs")]["calls"] == 2  # one per line pair
    # the bench divides the generate rows by these calls: one per record
    assert table[("generate", "decoding.decode_record")]["calls"] == 2
