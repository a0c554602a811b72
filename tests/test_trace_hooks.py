"""The per-layer bench patches punchgen functions by name; a rename must fail here."""

from punchgen import decoding, model
from punchgen.corpus import JokeRecord
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
