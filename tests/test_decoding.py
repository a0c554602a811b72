import contextlib
import dataclasses
import itertools
import sys
import threading
import time

import numpy as np
import pytest

from punchgen import autograd as ag
from punchgen import decoding
from punchgen.config import ModelConfig
from punchgen.corpus import JokeRecord, write_jsonl
from punchgen.decoding import (
    BeamHypothesis,
    beam_search,
    decode_record,
    generate_file,
    model_step_fn,
)
from punchgen.model import DecoderCache, Model, init_params
from punchgen.selftest import desk_model
from punchgen.tokenizer import train_tokenizer
from suite_support import FIXTURES, fixture_records

# generate_file's text from before decoding ran on packed rows, which reproduce it byte for byte
FROZEN_TEXT = FIXTURES / "generated_desk_fused.txt"
TINY = ModelConfig(d_model=8, n_blocks=1, n_heads=2, d_ff=16, vocab_size=300,
                   max_len=80, dropout=0.0)

# toy vocabulary: 0 = EOS, 1 = "a", 2 = "b"; distributions indexed by the
# generated prefix (BOS excluded). Crafted so greedy takes "a" first while
# the globally best sequence starts with "b".
TOY_BOS, TOY_EOS = 9, 0
TOY_TABLE = {
    (): np.array([0.002, 0.598, 0.400]),
    (1,): np.array([0.340, 0.330, 0.330]),
    (2,): np.array([0.990, 0.005, 0.005]),
}
TOY_DEFAULT = np.array([0.980, 0.010, 0.010])


def toy_step(prefixes, parents=None):
    """Batched contract: (k, t) prefixes -> (k, 3) log-probabilities; parents are ignored."""
    return np.log([TOY_TABLE.get(tuple(p[1:]), TOY_DEFAULT) for p in np.asarray(prefixes).tolist()])


def toy_sequence_logprob(seq):
    total = 0.0
    for i, tok in enumerate(seq):
        total += toy_step([[TOY_BOS, *seq[:i]]])[0][tok]
    return total


def enumerate_toy_sequences(max_len):
    """All sequences the search can return: EOS-terminated or cut at max_len."""
    out = []
    for length in range(1, max_len + 1):
        for body in itertools.product([1, 2], repeat=length - 1):
            out.append(tuple(body) + (TOY_EOS,))
    out.extend(itertools.product([1, 2], repeat=max_len))
    return out


class TestToyBeam:
    def test_greedy_falls_into_trap(self):
        best = beam_search(toy_step, TOY_BOS, TOY_EOS, beam=1, max_len=3)
        assert best.tokens[1:] == [1, TOY_EOS]

    def test_beam_two_recovers_global_optimum(self):
        best = beam_search(toy_step, TOY_BOS, TOY_EOS, beam=2, max_len=3)
        assert best.tokens[1:] == [2, TOY_EOS]
        exhaustive = max(enumerate_toy_sequences(3), key=toy_sequence_logprob)
        assert tuple(best.tokens[1:]) == exhaustive
        assert abs(best.logprob - toy_sequence_logprob(exhaustive)) < 1e-12

    def test_wider_beam_never_scores_worse_raw(self):
        scores = []
        for beam in range(1, 9):
            best = beam_search(toy_step, TOY_BOS, TOY_EOS, beam=beam, max_len=4,
                               length_normalize=False)
            scores.append(best.logprob)
        assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))
        exhaustive = max(toy_sequence_logprob(s) for s in enumerate_toy_sequences(4))
        assert abs(scores[-1] - exhaustive) < 1e-12

    def test_monotone_logprob_along_hypothesis(self):
        best = beam_search(toy_step, TOY_BOS, TOY_EOS, beam=3, max_len=4)
        running = 0.0
        for i in range(1, len(best.tokens)):
            running += toy_step([best.tokens[:i]])[0][best.tokens[i]]
            assert running <= 1e-12
        assert best.logprob <= 0.0

    def test_beam_must_be_positive(self):
        with pytest.raises(ValueError):
            beam_search(toy_step, TOY_BOS, TOY_EOS, beam=0)

    def test_max_len_forces_termination(self):
        never_end = lambda prefixes, parents: np.log(np.tile([1e-9, 0.5, 0.5 - 1e-9], (len(prefixes), 1)))
        best = beam_search(never_end, TOY_BOS, TOY_EOS, beam=2, max_len=5)
        assert best.finished and len(best.tokens) == 6

    @pytest.mark.parametrize("beam,max_len", [(1, 3), (3, 4), (8, 5)])
    def test_one_step_call_per_search_step(self, beam, max_len):
        calls = []

        def counting_step(prefixes, parents):
            calls.append(np.asarray(prefixes).shape)
            return toy_step(prefixes)

        beam_search(counting_step, TOY_BOS, TOY_EOS, beam=beam, max_len=max_len)
        assert 1 <= len(calls) <= max_len
        # call i carries every live prefix of search step i, each i + 1 tokens long
        assert [t for _, t in calls] == list(range(1, len(calls) + 1))
        assert all(1 <= k <= beam for k, _ in calls)

    @pytest.mark.parametrize("beam", range(1, 9))
    def test_parents_name_each_rows_previous_row(self, beam):
        calls = []
        rng = np.random.default_rng(beam)

        def recording_step(prefixes, parents):
            calls.append((prefixes.copy(), parents))
            return np.log(rng.dirichlet(np.ones(4), size=len(prefixes)))  # EOS and 3 tokens

        beam_search(recording_step, TOY_BOS, TOY_EOS, beam=beam, max_len=6)
        assert calls[0][1] is None
        for (previous, _), (prefixes, parents) in zip(calls, calls[1:]):
            assert parents.shape == prefixes.shape[:1]
            np.testing.assert_array_equal(prefixes[:, :-1], previous[parents])
        # hypotheses finished early: some call has fewer rows than the beam can fill, or the search stopped
        assert len(calls) < 6 or any(len(p) < min(beam, 4 ** i) for i, (p, _) in enumerate(calls))


def reference_decode(model, rec, beam, max_len):
    """Beam search one prefix at a time, each scored from teacher-forced decoder states."""
    tok = model.tokenizer
    with ag.no_grad():
        memory = model.encode_setup(tok.encode(rec.setup))
        knowledge = model.encode_triples(rec.triples) if model.fused else None
        beams = [([tok.bos_id], 0.0, False)]
        for _ in range(max_len):
            if all(done for _, _, done in beams):
                break
            pool = [b for b in beams if b[2]]
            for prefix, score, done in beams:
                if done:
                    continue
                logits = model.logits(model.decode_states(prefix, memory, knowledge)).data[-1]
                shifted = logits - logits.max()
                logp = shifted - np.log(np.exp(shifted).sum())
                for t in np.argsort(-logp, kind="stable")[:beam]:
                    pool.append((prefix + [int(t)], score + logp[t], int(t) == tok.eos_id))
            pool.sort(key=lambda b: -b[1])
            beams = pool[:beam]
    best = max(beams, key=lambda b: b[1] / max(len(b[0]) - 1, 1))
    return tok.decode(best[0])


TEXTS = ["the cat sat on the mat", "a dog walked into a bar", "beep boop"]


@pytest.fixture(scope="module")
def model():
    tok = train_tokenizer(TEXTS, vocab_size=300)
    rng = np.random.default_rng(3)
    return Model(init_params(rng, TINY, tok.vocab_size, fused=True), TINY, tok, fused=True)


class TestModelBeam:
    def test_beam_one_equals_greedy(self, model):
        tok = model.tokenizer
        rng = np.random.default_rng(5)
        for _ in range(10):
            ids = rng.integers(4, tok.vocab_size, size=4)
            memory = model.encode_setup(ids)
            step = model_step_fn(model, memory, None)
            best = beam_search(step, tok.bos_id, tok.eos_id, beam=1, max_len=8)
            greedy = [tok.bos_id]
            for _ in range(8):
                nxt = int(np.argmax(step(np.array([greedy]), None if len(greedy) == 1 else [0])[0]))
                greedy.append(nxt)
                if nxt == tok.eos_id:
                    break
            assert best.tokens == greedy

    def test_deterministic(self, model):
        rec = JokeRecord("the cat sat on the mat,", "a dog walked.",
                         [("cat", "sits on", "mat")])
        a = decode_record(model, rec, beam=3, max_len=8)
        b = decode_record(model, rec, beam=3, max_len=8)
        assert a == b

    def test_search_score_matches_rescoring(self, model):
        tok = model.tokenizer
        rec = JokeRecord("the cat sat,", "x.", [("cat", "sits on", "mat")])
        memory = model.encode_setup(tok.encode(rec.setup))
        knowledge = model.encode_triples(rec.triples)
        best = beam_search(model_step_fn(model, memory, knowledge),
                           tok.bos_id, tok.eos_id, beam=3, max_len=8)
        with ag.no_grad():
            loss, _ = model.sequence_loss(tok.encode(rec.setup), best.tokens, rec.triples)
        assert abs(best.logprob + float(loss.data)) < 1e-5

    def test_decode_record_matches_per_hypothesis_reference(self):
        """The batched search picks what a one-prefix-at-a-time search over teacher-forced states picks."""
        model = desk_model(seed=2, fused=True)
        for rec in REFERENCE_RECORDS:
            for beam in (1, 3, 5):
                got = decode_record(model, rec, beam=beam, max_len=12)
                assert got == reference_decode(model, rec, beam, max_len=12)


REFERENCE_RECORDS = [JokeRecord("the dog chewed the remote,", "x.", [("dog", "chews", "remote")]),
                     JokeRecord("why did the cat sit on the mat,", "y.", []),
                     JokeRecord("a man walked into a bar,", "z.",
                                [("man", "walks into", "bar"), ("bar", "serves", "beer")])]


def encode_record(model, rec):
    with ag.no_grad():
        memory = model.encode_setup(model.tokenizer.encode(rec.setup))
        return memory, model.encode_triples(rec.triples) if rec.triples else None


def uncached_step_fn(model, memory, knowledge):
    """model_step_fn without the decoder cache: every call runs every prefix in full."""
    def step(prefixes, parents):
        with ag.no_grad():
            dist = model.decode_step(prefixes, memory, knowledge)
        with np.errstate(divide="ignore"):
            return np.log(dist)

    return step


class TestDecoderCache:
    @pytest.fixture(scope="class")
    def desk(self):
        return desk_model(seed=2, fused=True)

    def test_cached_search_matches_uncached(self, desk):
        tok = desk.tokenizer
        for rec in REFERENCE_RECORDS:
            memory, knowledge = encode_record(desk, rec)
            for beam in (1, 3, 5):
                got = beam_search(model_step_fn(desk, memory, knowledge), tok.bos_id, tok.eos_id,
                                  beam=beam, max_len=12)
                want = beam_search(uncached_step_fn(desk, memory, knowledge), tok.bos_id, tok.eos_id,
                                   beam=beam, max_len=12)
                assert got.tokens == want.tokens

    def test_cached_steps_match_uncached_distributions(self, desk, monkeypatch):
        """After the first step a cached call decodes one position per row, and agrees to 1e-12."""
        tok = desk.tokenizer
        widths = []
        decode_states = desk.decode_states

        def counting_states(ids, *args, **kwargs):
            widths.append(np.shape(ids)[-1])
            return decode_states(ids, *args, **kwargs)

        monkeypatch.setattr(desk, "decode_states", counting_states)
        for rec in REFERENCE_RECORDS:
            memory, knowledge = encode_record(desk, rec)
            cached = model_step_fn(desk, memory, knowledge)

            def step(prefixes, parents):
                got = cached(prefixes, parents)
                with ag.no_grad():
                    want = desk.decode_step(prefixes, memory, knowledge)
                np.testing.assert_allclose(np.exp(got), want, rtol=0, atol=1e-12)
                return got

            widths.clear()
            beam_search(step, tok.bos_id, tok.eos_id, beam=5, max_len=12)
            steps = len(widths) // 2
            assert steps > 1
            # cached and uncached calls alternate; the cached ones run one position after the first
            assert widths[0::2] == [1] * steps
            assert widths[1::2] == list(range(1, steps + 1))

    def test_select_swaps_repeats_and_drops_rows(self, desk):
        memory, knowledge = encode_record(desk, REFERENCE_RECORDS[2])
        bos = desk.tokenizer.bos_id
        prefixes = np.array([[bos, 5, 6], [bos, 7, 8], [bos, 9, 4]])
        cache = DecoderCache()
        with ag.no_grad():
            desk.decode_step(prefixes, memory, knowledge, cache)
        for rows, new in (([2, 0, 1], [10, 11, 12]),   # rows swapped
                          ([1, 1, 0, 2], [4, 5, 6, 7]),  # a row repeated
                          ([3, 0], [8, 9]),              # rows dropped
                          ([1], [5])):                   # one row left
            cache.select(rows)
            assert cache.length == prefixes.shape[1]
            prefixes = np.column_stack([prefixes[rows], new])
            with ag.no_grad():
                got = desk.decode_step(prefixes[:, -1:], memory, knowledge, cache)
                want = desk.decode_step(prefixes, memory, knowledge)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            assert cache.length == prefixes.shape[1]


class TestGenerateFile:
    def test_empty_in_empty_out(self, model, tmp_path):
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.txt"
        inp.write_text("")
        n = generate_file(inp, model, out, beam=2, max_len=6)
        assert n == 0 and out.read_text() == ""

    def test_line_counts_and_refs(self, model, tmp_path):
        recs = [JokeRecord(f"the cat sat {i},", f"punch {i}.") for i in range(4)]
        inp, out, refs = tmp_path / "in.jsonl", tmp_path / "out.txt", tmp_path / "refs.txt"
        write_jsonl(recs, inp)
        n = generate_file(inp, model, out, beam=2, max_len=6, refs_path=refs)
        assert n == 4
        assert len(out.read_text().split("\n")) == 5  # 4 lines + trailing newline
        assert refs.read_text() == "".join(f"punch {i}.\n" for i in range(4))

    def test_newline_in_hypothesis_becomes_space(self, model, tmp_path, monkeypatch):
        monkeypatch.setattr(decoding, "decode_record", lambda *args, **kw: "two\nlines")
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.txt"
        write_jsonl([JokeRecord("the cat sat,", "a dog.")] * 2, inp)
        assert generate_file(inp, model, out, beam=2, max_len=6) == 2
        assert out.read_text() == "two lines\ntwo lines\n"

    def test_fixture_text_is_frozen(self, tmp_path):
        """A seeded desk fused model decodes the fixture records to the committed bytes.

        A change to decoding that moves a token shows here. The model is untrained, so the
        text is not words; what counts is that it does not drift.
        A change meant to move tokens rewrites the file, and says why.
        """
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.txt"
        write_jsonl(fixture_records(32), inp)
        assert generate_file(inp, desk_model(seed=0, fused=True), out, beam=5, max_len=16) == 32
        got, want = out.read_bytes().splitlines(), FROZEN_TEXT.read_bytes().splitlines()
        assert [i for i, (a, b) in enumerate(zip(got, want)) if a != b] == []
        assert len(got) == len(want)


class TestHypothesisInvariants:
    def test_score_normalization(self):
        h = BeamHypothesis(tokens=[9, 1, 2, 0], logprob=-3.0)
        assert h.score(length_normalize=True) == -1.0
        assert h.score(length_normalize=False) == -3.0


def test_setup_without_tokens_is_named(tmp_path):
    model = desk_model(seed=0, fused=True)
    with pytest.raises(ValueError, match="set-up encodes to no tokens"):
        model.encode_setup([])
    path = tmp_path / "test.jsonl"
    write_jsonl([JokeRecord("the dog chewed the remote,", "x."), JokeRecord("", "x.")], path)
    with pytest.raises(ValueError, match=r"record 2: set-up encodes to no tokens"):
        generate_file(path, model, tmp_path / "hyps.txt", beam=2, max_len=4)


def test_prefix_over_max_len_is_named(tmp_path):
    cfg = dataclasses.replace(TINY, max_len=8)
    tok = train_tokenizer(TEXTS, vocab_size=300)
    model = Model(init_params(np.random.default_rng(3), cfg, tok.vocab_size, fused=True), cfg, tok, fused=True)
    path = tmp_path / "test.jsonl"
    write_jsonl([JokeRecord("the cat sat,", "x.")], path)
    assert generate_file(path, model, tmp_path / "hyps.txt", beam=2, max_len=7) == 1
    with pytest.raises(ValueError, match=r"record 1: prefix has 9 tokens, max is 8"):
        generate_file(path, model, tmp_path / "hyps.txt", beam=2, max_len=9)


def two_thread_records(n):
    """n records, every other one with triples."""
    return [JokeRecord(f"the cat sat on the mat {i},", f"punch {i}.",
                       [("cat", "sits on", "mat")] if i % 2 == 0 else []) for i in range(n)]


class TestTwoThreads:
    """generate_file with autograd.LEAF_FLOOR at 0, so that every model shares its records."""

    @staticmethod
    def steer(monkeypatch, first):
        """Make `first` ("caller" or "worker") take record 1 and the other thread record 2; return
        the list of (record set-up, thread name) that decode_record calls append to.

        The other thread starts once `first` has taken its record, and each thread's first
        decode_record waits until both have taken one; then `first` waits 50 ms more, so that
        record 1 finishes, or fails, after record 2.
        """
        decode, beside = decoding.decode_record, ag.beside
        calls, both = [], threading.Barrier(2, timeout=10)
        first_took = threading.Event()

        def steered_decode(model, rec, **options):
            name = threading.current_thread().name
            is_first = (threading.current_thread() is threading.main_thread()) == (first == "caller")
            calls.append((rec.setup, name))
            if is_first:
                first_took.set()
            if [n for _, n in calls].count(name) == 1:
                both.wait()
                if is_first:
                    time.sleep(0.05)
            return decode(model, rec, **options)

        @contextlib.contextmanager
        def steered_beside(on=True):
            """beside, where the job starts once the caller took a record (first "caller"), or
            the caller goes on once the job took one (first "worker")."""
            with beside(on) as submit:
                def steered_submit(fn):
                    if first == "worker":
                        got = submit(fn)
                        assert first_took.wait(10)
                        return got

                    def later():
                        assert first_took.wait(10)
                        return fn()

                    return submit(later)

                yield steered_submit

        monkeypatch.setattr(decoding, "decode_record", steered_decode)
        monkeypatch.setattr(ag, "beside", steered_beside)
        return calls

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_output_is_byte_identical_to_serial(self, model, tmp_path, monkeypatch, n):
        inp = tmp_path / "in.jsonl"
        write_jsonl(two_thread_records(n), inp)
        assert decoding.decode_threads(model, n) == 1
        assert generate_file(inp, model, tmp_path / "serial.txt", beam=3, max_len=8) == n
        monkeypatch.setattr(ag, "LEAF_FLOOR", 0)
        assert decoding.decode_threads(model, n) == min(n, 2)
        calls = self.steer(monkeypatch, "caller") if n > 1 else []
        assert generate_file(inp, model, tmp_path / "shared.txt", beam=3, max_len=8) == n
        assert (tmp_path / "shared.txt").read_bytes() == (tmp_path / "serial.txt").read_bytes()
        if n > 1:  # each record decoded once, and both threads decoded some
            assert sorted(setup for setup, _ in calls) == sorted(r.setup for r in two_thread_records(n))
            assert len({name for _, name in calls}) == 2

    @pytest.mark.parametrize("first", ["caller", "worker"])
    def test_failing_record_is_named_on_either_thread(self, model, tmp_path, monkeypatch, first):
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.txt"
        write_jsonl([JokeRecord("the cat sat,", "x."), JokeRecord("", "y.")]
                    + [JokeRecord(f"a dog ran {i},", "z.") for i in range(2)], inp)
        monkeypatch.setattr(ag, "LEAF_FLOOR", 0)
        calls = self.steer(monkeypatch, first)
        with pytest.raises(ValueError, match=r"in.jsonl, record 2: set-up encodes to no tokens"):
            generate_file(inp, model, out, beam=2, max_len=6)
        bad_thread = dict(calls)[""]
        assert bad_thread.startswith("autograd") == (first == "caller")
        # record 2 failed while record 1 ran; the thread of record 1 then started no record
        assert len(calls) == 2
        assert not out.exists()

    @pytest.mark.parametrize("first", ["caller", "worker"])
    def test_two_failing_records_name_the_lower(self, model, tmp_path, monkeypatch, first):
        inp = tmp_path / "in.jsonl"
        write_jsonl([JokeRecord("", "x."), JokeRecord("", "y."), JokeRecord("the cat sat,", "z.")], inp)
        monkeypatch.setattr(ag, "LEAF_FLOOR", 0)
        calls = self.steer(monkeypatch, first)
        with pytest.raises(ValueError, match=r"record 1: set-up encodes to no tokens"):
            generate_file(inp, model, tmp_path / "out.txt", beam=2, max_len=6)
        assert len(calls) == 2  # once both had failed, no thread started record 3
        assert not (tmp_path / "out.txt").exists()

    def test_desk_model_decodes_on_the_calling_thread(self, tmp_path, monkeypatch):
        desk = desk_model(seed=1, fused=True)
        assert decoding.decode_threads(desk, 3) == 1
        decode, threads = decoding.decode_record, []

        def recording(*args, **kwargs):
            threads.append(threading.current_thread())
            return decode(*args, **kwargs)

        monkeypatch.setattr(decoding, "decode_record", recording)
        inp = tmp_path / "in.jsonl"
        write_jsonl(two_thread_records(3), inp)
        assert generate_file(inp, desk, tmp_path / "out.txt", beam=2, max_len=6) == 3
        assert threads == [threading.main_thread()] * 3

    def test_concurrent_calls_share_the_worker(self, model, tmp_path, monkeypatch):
        """Four threads (more than the cores) generate at once through the one worker, with a
        short switch interval; each writes the serial output, every record decoded once."""
        inp = tmp_path / "in.jsonl"
        write_jsonl(two_thread_records(6), inp)
        generate_file(inp, model, tmp_path / "serial.txt", beam=2, max_len=6)
        want = (tmp_path / "serial.txt").read_bytes()
        monkeypatch.setattr(ag, "LEAF_FLOOR", 0)
        decode, calls = decoding.decode_record, []

        def counting(model, rec, **options):
            calls.append(rec.setup)
            return decode(model, rec, **options)

        monkeypatch.setattr(decoding, "decode_record", counting)
        outputs = []

        def run(k):
            for r in range(5):
                out = tmp_path / f"out{k}.{r}.txt"
                generate_file(inp, model, out, beam=2, max_len=6)
                outputs.append(out.read_bytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert outputs == [want] * 20
        assert sorted(calls) == sorted(r.setup for r in two_thread_records(6) for _ in range(20))
