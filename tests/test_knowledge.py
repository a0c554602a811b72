import json
import logging
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import pytest

from punchgen.corpus import JokeRecord
from punchgen.knowledge import (
    EndpointUnavailable,
    EntityMention,
    FixtureProvider,
    HttpLinker,
    LinkerUnavailable,
    MalformedResponse,
    SparqlTripleStore,
    Triple,
    _ResponseCache,
    annotate_dataset,
    fetch_triples,
    link_entities,
)

FIXTURE = {
    "mentions": {
        "Jobs founded Apple.": [
            {"surface": "Jobs", "concept_id": "Steve_Jobs", "confidence": 0.6},
            {"surface": "Apple", "concept_id": "Apple_Inc", "confidence": 0.5},
        ],
        "Trump wants to cut funding for birth control.": [
            {"surface": "Trump", "concept_id": "Donald_Trump", "confidence": 0.7},
            {"surface": "birth control", "concept_id": "Birth_control", "confidence": 0.3},
        ],
        "low confidence only.": [
            {"surface": "low", "concept_id": "Low", "confidence": 0.1},
        ],
    },
    "triples": {
        "Steve_Jobs": [["Steve Jobs", "occupation", "entrepreneur"]],
        "Apple_Inc": [["Apple Inc", "instance of", "business"]],
        "Donald_Trump": [
            ["Donald Trump", "field of work", "politics"],
            ["Donald Trump", "position held", "President of the United States"],
        ],
        "Birth_control": [["Birth control", "part of", "human population planning"]],
        "Cocaine": [
            ["Cocaine", "instance of", "drug"],
            ["Cocaine", "medical condition treated", "pain"],
            ["Cocaine", "Description", "strong stimulant used as a recreational drug"],
        ],
    },
}


@pytest.fixture()
def fixture_provider(tmp_path):
    path = tmp_path / "knowledge.json"
    path.write_text(json.dumps(FIXTURE))
    return FixtureProvider(path)


class TestLinkEntities:
    def test_fixture_linking(self, fixture_provider):
        mentions = link_entities("Jobs founded Apple.", fixture_provider)
        assert [m.concept_id for m in mentions] == ["Steve_Jobs", "Apple_Inc"]
        assert [m.confidence for m in mentions] == [0.6, 0.5]

    def test_confidence_floor_is_strict(self, fixture_provider):
        assert link_entities("low confidence only.", fixture_provider) == []

    def test_no_linkable_spans(self, fixture_provider):
        assert link_entities("nothing known here.", fixture_provider) == []


class TestFetchTriples:
    def test_trump_fixture(self, fixture_provider):
        m = EntityMention("Trump", "Donald_Trump", 0.7)
        triples = fetch_triples(m, fixture_provider)
        assert ("Donald Trump", "position held", "President of the United States") in triples

    def test_cocaine_fixture(self, fixture_provider):
        m = EntityMention("Cocaine", "Cocaine", 0.9)
        triples = fetch_triples(m, fixture_provider)
        assert ("Cocaine", "instance of", "drug") in triples
        assert ("Cocaine", "Description",
                "strong stimulant used as a recreational drug") in triples

    def test_cap_enforced(self, fixture_provider):
        m = EntityMention("Cocaine", "Cocaine", 0.9)
        assert len(fetch_triples(m, fixture_provider, max_per_entity=1)) == 1

    def test_cap_validation(self, fixture_provider):
        with pytest.raises(ValueError):
            fetch_triples(EntityMention("x", "X", 0.5), fixture_provider, max_per_entity=0)


class TestAnnotate:
    def test_no_mentions_keeps_empty(self, fixture_provider):
        rec = JokeRecord("nothing known here.", "punch.")
        out = annotate_dataset([rec], fixture_provider, fixture_provider)
        assert out[0].triples == []

    def test_shared_triple_appears_once(self, tmp_path):
        fx = {
            "mentions": {"s.": [
                {"surface": "a", "concept_id": "A", "confidence": 0.5},
                {"surface": "b", "concept_id": "B", "confidence": 0.5},
            ]},
            "triples": {"A": [["x", "r", "y"]], "B": [["x", "r", "y"], ["x", "r2", "z"]]},
        }
        path = tmp_path / "fx.json"
        path.write_text(json.dumps(fx))
        provider = FixtureProvider(path)
        out = annotate_dataset([JokeRecord("s.", "p.")], provider, provider)
        assert out[0].triples == [("x", "r", "y"), ("x", "r2", "z")]

    def test_trump_record_carries_fixture_triples(self, fixture_provider):
        rec = JokeRecord("Trump wants to cut funding for birth control.", "p.")
        out = annotate_dataset([rec], fixture_provider, fixture_provider)
        assert ("Donald Trump", "field of work", "politics") in out[0].triples
        assert ("Birth control", "part of", "human population planning") in out[0].triples

    def test_order_and_length_preserved(self, fixture_provider):
        recs = [JokeRecord(f"rec {i}.", "p.") for i in range(10)]
        out = annotate_dataset(recs, fixture_provider, fixture_provider, in_flight=4)
        assert [r.setup for r in out] == [r.setup for r in recs]

    def test_one_worker_matches_many(self, fixture_provider):
        recs = [JokeRecord(setup, "p.") for setup in FIXTURE["mentions"]] * 3
        one = annotate_dataset(recs, fixture_provider, fixture_provider, in_flight=1)
        many = annotate_dataset(recs, fixture_provider, fixture_provider, in_flight=4)
        assert [r.to_json() for r in one] == [r.to_json() for r in many]

    def test_in_flight_below_one_rejected(self, fixture_provider):
        with pytest.raises(ValueError, match="in_flight"):
            annotate_dataset([JokeRecord("x.", "y.")], fixture_provider, fixture_provider, in_flight=0)

    def test_reproducible(self, fixture_provider):
        recs = [JokeRecord("Jobs founded Apple.", "p."), JokeRecord("x.", "y.")]
        a = annotate_dataset(recs, fixture_provider, fixture_provider)
        b = annotate_dataset(recs, fixture_provider, fixture_provider)
        assert [r.to_json() for r in a] == [r.to_json() for r in b]

    def test_no_empty_triple_fields(self, fixture_provider):
        recs = [JokeRecord("Trump wants to cut funding for birth control.", "p.")]
        out = annotate_dataset(recs, fixture_provider, fixture_provider)
        assert all(all(field for field in t) for r in out for t in r.triples)


# ------------------------------------------------------------- HTTP contracts


class _Handler(BaseHTTPRequestHandler):
    behaviors = {}

    def log_message(self, *args):
        pass

    def _respond(self, code, body):
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(body.encode("utf-8"))

    def do_GET(self):
        q = parse_qs(urlparse(self.path).query)
        mode = self.behaviors.get("link", "ok")
        if mode == "ok":
            text = q.get("text", [""])[0]
            anns = [
                {"spot": "Jobs", "title": "Q19837", "rho": 0.6},
                {"spot": "Apple", "title": "Q312", "rho": 0.5},
                {"spot": "the", "title": "Q000", "rho": 0.05},
            ] if "Jobs" in text else []
            self._respond(200, json.dumps(anns))
        elif mode == "schema":
            self._respond(200, json.dumps({"unexpected": True}))
        elif mode == "garbage":
            self._respond(200, "this is not json")
        else:
            self._respond(500, "{}")

    def do_POST(self):
        mode = self.behaviors.get("sparql", "ok")
        if mode == "ok":
            body = {
                "results": {"bindings": [
                    {"subjLabel": {"value": "Steve Jobs"},
                     "relLabel": {"value": "occupation"},
                     "objLabel": {"value": "entrepreneur"}},
                    {"relLabel": {"value": "instance of"},
                     "objLabel": {"value": "human"}},
                ]}
            }
            self._respond(200, json.dumps(body))
        elif mode == "schema":
            self._respond(200, json.dumps({"results": {}}))
        else:
            self._respond(503, "{}")


@pytest.fixture()
def http_stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.behaviors = {}
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


class TestHttpLinker:
    def test_contract(self, http_stub):
        linker = HttpLinker(http_stub, backoff=0)
        mentions = link_entities("Jobs founded Apple.", linker)
        assert [(m.surface, m.concept_id, m.confidence) for m in mentions] == [
            ("Jobs", "Q19837", 0.6), ("Apple", "Q312", 0.5)]

    def test_http_error_raises_unavailable(self, http_stub):
        _Handler.behaviors["link"] = "fail"
        linker = HttpLinker(http_stub, backoff=0, retries=2)
        with pytest.raises(LinkerUnavailable):
            linker.link("anything")

    def test_schema_mismatch(self, http_stub):
        _Handler.behaviors["link"] = "schema"
        linker = HttpLinker(http_stub, backoff=0)
        with pytest.raises(MalformedResponse):
            linker.link("anything")

    def test_non_json(self, http_stub):
        _Handler.behaviors["link"] = "garbage"
        linker = HttpLinker(http_stub, backoff=0)
        with pytest.raises(MalformedResponse):
            linker.link("anything")

    def test_unreachable_host(self):
        linker = HttpLinker("http://127.0.0.1:1", backoff=0, retries=2, timeout=0.2)
        with pytest.raises(LinkerUnavailable):
            linker.link("anything")

    def test_cache_round_trip(self, http_stub, tmp_path):
        cache = tmp_path / "cache.json"
        linker = HttpLinker(http_stub, backoff=0, cache_path=cache)
        first = linker.link("Jobs founded Apple.")
        _Handler.behaviors["link"] = "fail"  # cache must answer now
        second = HttpLinker(http_stub, backoff=0, cache_path=cache).link("Jobs founded Apple.")
        assert first == second


class TestResponseCache:
    def test_linker_and_store_share_one_file(self, http_stub, tmp_path):
        cache = tmp_path / "cache.jsonl"
        linker = HttpLinker(http_stub, backoff=0, cache_path=cache)
        store = SparqlTripleStore(http_stub, backoff=0, cache_path=cache)
        mentions = linker.link("Jobs founded Apple.")
        triples = store.fetch("Q19837")
        later = linker.link("Jobs again.")  # written after the store's entry
        _Handler.behaviors.update(link="fail", sparql="fail")  # only the cache can answer now
        fresh_linker = HttpLinker(http_stub, backoff=0, retries=1, cache_path=cache)
        fresh_store = SparqlTripleStore(http_stub, backoff=0, retries=1, cache_path=cache)
        assert fresh_linker.link("Jobs founded Apple.") == mentions
        assert fresh_linker.link("Jobs again.") == later
        assert fresh_store.fetch("Q19837") == triples

    def test_line_cut_short_keeps_earlier_entries(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        cache = _ResponseCache(path)
        for i in range(5):
            cache.put(f"k{i}", {"v": i})
        with path.open("a", encoding="utf-8") as fh:
            fh.write('\n{"k5": {"v"')  # what a put leaves when the process dies mid-write
        with caplog.at_level(logging.WARNING, logger="punchgen.knowledge"):
            loaded = _ResponseCache(path)
        assert loaded.data == {f"k{i}": {"v": i} for i in range(5)}
        assert "cut short" in caplog.text
        loaded.put("k6", [6])  # starts a new line instead of extending the cut one
        assert _ResponseCache(path).data == {**{f"k{i}": {"v": i} for i in range(5)}, "k6": [6]}

    def test_single_object_file_loads(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"a": 1, "b": [2]}), encoding="utf-8")  # no trailing newline
        cache = _ResponseCache(path)
        assert cache.data == {"a": 1, "b": [2]}
        cache.put("c", 3)
        assert _ResponseCache(path).data == {"a": 1, "b": [2], "c": 3}

    def test_concurrent_puts_from_clients_on_one_path(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        clients = [_ResponseCache(path) for _ in range(4)]
        want = {f"k{i}": "x" * (i % 97) for i in range(400)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(clients[i % 4].put, k, v) for i, (k, v) in enumerate(want.items())]
                for f in futures:
                    f.result(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert _ResponseCache(path).data == want

    def test_cache_keys_unchanged(self, tmp_path):
        """Keys are pinned as digests, so a cache file written by an earlier version still answers."""
        path = tmp_path / "cache.jsonl"
        link_key = "76f0cd8cfc1af36c984feee23d6f1537544ade837585be267abe02af0647d585"
        sparql_key = "67a296e832e9cfbea4e909d89ec8674326060009378c194d0165286df8e3b737"
        path.write_text(json.dumps({link_key: [{"spot": "Jobs", "title": "Q19837", "rho": 0.6}]})
                        + "\n" + json.dumps({sparql_key: {"results": {"bindings": [
                            {"relLabel": {"value": "occupation"}, "objLabel": {"value": "entrepreneur"}}]}}}),
                        encoding="utf-8")
        # nothing listens on port 1: only the cache can answer
        linker = HttpLinker("http://127.0.0.1:1/link", backoff=0, retries=1, timeout=0.2, cache_path=path)
        store = SparqlTripleStore("http://127.0.0.1:1/sparql", backoff=0, retries=1, timeout=0.2,
                                  cache_path=path)
        assert linker.link("Jobs founded Apple.") == [EntityMention("Jobs", "Q19837", 0.6)]
        assert store.fetch("Q19837") == [Triple("Q19837", "occupation", "entrepreneur")]


class TestSparqlStore:
    def test_contract_and_subject_fallback(self, http_stub):
        store = SparqlTripleStore(http_stub, backoff=0)
        triples = store.fetch("Q19837")
        assert triples[0] == Triple("Steve Jobs", "occupation", "entrepreneur")
        assert triples[1] == Triple("Q19837", "instance of", "human")

    def test_unavailable(self, http_stub):
        _Handler.behaviors["sparql"] = "fail"
        store = SparqlTripleStore(http_stub, backoff=0, retries=2)
        with pytest.raises(EndpointUnavailable):
            store.fetch("Q1")

    def test_schema_mismatch(self, http_stub):
        _Handler.behaviors["sparql"] = "schema"
        store = SparqlTripleStore(http_stub, backoff=0)
        with pytest.raises(MalformedResponse):
            store.fetch("Q1")


class TestErrorIsolation:
    def test_linker_failure_aborts_record_not_batch(self, http_stub, fixture_provider):
        _Handler.behaviors["link"] = "fail"
        bad_linker = HttpLinker(http_stub, backoff=0, retries=1)
        recs = [JokeRecord("Jobs founded Apple.", "p."), JokeRecord("x.", "y.")]
        out = annotate_dataset(recs, bad_linker, fixture_provider)
        assert len(out) == 2
        assert all(r.triples == [] for r in out)

    def test_triple_failure_skips_mention(self, http_stub, fixture_provider):
        _Handler.behaviors["sparql"] = "fail"
        bad_store = SparqlTripleStore(http_stub, backoff=0, retries=1)
        recs = [JokeRecord("Jobs founded Apple.", "p.")]
        out = annotate_dataset(recs, fixture_provider, bad_store)
        assert out[0].triples == []
