"""Background-knowledge acquisition for set-up sentences.

Two provider kinds: an entity linker that maps surface spans to
knowledge-base concepts with a confidence score, and a triple store
that returns (subject, relation, object) facts for a concept. Each has
a live HTTP implementation and a JSON-fixture implementation; fixture
runs are fully offline and bit-reproducible.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .corpus import JokeRecord

log = logging.getLogger(__name__)

CONFIDENCE_FLOOR = 0.1
DEFAULT_TIMEOUT = 10.0
DEFAULT_RETRIES = 3
DEFAULT_MAX_PER_ENTITY = 10
DEFAULT_IN_FLIGHT = 4


class LinkerUnavailable(Exception):
    """Entity-linking service could not be reached."""


class EndpointUnavailable(Exception):
    """Triple endpoint could not be reached."""


class MalformedResponse(Exception):
    """Provider answered with JSON that does not match the contract."""


class Triple(NamedTuple):
    subject: str
    relation: str
    object: str

    def validate(self) -> "Triple":
        if not (self.subject and self.relation and self.object):
            raise MalformedResponse(f"triple with empty field: {self!r}")
        return self


@dataclass(frozen=True)
class EntityMention:
    surface: str
    concept_id: str
    confidence: float


# --------------------------------------------------------------------- fixtures


class FixtureProvider:
    """Offline provider backed by one JSON file.

    Schema: {"mentions": {setup text: [{"surface", "concept_id",
    "confidence"}, ...]}, "triples": {concept_id: [[s, r, o], ...]}}.
    """

    def __init__(self, path: str | Path):
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
            self.mentions = data["mentions"]
            self.triples = data["triples"]
        except (KeyError, json.JSONDecodeError) as exc:
            raise MalformedResponse(f"fixture file {path}: {exc}") from exc

    def link(self, setup: str) -> list[EntityMention]:
        out = []
        for m in self.mentions.get(setup, []):
            try:
                out.append(EntityMention(m["surface"], m["concept_id"], float(m["confidence"])))
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedResponse(f"bad fixture mention {m!r}") from exc
        return out

    def fetch(self, concept_id: str) -> list[Triple]:
        rows = self.triples.get(concept_id, [])
        try:
            return [Triple(*row).validate() for row in rows]
        except TypeError as exc:
            raise MalformedResponse(f"bad fixture triple for {concept_id}") from exc


# ------------------------------------------------------------------ HTTP plumbing


# serialises appends from every cache object, so clients sharing a path never interleave lines
_CACHE_LOCK = threading.Lock()


class _ResponseCache:
    """On-disk cache for live provider responses: one JSON line {key: value} per put.

    Clients on one path append to the same file and loading merges every
    line, so a linker and a triple store keep each other's entries.
    """

    def __init__(self, path: str | Path | None):
        self.path = Path(path) if path else None
        self.data: dict[str, object] = {}
        if self.path and self.path.exists():
            for line in filter(None, self.path.read_text(encoding="utf-8").split("\n")):
                try:
                    self.data.update(json.loads(line))
                except ValueError as exc:
                    # a crash during an append leaves a line cut short
                    log.warning("%s: skipping cache line cut short (%s)", self.path, exc)

    @staticmethod
    def key(*parts: str) -> str:
        return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()

    def get(self, key: str):
        return self.data.get(key)

    def put(self, key: str, value) -> None:
        self.data[key] = value
        if self.path:
            # each line starts with its newline, so it never runs on from a line cut short
            line = "\n" + json.dumps({key: value})
            with _CACHE_LOCK, self.path.open("a", encoding="utf-8") as fh:
                fh.write(line)


def _request_with_retries(method, url, *, unavailable_exc, timeout, retries, backoff, **kwargs):
    # imported on the first request, not with the module: only live annotation needs it, and it
    # costs every other command about 80 ms to load
    import requests

    last = None
    for attempt in range(retries):
        try:
            resp = requests.request(method, url, timeout=timeout, **kwargs)
            if resp.status_code != 200:
                raise unavailable_exc(f"{url}: HTTP {resp.status_code}")
            return resp
        except (requests.RequestException, unavailable_exc) as exc:
            last = exc
            if attempt < retries - 1 and backoff > 0:
                time.sleep(backoff * 2 ** attempt)
    raise unavailable_exc(f"{url}: {last}")


class _HttpProvider:
    """A live provider: one endpoint, retry settings and a response cache."""

    KIND: str  # cache-key tag and the provider's name in errors
    UNAVAILABLE: type[Exception]

    def __init__(self, url: str, timeout: float = DEFAULT_TIMEOUT,
                 retries: int = DEFAULT_RETRIES, backoff: float = 0.5,
                 cache_path: str | Path | None = None):
        self.url = url
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.cache = _ResponseCache(cache_path)

    def _payload(self, cache_part: str, method: str, **request):
        """The JSON answer for one request, from the cache or else the endpoint, which is then cached."""
        key = self.cache.key(self.KIND, self.url, cache_part)
        payload = self.cache.get(key)
        if payload is None:
            resp = _request_with_retries(
                method, self.url, unavailable_exc=self.UNAVAILABLE,
                timeout=self.timeout, retries=self.retries, backoff=self.backoff, **request,
            )
            try:
                payload = resp.json()
            except ValueError as exc:
                raise MalformedResponse(f"{self.KIND} endpoint returned non-JSON: {exc}") from exc
            self.cache.put(key, payload)
        return payload


class HttpLinker(_HttpProvider):
    """Entity-linking endpoint: GET with a `text` query parameter.

    Expects a JSON array (possibly under an "annotations" key) of
    objects with `spot`, `title` and `rho` fields.
    """

    KIND = "link"
    UNAVAILABLE = LinkerUnavailable

    def link(self, setup: str) -> list[EntityMention]:
        payload = self._payload(setup, "GET", params={"text": setup})
        if isinstance(payload, dict):
            payload = payload.get("annotations")
        if not isinstance(payload, list):
            raise MalformedResponse("linker response is not an annotation array")
        out = []
        for item in payload:
            try:
                out.append(EntityMention(item["spot"], item["title"], float(item["rho"])))
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedResponse(f"bad annotation {item!r}") from exc
        return out


class SparqlTripleStore(_HttpProvider):
    """SPARQL-over-HTTP endpoint returning JSON bindings.

    Bindings must carry `relLabel` and `objLabel` variables; an
    optional `subjLabel` overrides the concept id as subject label.
    """

    KIND = "sparql"
    UNAVAILABLE = EndpointUnavailable
    QUERY = """SELECT ?relLabel ?objLabel ?subjLabel WHERE {{
  wd:{qid} ?p ?obj .
  ?rel wikibase:directClaim ?p .
  BIND(wd:{qid} AS ?subj)
  SERVICE wikibase:label {{ bd:serviceParam wikibase:language "en". }}
}} LIMIT 50"""

    def fetch(self, concept_id: str) -> list[Triple]:
        query = self.QUERY.format(qid=concept_id)
        payload = self._payload(query, "POST", data={"query": query, "format": "json"},
                                headers={"Accept": "application/sparql-results+json"})
        try:
            bindings = payload["results"]["bindings"]
        except (KeyError, TypeError) as exc:
            raise MalformedResponse("no results/bindings in SPARQL response") from exc
        out = []
        for b in bindings:
            try:
                subj = b.get("subjLabel", {}).get("value") or concept_id
                out.append(Triple(subj, b["relLabel"]["value"], b["objLabel"]["value"]).validate())
            except (KeyError, TypeError) as exc:
                raise MalformedResponse(f"bad binding {b!r}") from exc
        return out


# ------------------------------------------------------------------- operations


def link_entities(setup: str, provider) -> list[EntityMention]:
    """Mentions with confidence strictly above the floor, in appearance order."""
    return [m for m in provider.link(setup) if m.confidence > CONFIDENCE_FLOOR]


def fetch_triples(mention: EntityMention, provider,
                  max_per_entity: int = DEFAULT_MAX_PER_ENTITY) -> list[Triple]:
    """Up to max_per_entity triples whose subject is the linked concept."""
    if max_per_entity < 1:
        raise ValueError("max_per_entity must be >= 1")
    return provider.fetch(mention.concept_id)[:max_per_entity]


def annotate_record(record: JokeRecord, linker, triple_store,
                    max_per_entity: int = DEFAULT_MAX_PER_ENTITY) -> JokeRecord:
    """Gather triples for one record; provider failures keep what was collected."""
    triples: list[Triple] = []
    seen: set[Triple] = set()
    try:
        mentions = link_entities(record.setup, linker)
    except (LinkerUnavailable, MalformedResponse) as exc:
        log.warning("linker failed for %r: %s", record.setup[:40], exc)
        return JokeRecord(record.setup, record.punchline, [])
    for mention in mentions:
        try:
            fetched = fetch_triples(mention, triple_store, max_per_entity)
        except (EndpointUnavailable, MalformedResponse) as exc:
            log.warning("triple fetch failed for %s: %s", mention.concept_id, exc)
            continue
        for t in fetched:
            if t not in seen:
                seen.add(t)
                triples.append(t)
    return JokeRecord(record.setup, record.punchline, [tuple(t) for t in triples])


def annotate_dataset(records: list[JokeRecord], linker, triple_store,
                     max_per_entity: int = DEFAULT_MAX_PER_ENTITY,
                     in_flight: int = DEFAULT_IN_FLIGHT) -> list[JokeRecord]:
    """Annotate every record, preserving list length and order.

    Distinct records run concurrently up to the in-flight cap; results
    merge back in input order.
    """
    if in_flight < 1:
        raise ValueError(f"in_flight must be >= 1, got {in_flight}")
    with ThreadPoolExecutor(max_workers=in_flight) as pool:
        return list(pool.map(
            lambda r: annotate_record(r, linker, triple_store, max_per_entity), records
        ))
