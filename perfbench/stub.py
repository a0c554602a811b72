"""Loopback stand-in for the entity-linking and SPARQL endpoints.

Each answer is a pure function of the request, so the benchmark can
derive the expected annotation of every record from the same functions
(`link_answer`, `sparql_answer`) without asking the server.

Run as a program it serves on 127.0.0.1 at a free port, prints the port
on its first stdout line and serves until terminated:

    GET  /link?text=...        entity-linker annotations
    POST /sparql (query=...)   SPARQL-over-HTTP JSON bindings
    GET  /stats                {"requests": n, "busy_s": t} over the two above
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlparse

CONFIDENCE_FLOOR = 0.1          # punchgen.knowledge.CONFIDENCE_FLOOR
_ENTITY_RE = re.compile(r"^[A-Z][a-z]+$")
_QID_RE = re.compile(r"wd:(Q\d+) \?p")
_LIMIT_RE = re.compile(r"LIMIT (\d+)")
_LABEL_WORDS = ("red", "old", "small", "city", "river", "music", "king", "game", "film",
                "house", "bird", "tree", "band", "ship", "star", "road", "coin", "book")
_RELATIONS = ("instance of", "part of", "located in", "named after", "member of",
              "genre", "owned by", "country", "subclass of", "follows")


def _h(*parts: str) -> int:
    return int.from_bytes(hashlib.sha256("\x1f".join(parts).encode("utf-8")).digest()[:8], "big")


def entity_confidence(name: str) -> float:
    """Linker score of an entity name: a multiple of 0.01, floor value included."""
    return (_h("rho", name) % 100) / 100


def concept_id(name: str) -> str:
    return f"Q{_h('qid', name) % 10**9}"


def link_answer(text: str) -> list[dict]:
    """Every capitalised word of the text is a mention, in order of appearance."""
    out = []
    for word in text.split():
        word = word.strip(".,;:!?\"'")
        if _ENTITY_RE.match(word):
            out.append({"spot": word, "title": concept_id(word), "rho": entity_confidence(word)})
    return out


def _label(*parts: str) -> str:
    n = 1 + _h("len", *parts) % 3
    return " ".join(_LABEL_WORDS[_h("w", str(i), *parts) % len(_LABEL_WORDS)] for i in range(n))


def sparql_answer(qid: str, limit: int = 50) -> dict:
    """2-14 bindings per concept; one in four concepts names its subject by label.

    Objects and relations repeat inside a concept's answer, so a record's
    triples contain exact duplicates for the annotator to drop.
    """
    n = min(2 + _h("n", qid) % 13, limit)
    subject = _label("subj", qid) if _h("named", qid) % 4 == 0 else None
    bindings = []
    for i in range(n):
        k = str(i % 6)              # indices 6.. repeat the first six rows
        row = {"relLabel": {"type": "literal", "value": _RELATIONS[_h("rel", qid, k) % len(_RELATIONS)]},
               "objLabel": {"type": "literal", "value": _label("obj", qid, k)}}
        if subject:
            row["subjLabel"] = {"type": "literal", "value": subject}
        bindings.append(row)
    return {"head": {"vars": ["relLabel", "objLabel", "subjLabel"]}, "results": {"bindings": bindings}}


def answer_sparql_query(query: str) -> dict:
    qid = _QID_RE.search(query)
    limit = _LIMIT_RE.search(query)
    if qid is None or limit is None:
        raise ValueError("query names no concept or limit")
    return sparql_answer(qid.group(1), int(limit.group(1)))


class _Handler(BaseHTTPRequestHandler):
    server_version = "punchgen-bench-stub"

    def log_message(self, format, *args):  # noqa: A002 - silence per-request logging
        pass

    def _send(self, status: int, payload) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _serve(self, answer) -> None:
        start = time.perf_counter()
        try:
            status, payload = 200, answer()
        except (ValueError, KeyError) as exc:
            status, payload = 400, {"error": str(exc)}
        self._send(status, payload)
        self.server.requests += 1
        self.server.busy_s += time.perf_counter() - start

    def do_GET(self):  # noqa: N802 - http.server naming
        url = urlparse(self.path)
        if url.path == "/link":
            self._serve(lambda: link_answer(parse_qs(url.query)["text"][0]))
        elif url.path == "/stats":
            self._send(200, {"requests": self.server.requests, "busy_s": self.server.busy_s})
        else:
            self._send(404, {"error": "no such path"})

    def do_POST(self):  # noqa: N802
        length = int(self.headers.get("Content-Length", 0))
        form = parse_qs(self.rfile.read(length).decode("utf-8"))
        if urlparse(self.path).path == "/sparql":
            self._serve(lambda: answer_sparql_query(form["query"][0]))
        else:
            self._send(404, {"error": "no such path"})


def main() -> int:
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    server.requests = 0
    server.busy_s = 0.0
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
