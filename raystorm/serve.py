"""Long-lived query serving — the SearchServer analog as plain Ray actors.

The reference serves queries over a persistent HTTP process
(``/root/reference/src/cis5550/jobs/SearchServer.java:103-266``: load
state once, then answer ``/search?q=...`` forever).  The Ray-native
analog (SURVEY.md §3.3) is a pool of **named actors**, each holding a
``SegmentIndex`` loaded once in ``__init__``; clients resolve them by
name (``ray.get_actor``) and round-robin requests.  On a cluster the
actors are created ``lifetime="detached"`` so they outlive the driver
that started them — the same always-on property the HTTP server has —
and each replica mmaps the shared index store independently.

The native wire protocol is Ray's task protocol; :class:`HttpFrontend`
adds the one thin HTTP handler closing the reference-surface gap
(``SearchServer.java:19-25`` registers ``/search`` + static routes):
a stdlib ``ThreadingHTTPServer`` (FastAPI is absent in this
environment) whose GET handlers delegate straight to the replica pool
— no logic beyond parse → ``handle.topk`` → JSON.
"""

from __future__ import annotations

import pandas as pd

import ray


@ray.remote
class IndexServer:
    """One serving replica: index (+ optional title map) loaded once."""

    #: request-cache capacity (the ES shard-request-cache shape): plain
    #: topk answers keyed by (text, k, mode), LRU-evicted.  Safe by
    #: construction — a replica's index is immutable for its lifetime
    #: (updates/compaction swap in a NEW directory and a new pool), so
    #: there is no invalidation path to get wrong.
    CACHE_MAX = 256

    def __init__(self, index_dir: str, sf_dir: str | None = None):
        import os
        from collections import OrderedDict

        from .query import LazyTitles, SegmentIndex, conv_titles

        self.index = SegmentIndex(index_dir)
        self._cache: OrderedDict = OrderedDict()
        self._cache_hits = 0
        self._cache_misses = 0
        if os.path.isdir(os.path.join(index_dir, "docstore")):
            # self-contained serving: titles resolved per candidate from
            # the index-local doc-store (<=CAND_K point lookups per
            # query) — no conversation-count-sized map in the replica
            self.titles = LazyTitles(index_dir)
        elif sf_dir:
            self.titles = conv_titles(sf_dir)
        else:
            self.titles = None

    def topk(self, query_text: str, k: int = 10, mode: str = "bm25") -> pd.DataFrame:
        from .query import check_k

        check_k(k)  # before the cache: a cached k=10 must not answer k=10.0
        if mode == "faithful_boosted":
            if self.titles is None:
                raise ValueError("faithful_boosted requires sf_dir at start()")
            from .query import _topk_boosted

            return _topk_boosted(self.index, query_text, k, self.titles)
        key = (query_text, int(k), mode)
        hit = self._cache.get(key)
        if hit is not None:
            self._cache.move_to_end(key)
            self._cache_hits += 1
            return hit.copy()
        self._cache_misses += 1
        df = self.index.topk(query_text, k, mode)
        self._cache[key] = df.copy()
        if len(self._cache) > self.CACHE_MAX:
            self._cache.popitem(last=False)
        return df

    def topk_filtered(
        self, query_text: str, k: int = 10, clauses_json: str = "", mode: str = "bm25"
    ) -> pd.DataFrame:
        """Metadata-filtered search (needs the doc-values sidecar);
        clauses ride the wire as their JSON encoding."""
        from .docvalues import decode_clauses

        return self.index.topk_filtered(
            query_text, k, decode_clauses(clauses_json), mode
        )

    def topk_sorted(
        self, query_text: str, k: int = 10, clauses_json: str = "", desc: bool = True
    ) -> pd.DataFrame:
        from .docvalues import decode_clauses

        return self.index.topk_sorted(
            query_text, k, clauses=decode_clauses(clauses_json), desc=desc
        )

    def has_child(
        self, user_text: str, assistant_text: str, k: int = 10
    ) -> pd.DataFrame:
        """Parent-child conversation search (needs the doc-values
        sidecar for the role column)."""
        return self.index.topk_has_child(user_text, assistant_text, k)

    def percolate(self, text: str) -> list:
        """Reverse search on the serving path (the ES percolate API's
        single-document form): which stored queries match this doc?
        Registry compiled lazily once per replica; each call is one
        in-memory batch match — the alerting hook ("would any saved
        search fire on this incoming document?")."""
        if getattr(self, "_percolator", None) is None:
            from .percolate import Percolator, compile_queries

            self._percolator = Percolator(compile_queries())
        import pyarrow as pa

        out = self._percolator(
            pa.table(
                {
                    "conv_id": ["_doc"],
                    "turn_idx": pa.array([0], pa.int32()),
                    "text": [text],
                }
            )
        )
        return out["query_id"].to_pylist()

    def info(self) -> dict:
        return {
            "n_terms": self.index.manifest["n_terms"],
            "global_stats": self.index.global_stats,
            "partitions": self.index.manifest["num_partitions"],
            "cache": {
                "entries": len(self._cache),
                "hits": self._cache_hits,
                "misses": self._cache_misses,
            },
        }


class ServeHandle:
    """Round-robin client over the replica pool."""

    def __init__(self, actors):
        self.actors = list(actors)
        self._i = 0

    def topk(self, query_text: str, k: int = 10, mode: str = "bm25") -> pd.DataFrame:
        a = self.actors[self._i % len(self.actors)]
        self._i += 1
        return ray.get(a.topk.remote(query_text, k, mode))

    def topk_many(
        self, query_texts, k: int = 10, mode: str = "bm25", window: int = 4
    ) -> list:
        """Answer a batch of query texts across ALL replicas — the
        batch-throughput serving path (``bench.py --scaling-serve``
        measures it at two parallelism levels); per-call :meth:`topk`
        stays the latency path.

        Dispatch is COMPLETION-DRIVEN, not static round-robin: each
        replica holds at most ``window`` in-flight queries and the next
        query goes to whichever replica finishes one.  Query costs over
        a Zipf vocabulary vary ~100x, so static assignment bounds the
        batch on the unluckiest replica's queue — measured 0.74 scaling
        efficiency at 16 replicas x ~94 queries each vs ~1.0 core-hours;
        work-conserving dispatch removes the straggler term."""
        if window < 1:
            raise ValueError(f"topk_many window must be >= 1, got {window}")
        results: list = [None] * len(query_texts)
        it = iter(enumerate(query_texts))
        pending: dict = {}

        def submit(actor) -> bool:
            try:
                i, q = next(it)
            except StopIteration:
                return False
            pending[actor.topk.remote(q, k, mode)] = (i, actor)
            return True

        for a in self.actors:
            for _ in range(window):
                if not submit(a):
                    break
        while pending:
            done, _ = ray.wait(list(pending), num_returns=1)
            i, actor = pending.pop(done[0])
            results[i] = ray.get(done[0])
            submit(actor)
        return results

    def topk_filtered(
        self, query_text: str, k: int = 10, clauses_json: str = "", mode: str = "bm25"
    ) -> pd.DataFrame:
        a = self.actors[self._i % len(self.actors)]
        self._i += 1
        return ray.get(a.topk_filtered.remote(query_text, k, clauses_json, mode))

    def topk_sorted(
        self, query_text: str, k: int = 10, clauses_json: str = "", desc: bool = True
    ) -> pd.DataFrame:
        a = self.actors[self._i % len(self.actors)]
        self._i += 1
        return ray.get(a.topk_sorted.remote(query_text, k, clauses_json, desc))

    def has_child(
        self, user_text: str, assistant_text: str, k: int = 10
    ) -> pd.DataFrame:
        a = self.actors[self._i % len(self.actors)]
        self._i += 1
        return ray.get(a.has_child.remote(user_text, assistant_text, k))

    def percolate(self, text: str) -> list:
        a = self.actors[self._i % len(self.actors)]
        self._i += 1
        return ray.get(a.percolate.remote(text))

    def info(self) -> dict:
        return ray.get(self.actors[0].info.remote())


def start(
    index_dir: str,
    replicas: int = 2,
    name: str = "raystorm-server",
    sf_dir: str | None = None,
    detached: bool = False,
) -> ServeHandle:
    """Start (or reconnect to) the named replica pool.

    ``get_if_exists=True`` makes this idempotent: a second driver calling
    ``start`` with the same name attaches to the running replicas instead
    of double-loading the index.  ``detached=True`` (cluster deployments)
    keeps replicas alive after this driver exits.
    """
    opts: dict = {"get_if_exists": True}
    if detached:
        opts["lifetime"] = "detached"
    actors = [
        IndexServer.options(name=f"{name}-{i}", **opts).remote(index_dir, sf_dir)
        for i in range(replicas)
    ]
    return ServeHandle(actors)


@ray.remote
class HttpFrontend:
    """HTTP front over the replica pool — the reference's SearchServer
    routes (``SearchServer.java:103-266``) as one thin delegating
    handler.

    ``GET /search?q=<text>&k=<n>&mode=<mode>`` -> JSON row list
    (rank/conv_id/turn_idx/score); ``GET /info`` -> index stats.  A
    bad ``k``, an unknown ``mode`` or a malformed ``filter`` is a 400;
    any other error a 500.
    Runs inside a (detachable) Ray actor so the endpoint outlives the
    starting driver exactly like the replica pool; binds an ephemeral
    port unless given one.

    ``certfile``/``keyfile`` enable TLS (stdlib ``ssl`` wrap of the
    listening socket) — the reference serves HTTPS on 443
    (``SearchServer.java:22`` secure port); in a real deployment the
    usual alternative is terminating TLS at a load balancer in front
    of the plain-HTTP actor, which is why the option is opt-in.
    """

    def __init__(
        self,
        index_dir: str,
        replicas: int = 2,
        name: str = "raystorm-server",
        sf_dir: str | None = None,
        port: int = 0,
        certfile: str | None = None,
        keyfile: str | None = None,
    ):
        import json
        import threading
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
        from urllib.parse import parse_qs, urlparse

        from .query import InvalidRequest, check_k

        handle = start(index_dir, replicas=replicas, name=name, sf_dir=sf_dir)

        def parse_k(qs) -> int:
            raw = qs.get("k", ["10"])[0]
            try:
                k = int(raw)
            except ValueError:
                k = raw
            check_k(k)
            return k

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *a):  # quiet
                pass

            def _send(self, code: int, payload: str, ctype: str = "application/json"):
                body = payload.encode()
                self.send_response(code)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                try:
                    u = urlparse(self.path)
                    if u.path == "/search":
                        qs = parse_qs(u.query)
                        q = qs.get("q", [""])[0]
                        k = parse_k(qs)
                        mode = qs.get("mode", ["bm25"])[0]
                        # ES request shapes: &filter=<JSON clause list>
                        # (filter context) and &sort=ts_us[:asc|:desc]
                        # (field sort, optionally with a filter)
                        flt = qs.get("filter", [""])[0]
                        sort = qs.get("sort", [""])[0]
                        if sort:
                            df = handle.topk_sorted(
                                q, k, flt, desc=not sort.endswith(":asc")
                            )
                        elif flt:
                            df = handle.topk_filtered(q, k, flt, mode)
                        else:
                            df = handle.topk(q, k, mode)
                        self._send(200, df.to_json(orient="records"))
                    elif u.path == "/has_child":
                        qs = parse_qs(u.query)
                        df = handle.has_child(
                            qs.get("u", [""])[0],
                            qs.get("a", [""])[0],
                            int(qs.get("k", ["10"])[0]),
                        )
                        self._send(200, df.to_json(orient="records"))
                    elif u.path == "/percolate":
                        qs = parse_qs(u.query)
                        ids = handle.percolate(qs.get("doc", [""])[0])
                        self._send(200, json.dumps({"matched": ids}))
                    elif u.path == "/ui":
                        # the reference's HTML results page analog
                        # (SearchServer.java:225-258: form + ranked
                        # result list) — same topk as /search, rendered
                        # server-side; escaping via html.escape
                        import html as _html

                        qs = parse_qs(u.query)
                        q = qs.get("q", [""])[0]
                        k = parse_k(qs)
                        rows = ""
                        if q:
                            df = handle.topk(q, k, qs.get("mode", ["bm25"])[0])
                            rows = "".join(
                                "<li><b>%s</b>#%d <small>score %.6f</small></li>"
                                % (_html.escape(str(r.conv_id)), int(r.turn_idx),
                                   float(r.score))
                                for r in df.itertuples()
                            )
                        page = (
                            "<!doctype html><title>raystorm</title>"
                            "<form action='/ui'><input name='q' value='%s'>"
                            "<button>Search</button></form><ol>%s</ol>"
                            % (_html.escape(q, quote=True), rows)
                        )
                        self._send(200, page, ctype="text/html; charset=utf-8")
                    elif u.path == "/info":
                        self._send(200, json.dumps(handle.info()))
                    else:
                        self._send(404, json.dumps({"error": "not found"}))
                except InvalidRequest as e:  # the client's fault: bad k, mode or filter
                    self._send(400, json.dumps({"error": str(e)}))
                except Exception as e:  # surface errors as JSON, keep serving
                    import traceback

                    traceback.print_exc()
                    self._send(500, json.dumps({"error": str(e)}))

        self._tls = bool(certfile)
        if certfile:
            import ssl

            ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            ctx.load_cert_chain(certfile, keyfile)

            class TLSServer(ThreadingHTTPServer):
                """Per-CONNECTION TLS wrap, deferred handshake: wrapping
                the LISTENING socket would run the full handshake inside
                accept() on the single serve_forever thread, so one
                stalled client (TCP connect, then silence) hangs every
                other request.  Here accept() stays instant; the
                handshake happens on first read in the per-request
                handler thread, bounded by the socket timeout."""

                def get_request(self):
                    sock, addr = self.socket.accept()
                    sock.settimeout(30)
                    return (
                        ctx.wrap_socket(
                            sock, server_side=True, do_handshake_on_connect=False
                        ),
                        addr,
                    )

            self._srv = TLSServer(("0.0.0.0", port), Handler)
        else:
            self._srv = ThreadingHTTPServer(("0.0.0.0", port), Handler)
        self._thread = threading.Thread(target=self._srv.serve_forever, daemon=True)
        self._thread.start()

    def address(self) -> tuple[str, int]:
        import ray.util

        host = ray.util.get_node_ip_address()
        return host, int(self._srv.server_address[1])

    def scheme(self) -> str:
        return "https" if self._tls else "http"

    def shutdown(self) -> None:
        self._srv.shutdown()


#: live handles for non-detached HTTP fronts — a named actor without
#: ``lifetime="detached"`` is killed when its last handle is GC'd, so
#: the module pins one until stop() (detached fronts don't need it)
_HTTP_ACTORS: dict = {}


def start_http(
    index_dir: str,
    replicas: int = 2,
    name: str = "raystorm-server",
    sf_dir: str | None = None,
    port: int = 0,
    detached: bool = False,
    certfile: str | None = None,
    keyfile: str | None = None,
) -> tuple[str, int]:
    """Start (or reconnect to) the HTTP(S) front; returns (host, port).
    ``certfile``/``keyfile`` serve TLS (see HttpFrontend)."""
    opts: dict = {"get_if_exists": True, "name": f"{name}-http"}
    if detached:
        opts["lifetime"] = "detached"
    actor = HttpFrontend.options(**opts).remote(
        index_dir, replicas=replicas, name=name, sf_dir=sf_dir, port=port,
        certfile=certfile, keyfile=keyfile,
    )
    if not detached:
        _HTTP_ACTORS[name] = actor
    return ray.get(actor.address.remote())


def stop(replicas: int = 2, name: str = "raystorm-server") -> int:
    """Kill the named replicas (and HTTP front, if any); returns how
    many replicas were found.

    Replicas go first: the HTTP front's internal handles are what keep
    non-detached replicas alive, so killing it first races replica
    reaping against the get_actor lookups below."""
    n = 0
    for i in range(replicas):
        try:
            ray.kill(ray.get_actor(f"{name}-{i}"))
            n += 1
        except ValueError:
            pass
    try:
        a = ray.get_actor(f"{name}-http")
        ray.get(a.shutdown.remote())
        ray.kill(a)
    except ValueError:
        pass
    _HTTP_ACTORS.pop(name, None)
    return n
