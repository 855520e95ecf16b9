"""Synchronous client for the proof service.

``ServiceClient`` is what ``repro submit`` (and the chaos/bench
harnesses) speak: open a socket, send one REQUEST frame, read frames
until a terminal RESULT / FAIL / BUSY / DRAIN arrives.  Backpressure
and drain come back as typed exceptions carrying the server's hint, so
callers can implement honest retry loops::

    client = ServiceClient(("127.0.0.1", 7080))
    try:
        result = client.submit("planarity", runs=100, n=64, seed=7)
    except ServiceUnavailable as busy:
        time.sleep(busy.retry_after or 0.1)   # then resubmit the SAME id

Request ids are the idempotency key: ``submit`` derives a stable
default from the request parameters, so a dropped-connection retry of
the same logical request replays the stored result instead of
re-executing.
"""

from __future__ import annotations

import hashlib
import socket
import time
from typing import Any, Dict, List, Optional, Tuple, Union

from .wire import (
    DEFAULT_MAX_FRAME_BYTES,
    OP_ACK,
    OP_BUSY,
    OP_DRAIN,
    OP_EVENT,
    OP_FAIL,
    OP_RESULT,
    OP_REQUEST,
    SERVICE_OPS,
    decode_message,
    encode_message,
    parse_address,
    recv_frame,
    send_frame,
)


class ServiceError(Exception):
    """Base class for everything the service can throw at a client."""


class ServiceUnavailable(ServiceError):
    """BUSY (admission bound hit) or DRAIN (server is shutting down)."""

    def __init__(self, kind: str, retry_after: Optional[float] = None,
                 queue_depth: Optional[int] = None):
        self.kind = kind  # "busy" | "draining"
        self.retry_after = retry_after
        self.queue_depth = queue_depth
        hint = f", retry after {retry_after}s" if retry_after is not None else ""
        super().__init__(f"service {kind}{hint}")


class RequestFailed(ServiceError):
    """A typed FAIL frame: the request was accepted but could not finish."""

    def __init__(self, fault: str, error: str, request_id: str = ""):
        self.fault = fault
        self.error = error
        self.request_id = request_id
        super().__init__(f"request failed ({fault}): {error}")


class ServiceResult:
    """The terminal RESULT of one request, plus any streamed events."""

    def __init__(self, payload: Dict[str, Any], events: List[Dict[str, Any]],
                 ack_status: str):
        self.id: str = payload["id"]
        self.report: Dict[str, Any] = payload["report"]
        self.summary: str = payload["summary"]
        self.ok: bool = payload["ok"]
        self.expect_accept: bool = payload["expect_accept"]
        self.degraded: bool = payload["degraded"]
        self.failures: List[Dict[str, Any]] = payload["failures"]
        self.meta: Dict[str, Any] = payload["meta"]
        self.events = events
        self.ack_status = ack_status  # queued | attached | replay

    def canonical_json(self) -> str:
        import json

        return json.dumps(self.report, sort_keys=True, separators=(",", ":"))


def default_request_id(request: Dict[str, Any]) -> str:
    """A stable id from the execution identity (retry-safe by construction).

    A streamed request gets an id of its own: under a plain job's id it
    would replay that job's stored frames, which hold no events.
    """
    from .wire import request_key

    digest = hashlib.sha256(repr(request_key(request)).encode("utf-8")).hexdigest()
    stream = "-stream" if request.get("stream") else ""
    return f"{request['task']}-{request['seed']}{stream}-{digest[:16]}"


class ServiceClient:
    """One-request-per-connection synchronous service client."""

    def __init__(
        self,
        address: Union[str, Tuple[str, int]],
        *,
        timeout: float = 120.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        client_id: str = "anonymous",
    ):
        self.address = (
            parse_address(address) if isinstance(address, str) else tuple(address)
        )
        self.timeout = timeout
        self.max_frame_bytes = max_frame_bytes
        self.client_id = client_id

    # -- request construction ---------------------------------------------

    def build_request(
        self,
        task: str,
        *,
        runs: int = 100,
        n: int = 64,
        seed: int = 0,
        c: int = 2,
        no_instance: bool = False,
        adversary: Optional[str] = None,
        failure_policy: str = "strict",
        run_timeout: Optional[float] = None,
        max_retries: int = 2,
        inject_faults: Optional[str] = None,
        stream: bool = False,
        request_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        request = {
            "task": task,
            "runs": runs,
            "n": n,
            "seed": seed,
            "c": c,
            "no_instance": no_instance,
            "adversary": adversary,
            "failure_policy": failure_policy,
            "run_timeout": run_timeout,
            "max_retries": max_retries,
            "inject_faults": inject_faults,
            "stream": stream,
            "client": self.client_id,
        }
        request["id"] = request_id or default_request_id(request)
        return request

    def build_update_request(
        self,
        target: str,
        updates,
        *,
        stream: bool = False,
        request_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """An UPDATE request: apply edge updates to ``target``'s instance.

        ``updates`` is a sequence of ``(op, u, v)`` tuples or update
        objects exposing ``as_tuple()`` (:class:`repro.dynamic.EdgeInsert`
        / ``EdgeDelete``).  The default id hashes ``(target, updates)``,
        so a dropped-connection retry replays instead of re-applying —
        updates are stateful, which makes idempotent ids load-bearing.
        """
        wire_updates = [
            list(u.as_tuple()) if hasattr(u, "as_tuple") else list(u)
            for u in updates
        ]
        request = {
            "kind": "update",
            "target": target,
            "updates": wire_updates,
            "stream": stream,
            "client": self.client_id,
        }
        if request_id is None:
            digest = hashlib.sha256(
                repr((target, tuple(map(tuple, wire_updates)))).encode("utf-8")
            ).hexdigest()
            request_id = f"update-{target[:32]}-{digest[:16]}"
        request["id"] = request_id
        return request

    # -- submission --------------------------------------------------------

    def submit(self, task: str, **kwargs: Any) -> ServiceResult:
        return self.submit_request(self.build_request(task, **kwargs))

    def submit_update(self, target: str, updates, **kwargs: Any) -> ServiceResult:
        """Send one UPDATE batch and block for its terminal frame."""
        return self.submit_request(self.build_update_request(target, updates, **kwargs))

    def submit_request(self, request: Dict[str, Any]) -> ServiceResult:
        """Send one REQUEST and block for its terminal frame."""
        with socket.create_connection(self.address, timeout=self.timeout) as sock:
            send_frame(sock, OP_REQUEST, encode_message(request))
            return self._read_outcome(sock, request["id"])

    def submit_with_retry(
        self,
        request: Dict[str, Any],
        *,
        attempts: int = 5,
        max_wait: float = 2.0,
    ) -> ServiceResult:
        """Resubmit through BUSY backpressure, honouring Retry-After."""
        last: Optional[ServiceUnavailable] = None
        for _ in range(attempts):
            try:
                return self.submit_request(request)
            except ServiceUnavailable as exc:
                if exc.kind != "busy":
                    raise
                last = exc
                time.sleep(min(exc.retry_after or 0.1, max_wait))
        assert last is not None
        raise last

    def _read_outcome(self, sock: socket.socket, request_id: str) -> ServiceResult:
        events: List[Dict[str, Any]] = []
        ack_status = ""
        while True:
            op, payload = recv_frame(
                sock, max_frame_bytes=self.max_frame_bytes, known_ops=SERVICE_OPS
            )
            message = decode_message(payload) if payload else {}
            if op == OP_ACK:
                ack_status = message.get("status", "")
            elif op == OP_EVENT:
                events.append(message["event"])
            elif op == OP_RESULT:
                return ServiceResult(message, events, ack_status)
            elif op == OP_BUSY:
                raise ServiceUnavailable(
                    "busy",
                    retry_after=message.get("retry_after"),
                    queue_depth=message.get("queue_depth"),
                )
            elif op == OP_DRAIN:
                raise ServiceUnavailable("draining")
            elif op == OP_FAIL:
                raise RequestFailed(
                    message.get("fault", "unknown"),
                    message.get("error", ""),
                    message.get("id", request_id),
                )
            else:
                raise RequestFailed("protocol", f"unexpected frame {op!r}")
