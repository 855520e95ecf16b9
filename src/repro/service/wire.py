"""Service wire protocol: JSON messages over the PR-7 frame format.

The proof server speaks the same length-prefixed ``">cI"`` frames and
JSON codec as the remote-worker protocol (:mod:`repro.runtime.remote`)
— one-byte opcode plus big-endian uint32 payload length — but with its
own opcode space.

Frame vocabulary (version 1)::

    REQUEST "Q"  client -> server   json certification request
    ACK     "A"  server -> client   json {id, status: queued|attached|replay, position}
    BUSY    "U"  server -> client   json {id, retry_after, queue_depth}
    DRAIN   "D"  server -> client   json {id, error: "draining"}
    EVENT   "E"  server -> client   json {id, event: <journal event>}
    RESULT  "T"  server -> client   json {id, report, summary, ok, ...}
    FAIL    "F"  server -> client   json {id, fault, error}
    BYE     "B"  either direction   empty

Every server->client message answers a request ``id``; a client that
reconnects after a drop resubmits the same ``id`` and the server replays
the stored frames instead of re-executing (idempotency).  Oversized or
malformed frames raise the typed :class:`~repro.runtime.remote.WireError`
from the shared parser — the service rejects on the *declared* length,
never allocating attacker-controlled sizes.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..runtime.remote import (  # noqa: F401  (re-exported for service users)
    HEADER_SIZE,
    RemoteProtocolError,
    WireError,
    _FrameBuffer,
    decode_message,
    encode_message,
    parse_address,
    recv_frame,
    send_frame,
)
from ..runtime.resilience import FAILURE_POLICIES

SERVICE_PROTOCOL_VERSION = 1

OP_REQUEST = b"Q"
OP_ACK = b"A"
OP_BUSY = b"U"
OP_DRAIN = b"D"
OP_EVENT = b"E"
OP_RESULT = b"T"
OP_FAIL = b"F"
OP_BYE = b"B"

SERVICE_OPS = frozenset(
    (OP_REQUEST, OP_ACK, OP_BUSY, OP_DRAIN, OP_EVENT, OP_RESULT, OP_FAIL, OP_BYE)
)

#: service frames are JSON, not batch specs: 16 MiB is generous for any
#: legitimate message and small enough that a forged header fails fast
DEFAULT_MAX_FRAME_BYTES = 1 << 24

#: admission-time ceilings — a single request may not monopolise the box
MAX_RUNS_PER_REQUEST = 100_000
MAX_N_PER_REQUEST = 1_000_000
MAX_UPDATES_PER_REQUEST = 10_000

REQUEST_KINDS = ("certify", "update")


def service_frame_buffer(
    max_frame_bytes: Optional[int] = None,
) -> _FrameBuffer:
    """An incremental parser restricted to the service opcode space."""
    return _FrameBuffer(
        max_frame_bytes=(
            DEFAULT_MAX_FRAME_BYTES if max_frame_bytes is None else max_frame_bytes
        ),
        known_ops=SERVICE_OPS,
    )


def _want(payload: Dict[str, Any], key: str, kind, default):
    value = payload.get(key, default)
    if isinstance(value, bool) and kind is not bool:
        raise ValueError(f"request field {key!r}: want {kind.__name__}, got bool")
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ValueError(
            f"request field {key!r}: want {kind.__name__}, got {type(value).__name__}"
        )
    return value


def validate_request(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize one REQUEST payload -> canonical request dict.

    Raises ``ValueError`` with an operator-readable message on any
    structural problem; task/adversary *existence* is checked later
    against the registry (a wrong name is a typed FAIL, not a wire
    error).
    """
    request_id = _want(payload, "id", str, "")
    if not request_id or len(request_id) > 128:
        raise ValueError("request field 'id': want a non-empty string (<= 128 chars)")
    kind = _want(payload, "kind", str, "certify")
    if kind not in REQUEST_KINDS:
        raise ValueError(f"request field 'kind': want one of {REQUEST_KINDS}")
    if kind == "update":
        return _validate_update(payload, request_id)
    task = _want(payload, "task", str, "")
    if not task:
        raise ValueError("request field 'task': want a non-empty string")
    runs = _want(payload, "runs", int, 100)
    if not 1 <= runs <= MAX_RUNS_PER_REQUEST:
        raise ValueError(f"request field 'runs': want 1..{MAX_RUNS_PER_REQUEST}")
    n = _want(payload, "n", int, 64)
    if not 1 <= n <= MAX_N_PER_REQUEST:
        raise ValueError(f"request field 'n': want 1..{MAX_N_PER_REQUEST}")
    policy = _want(payload, "failure_policy", str, "strict")
    if policy not in FAILURE_POLICIES:
        raise ValueError(
            f"request field 'failure_policy': want one of {FAILURE_POLICIES}"
        )
    run_timeout = payload.get("run_timeout")
    if run_timeout is not None:
        run_timeout = _want(payload, "run_timeout", float, None)
        if run_timeout <= 0:
            raise ValueError("request field 'run_timeout': want > 0")
    adversary = payload.get("adversary")
    if adversary is not None and not isinstance(adversary, str):
        raise ValueError("request field 'adversary': want a string or null")
    inject_faults = payload.get("inject_faults")
    if inject_faults is not None and not isinstance(inject_faults, str):
        raise ValueError("request field 'inject_faults': want a spec string or null")
    max_retries = _want(payload, "max_retries", int, 2)
    if max_retries < 0:
        raise ValueError("request field 'max_retries': want >= 0")
    return {
        "id": request_id,
        "kind": "certify",
        "task": task,
        "runs": runs,
        "n": n,
        "seed": _want(payload, "seed", int, 0),
        "c": _want(payload, "c", int, 2),
        "no_instance": _want(payload, "no_instance", bool, False),
        "adversary": adversary,
        "failure_policy": policy,
        "run_timeout": run_timeout,
        "max_retries": max_retries,
        "inject_faults": inject_faults,
        "target": None,
        "updates": None,
        "stream": _want(payload, "stream", bool, False),
        "client": _want(payload, "client", str, "anonymous"),
    }


def _validate_update(payload: Dict[str, Any], request_id: str) -> Dict[str, Any]:
    """Normalize one UPDATE request (kind="update").

    An UPDATE targets the long-lived dynamic instance of an existing
    request id and carries an explicit edge-update list — the client owns
    stream generation (usually from the shared seeded stream helpers), so
    the server never guesses.  Execution-identity fields it does not use
    are pinned to canonical defaults, keeping ``request_key`` uniform.
    """
    target = _want(payload, "target", str, "")
    if not target or len(target) > 128:
        raise ValueError(
            "request field 'target': want an existing request id (<= 128 chars)"
        )
    updates = payload.get("updates")
    if not isinstance(updates, list) or not updates:
        raise ValueError("request field 'updates': want a non-empty list")
    if len(updates) > MAX_UPDATES_PER_REQUEST:
        raise ValueError(
            f"request field 'updates': at most {MAX_UPDATES_PER_REQUEST} per request"
        )
    canonical = []
    for item in updates:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 3
            or item[0] not in ("insert", "delete")
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in item[1:])
        ):
            raise ValueError(
                f"request field 'updates': each entry is [op, u, v] with "
                f"op in ('insert', 'delete') and int endpoints; got {item!r}"
            )
        canonical.append([item[0], item[1], item[2]])
    return {
        "id": request_id,
        "kind": "update",
        "task": "",
        "runs": 1,
        "n": 1,
        "seed": 0,
        "c": 2,
        "no_instance": False,
        "adversary": None,
        "failure_policy": "strict",
        "run_timeout": None,
        "max_retries": 0,
        "inject_faults": None,
        "target": target,
        "updates": canonical,
        "stream": _want(payload, "stream", bool, False),
        "client": _want(payload, "client", str, "anonymous"),
    }


def request_key(request: Dict[str, Any]) -> Tuple:
    """The execution identity of a request (idempotency-conflict check).

    Two REQUESTs with one ``id`` must agree on this key; ``stream`` and
    ``client`` are delivery preferences, not identity.
    """
    updates = request.get("updates")
    return (
        request.get("kind", "certify"),
        request["task"],
        request["runs"],
        request["n"],
        request["seed"],
        request["c"],
        request["no_instance"],
        request["adversary"],
        request["failure_policy"],
        request["run_timeout"],
        request["max_retries"],
        request["inject_faults"],
        request.get("target"),
        None if updates is None else tuple(tuple(u) for u in updates),
    )
