"""Shared stdlib-asyncio HTTP/1.1 primitives of the serving tier.

One request per connection, ``Content-Length`` bodies, ``Connection:
close`` — deliberately minimal, because both ends of every hop are ours.
:class:`~repro.service.server.AssignServer` (the shard) and
:class:`~repro.fleet.gateway.Gateway` (the front end) parse and emit
exactly the same bytes through these helpers, which is what makes the
gateway's error passthrough *byte*-compatible: a shard's 429/504/409
body is relayed as the raw blob it arrived as, re-framed by the same
serializer that produced it.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 502: "Bad Gateway",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

JSON_CONTENT_TYPE = "application/json"
TEXT_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class HttpError(Exception):
    """A request the server refuses before routing (maps to ``status``)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _parse_headers(lines) -> Dict[str, str]:
    """``Name: value`` lines -> dict with lower-cased names."""
    headers: Dict[str, str] = {}
    for line in lines:
        if ":" in line:
            key, value = line.split(":", 1)
            headers[key.strip().lower()] = value.strip()
    return headers


async def read_request(
    reader: asyncio.StreamReader,
    max_body_bytes: int,
    header_timeout_seconds: float,
) -> Tuple[str, str, Dict[str, str], bytes]:
    """Parse one request; returns ``(method, path, headers, body)``.

    Header names are lower-cased; the query string is stripped from the
    path.  ``header_timeout_seconds`` bounds the whole read, head and
    body together: a client that stalls anywhere gets a 408.  Raises
    :class:`HttpError` for anything refusable (the caller answers with
    the error status) and lets connection-level exceptions
    (``IncompleteReadError``, ...) propagate — those mean there is no
    client left to answer.
    """
    deadline = asyncio.get_running_loop().time() + header_timeout_seconds
    try:
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=header_timeout_seconds
        )
    except asyncio.LimitOverrunError:
        raise HttpError(413, "headers too large")
    except asyncio.TimeoutError:
        raise HttpError(408, "timed out reading request head")
    try:
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        method, path, _version = request_line.split(" ", 2)
    except ValueError:
        raise HttpError(400, "malformed request line")
    headers = _parse_headers(header_lines)
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise HttpError(400, f"bad Content-Length {length_text!r}")
    if length < 0 or length > max_body_bytes:
        raise HttpError(
            413, f"body of {length} bytes exceeds {max_body_bytes}"
        )
    body = b""
    if length:
        remaining = deadline - asyncio.get_running_loop().time()
        try:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout=max(remaining, 0.0)
            )
        except asyncio.TimeoutError:
            raise HttpError(408, "timed out reading request body")
    return method, path.split("?", 1)[0], headers, body


def serialize_payload(payload: Any) -> Tuple[bytes, str]:
    """JSON-or-text payload -> ``(body bytes, content type)``."""
    if isinstance(payload, str):
        return payload.encode("utf-8"), TEXT_CONTENT_TYPE
    return (json.dumps(payload) + "\n").encode("utf-8"), JSON_CONTENT_TYPE


async def respond(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Any,
    headers: Optional[Dict[str, str]] = None,
) -> None:
    """Serialize and send one response (str -> text, anything else -> JSON)."""
    blob, content_type = serialize_payload(payload)
    await respond_raw(writer, status, blob, content_type, headers)


async def respond_raw(
    writer: asyncio.StreamWriter,
    status: int,
    blob: bytes,
    content_type: str,
    headers: Optional[Dict[str, str]] = None,
) -> None:
    """Send pre-serialized body bytes verbatim (the passthrough path)."""
    lines = [
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(blob)}",
        "Connection: close",
    ]
    for key, value in (headers or {}).items():
        lines.append(f"{key}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + blob)
    try:
        await writer.drain()
    except ConnectionError:  # client went away mid-response
        pass
    writer.close()


async def exchange(
    address: Tuple[str, int],
    method: str,
    path: str,
    body: bytes = b"",
    headers: Optional[Dict[str, str]] = None,
    timeout: float = 300.0,
    connect_timeout: Optional[float] = None,
) -> Tuple[int, Dict[str, str], bytes]:
    """One client exchange; returns ``(status, headers, raw body)``.

    Response header names are lower-cased.  ``timeout`` bounds each read
    and ``connect_timeout`` (default: ``timeout``) the connect.  Reads
    the head, then exactly ``Content-Length`` body bytes — never to EOF:
    solver worker processes forked mid-request inherit the server's
    accepted socket, so the connection only sees FIN when those
    long-lived workers exit, and read-to-EOF would hang.
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(*address),
        timeout=timeout if connect_timeout is None else connect_timeout,
    )
    try:
        extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {address[0]}:{address[1]}\r\n"
            f"Content-Type: {JSON_CONTENT_TYPE}\r\n"
            f"Content-Length: {len(body)}\r\n"
            + extra
            + "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        header_blob = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=timeout
        )
        status_line, *header_lines = (
            header_blob[:-4].decode("latin-1").split("\r\n")
        )
        status = int(status_line.split(" ", 2)[1])
        resp_headers = _parse_headers(header_lines)
        length = int(resp_headers.get("content-length", "0") or "0")
        blob = (
            await asyncio.wait_for(reader.readexactly(length), timeout=timeout)
            if length else b""
        )
        return status, resp_headers, blob
    finally:
        writer.close()
