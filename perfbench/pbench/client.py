"""A minimal keep-alive HTTP/1.1 JSON client over asyncio streams.

The load generator needs exactly one thing from a client library: send a
request on an already-open connection and read back a Content-Length
framed JSON response, with no per-request connection setup. The standard
library has no asyncio HTTP client, so this is that, and nothing more.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any


class HttpConnection:
    """One persistent loopback connection; requests run strictly in turn."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "HttpConnection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        *,
        request_id: str | None = None,
    ) -> tuple[int, Any]:
        """Send one request and return ``(status, decoded JSON body)``."""
        head = [
            f"{method} {path} HTTP/1.1",
            "Host: localhost",
            f"Content-Length: {len(body)}",
        ]
        if body:
            head.append("Content-Type: application/json")
        if request_id is not None:
            head.append(f"X-Request-ID: {request_id}")
        self._writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split(b" ", 2)[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        payload = await self._reader.readexactly(length) if length else b""
        return status, json.loads(payload) if payload else None

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
