"""The anchor: a frozen asyncio ping-pong server.

It answers every read with ``END\\r\\n`` and touches no code under
``src/``, so its round-trip time is the box's asyncio-streams + kernel
floor and nothing else.  The ledger records it beside every run
(``anchor_rtt_us``) so records from different machines and days can be
rescaled, and the traced run subtracts it (``server.server.stub_us``) to
see what the real server adds on top.  Do not optimise this file: its
value is that it never changes.
"""

from __future__ import annotations

import asyncio
import sys

REPLY = b"END\r\n"


async def _pong(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    try:
        while await reader.read(65536):
            writer.write(REPLY)
            await writer.drain()
    except (ConnectionResetError, BrokenPipeError):
        pass
    finally:
        writer.close()


async def serve(announce) -> None:
    """Bind an ephemeral loopback port, ``announce(port)``, serve forever."""
    server = await asyncio.start_server(_pong, "127.0.0.1", 0)
    announce(server.sockets[0].getsockname()[1])
    async with server:
        await server.serve_forever()


def main() -> int:
    def announce(port: int) -> None:
        print(f"serving stub on 127.0.0.1:{port}", flush=True)

    try:
        asyncio.run(serve(announce))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
