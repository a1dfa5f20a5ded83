"""In-memory doubles for the sync service, used by packstore tests.

FakeSyncService implements the same contract a SyncClient exposes to the
uploader (create_session / blob_offset / put_chunk / commit) but keeps
blobs in dicts, so FSM and crash tests run without sockets. Fault hooks
let a test fail any call deterministically.
"""

from __future__ import annotations

import hashlib

from roadsense.errors import NetworkError
from roadsense.packstore import OffsetMismatch, ServerRejected


class Killed(BaseException):
    """Raised by KillSwitch to simulate a process dying mid-upload.

    Derives from BaseException so uploader error handling (which catches
    NetworkError/ServerRejected) cannot swallow it, same as a real kill.
    """


class KillSwitch:
    """Observer that raises Killed after the n-th observed transition."""

    def __init__(self, after: int):
        self.after = after
        self.seen = 0

    def __call__(self, kind: str, **kw) -> None:
        self.seen += 1
        if self.seen >= self.after:
            raise Killed(f"killed at persistence point {self.seen}")


class FakeSyncService:
    """Server-side double with durable-offset semantics.

    put_chunk appends only at the durable offset; anything else raises
    OffsetMismatch carrying the durable offset, like the wire protocol's
    416. ``fail_next`` holds exceptions to raise before specific calls:
    a list of (method_name, exception) consumed in order.
    """

    def __init__(self, manifest):
        self.manifest = manifest
        self.blobs = {b.name: bytearray() for b in manifest.blobs}
        self.committed = False
        self.commit_count = 0
        self.fail_next: list[tuple[str, Exception]] = []
        self.calls: list[str] = []
        self.appended_bytes = 0  # every byte accepted, for exactly-once audits
        self.offered_bytes = 0  # every byte passed to put_chunk, replays included

    def _maybe_fail(self, method: str) -> None:
        self.calls.append(method)
        if self.fail_next and self.fail_next[0][0] == method:
            _, exc = self.fail_next.pop(0)
            raise exc

    # -- client contract ----------------------------------------------------

    def create_session(self, manifest) -> dict:
        self._maybe_fail("create_session")
        if manifest.package_id != self.manifest.package_id:
            raise ServerRejected("unknown package")
        return {
            "package_id": manifest.package_id,
            "status": "committed" if self.committed else "open",
            "blobs": {name: len(buf) for name, buf in self.blobs.items()},
        }

    def blob_offset(self, package_id: str, name: str) -> int:
        self._maybe_fail("blob_offset")
        return len(self.blobs[name])

    def put_chunk(self, package_id: str, name: str, offset: int, data: bytes) -> int:
        self._maybe_fail("put_chunk")
        self.offered_bytes += len(data)
        buf = self.blobs[name]
        durable = len(buf)
        if offset + len(data) <= durable:
            return durable
        if offset != durable:
            raise OffsetMismatch(durable)
        declared = self.manifest.blob(name).bytes
        if durable + len(data) > declared:
            raise ServerRejected(f"chunk exceeds declared size {declared}")
        buf.extend(data)
        self.appended_bytes += len(data)
        return len(buf)

    def commit(self, package_id: str) -> dict:
        self._maybe_fail("commit")
        for b in self.manifest.blobs:
            if len(self.blobs[b.name]) != b.bytes:
                raise ServerRejected(f"blobs incomplete: {b.name}")
            if hashlib.sha256(bytes(self.blobs[b.name])).hexdigest() != b.sha256:
                raise ServerRejected(f"digest mismatch: {b.name}")
        self.committed = True
        self.commit_count += 1
        return {"commit_seq": self.commit_count, "package_id": package_id}

    def close(self) -> None:
        pass


class DroppyService(FakeSyncService):
    """FakeSyncService that accepts a prefix of one chunk, then raises
    NetworkError, so the client never sees the ack for bytes the server
    kept. Exercises server-authoritative resume."""

    def __init__(self, manifest, drop_after_bytes: int):
        super().__init__(manifest)
        self.drop_after_bytes = drop_after_bytes
        self.dropped = False

    def put_chunk(self, package_id: str, name: str, offset: int, data: bytes) -> int:
        if (
            not self.dropped
            and self.appended_bytes < self.drop_after_bytes <= self.appended_bytes + len(data)
        ):
            keep = self.drop_after_bytes - self.appended_bytes
            if keep > 0:
                super().put_chunk(package_id, name, offset, data[:keep])
            self.dropped = True
            raise NetworkError("connection lost mid-chunk")
        return super().put_chunk(package_id, name, offset, data)
