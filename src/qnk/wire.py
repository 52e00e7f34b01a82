"""Canonical byte encodings, constant-key sealing, and artifact envelopes.

Every serialized field is big-endian length-prefixed (u32). Artifacts that
cross the CLI boundary travel inside an envelope:

    magic "QNK1" | version u16 | type tag (field) | payload (field) | digest

The digest is SHA-256 over everything before it and is verified on load.

Sealing hides embedded constants from casual inspection of serialized
programs. It is keyed by a fixed library constant: opacity here is an API
property (no accessor exposes the plaintext), not a cryptographic boundary,
and a fixed key keeps serialization byte-identical across runs for a fixed
seed. QFHE payloads use the same construction under their own wrap key.
"""
from __future__ import annotations

import hashlib
import struct

from .errors import BadDigest, BadMagic, MalformedCiphertext, VersionMismatch
from .primitives import _xor, prg
from .rand import _hmac

MAGIC = b"QNK1"
VERSION = 1

_SEAL_KEY = hashlib.sha256(b"qnk-seal-v1").digest()[:16]

_U32 = struct.Struct(">I")


# ---------------------------------------------------------------------------
# field packing


def pack_bytes(b: bytes) -> bytes:
    return len(b).to_bytes(4, "big") + b


def pack_u32(v: int) -> bytes:
    return v.to_bytes(4, "big")


def pack_fields(*fields: bytes) -> bytes:
    return b"".join(pack_bytes(f) for f in fields)


class Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise MalformedCiphertext("truncated encoding")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        try:
            (v,) = _U32.unpack_from(self.data, self.pos)
        except struct.error:  # fewer than 4 bytes left
            raise MalformedCiphertext("truncated encoding") from None
        self.pos += 4
        return v

    def field(self) -> bytes:
        end = self.u32() + self.pos
        if end > len(self.data):
            raise MalformedCiphertext("truncated encoding")
        start, self.pos = self.pos, end
        return self.data[start:end]

    def skip(self, expect: bytes) -> bool:
        """Consume `expect` if the data continues with it."""
        if self.data.startswith(expect, self.pos):
            self.pos += len(expect)
            return True
        return False

    def done(self) -> bool:
        return self.pos == len(self.data)

    def end(self) -> None:
        if self.pos != len(self.data):
            raise MalformedCiphertext("trailing bytes after final field")


def fixed(f: bytes, n: int) -> bytes:
    """A fixed-width field (a count, a byte tuple, a u32), exactly `n` bytes."""
    if len(f) != n:
        raise MalformedCiphertext(f"field must be {n} bytes, got {len(f)}")
    return f


def utf8(f: bytes) -> str:
    """A name field (protocol, variant, mode, language), which must be UTF-8."""
    try:
        return f.decode()
    except UnicodeDecodeError as e:
        raise MalformedCiphertext("name field is not UTF-8") from e


def choice(f: bytes, names) -> str:
    """A name field from the closed set `names`: a name outside it would
    otherwise fall through to some default branch."""
    name = utf8(f)
    if name not in names:
        raise MalformedCiphertext("name field outside its set")
    return name


def unpack_fields(data: bytes, n: int) -> list[bytes]:
    r = Reader(data)
    out = [r.field() for _ in range(n)]
    r.end()
    return out


# ---------------------------------------------------------------------------
# sealing


def _seal_keyed(key: bytes, data: bytes, nonce: bytes) -> bytes:
    """nonce(16) || data XOR pad || tag(16), pad and tag keyed by `key`."""
    body = _xor(data, prg(_hmac(key, b"pad" + nonce)[:16], len(data)))
    return nonce + body + _hmac(key, b"tag" + nonce + body)[:16]


def _unseal_keyed(key: bytes, blob: bytes) -> bytes:
    if len(blob) < 32:
        raise MalformedCiphertext("sealed blob too short")
    nonce, body, tag = blob[:16], blob[16:-16], blob[-16:]
    if _hmac(key, b"tag" + nonce + body)[:16] != tag:
        raise MalformedCiphertext("sealed blob failed integrity check")
    return _xor(body, prg(_hmac(key, b"pad" + nonce)[:16], len(body)))


def seal(data: bytes, context: bytes = b"") -> bytes:
    """`context` only feeds the nonce, so `unseal` takes none."""
    return _seal_keyed(_SEAL_KEY, data, _hmac(_SEAL_KEY, b"nonce" + context + data)[:16])


def unseal(blob: bytes) -> bytes:
    return _unseal_keyed(_SEAL_KEY, blob)


# ---------------------------------------------------------------------------
# envelopes


def envelope(type_tag: str, payload: bytes) -> bytes:
    head = MAGIC + VERSION.to_bytes(2, "big") + pack_bytes(type_tag.encode()) + pack_bytes(payload)
    return head + hashlib.sha256(head).digest()


def open_envelope(blob: bytes, expect_tag: str | None = None) -> tuple[str, bytes]:
    if len(blob) < 4 or blob[:4] != MAGIC:
        raise BadMagic("missing QNK1 magic")
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise BadDigest("envelope digest mismatch")
    r = Reader(body)
    r.take(4)
    version = int.from_bytes(r.take(2), "big")
    if version != VERSION:
        raise VersionMismatch(f"envelope version {version}, expected {VERSION}")
    tag = utf8(r.field())
    payload = r.field()
    r.end()
    if expect_tag is not None and tag != expect_tag:
        raise VersionMismatch(f"envelope holds {tag!r}, expected {expect_tag!r}")
    return tag, payload
