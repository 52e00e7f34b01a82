"""Deterministic randomness: every sampling operation in the toolkit draws from
an HMAC-SHA256 counter generator so that a seed fully determines all artifacts.

`_hmac` is the toolkit's one HMAC-SHA256, of one message. It starts from the
key's inner and outer SHA-256 states, precomputed once per key as RFC 2104 §4
suggests, instead of hashing the padded key again for every call; `_keyed`
memoizes those states. A caller that needs several blocks joins one `_hmac`
per block.
"""
from __future__ import annotations

import hashlib

from .memo import memo

_BLOCK = 64  # SHA-256 block size in bytes
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


@memo(256)
def _keyed(key: bytes) -> tuple:
    """The inner and outer SHA-256 states of HMAC under `key` (RFC 2104):
    a key longer than a block is hashed first, then zero-padded to a block.
    Callers copy the states and never update them, since every caller shares
    them."""
    if len(key) > _BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_BLOCK, b"\0")
    return hashlib.sha256(key.translate(_IPAD)), hashlib.sha256(key.translate(_OPAD))


def _hmac(key: bytes, msg: bytes) -> bytes:
    """HMAC-SHA256(key, msg), from the key's memoized inner and outer states."""
    inner, outer = _keyed(key)
    h = inner.copy()
    h.update(msg)
    o = outer.copy()
    o.update(h.digest())
    return o.digest()


class Drbg:
    """Seeded byte generator with labeled child streams.

    Child streams are independent of the parent's consumption order, which lets
    two code paths (e.g. keygen and trapdoor keygen) reproduce byte-identical
    sub-samples from the same seed.
    """

    def __init__(self, seed: bytes | int | str):
        if isinstance(seed, int):
            seed = seed.to_bytes(16, "big", signed=False)
        elif isinstance(seed, str):
            seed = seed.encode()
        self._key = _hmac(b"qnk-drbg-v1", seed)
        self._counter = 0

    def child(self, label: str) -> "Drbg":
        d = Drbg.__new__(Drbg)
        d._key = _hmac(self._key, b"child:" + label.encode())
        d._counter = 0
        return d

    def bytes(self, n: int) -> bytes:
        c = self._counter
        if 0 < n <= 32:
            self._counter = c + 1
            return _hmac(self._key, b"blk" + c.to_bytes(8, "big"))[:n]
        blocks = range(c, c + max(0, (n + 31) // 32))
        self._counter = blocks.stop
        return b"".join([_hmac(self._key, b"blk" + i.to_bytes(8, "big")) for i in blocks])[:n]

    def bit(self) -> int:
        return self.bytes(1)[0] & 1

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] via rejection sampling."""
        span = hi - lo + 1
        nbytes = (span.bit_length() + 7) // 8
        bound = (256 ** nbytes // span) * span
        while True:
            v = int.from_bytes(self.bytes(nbytes), "big")
            if v < bound:
                return lo + v % span

    def bits(self, n: int) -> list[int]:
        raw = self.bytes((n + 7) // 8)
        return [(raw[i // 8] >> (7 - i % 8)) & 1 for i in range(n)]
