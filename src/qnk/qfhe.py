"""Interface-faithful mock of quantum fully-homomorphic encryption with
classical keys.

Ciphertexts carry the plaintext sealed behind a key-derived pad; Eval opens
the sealing boundary internally, applies a function on bytes (which may call
the simulator), and reseals. Semantic security is modeled, not real: the mock
preserves dataflow so that provers can run under encryption. The scheme is
leveled; every Eval ticks a depth counter.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DepthExceeded, KeyMismatch
from .memo import memo
from .primitives import KEY_LEN
from .rand import Drbg, _hmac
from .wire import Reader, _seal_keyed, _unseal_keyed, pack_bytes, pack_u32, seal, unseal

DEFAULT_MAX_DEPTH = 8


@dataclass(frozen=True)
class QfheCiphertext:
    key_id: bytes
    payload: bytes       # nonce || body || tag, pad keyed off the wrapping key
    eval_depth: int = 0
    max_depth: int = DEFAULT_MAX_DEPTH

    def to_bytes(self) -> bytes:
        return (pack_bytes(self.key_id) + pack_bytes(self.payload)
                + pack_u32(self.eval_depth) + pack_u32(self.max_depth))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "QfheCiphertext":
        r = Reader(blob)
        ct = cls(r.field(), r.field(), r.u32(), r.u32())
        r.end()
        return ct


@memo(16)
def _sk_keys(sk: bytes) -> tuple[bytes, bytes]:
    """(key id, wrapping key) derived from sk."""
    return _hmac(sk, b"id")[:8], _hmac(sk, b"wrap")[:KEY_LEN]


@memo(16)
def _wrap_key_from_pk(pk: bytes) -> bytes:
    return unseal(pk[8:])


def qfhe_gen(drbg: Drbg) -> tuple[bytes, bytes]:
    """(pk, sk): pk is the key id (8 bytes) || the sealed wrapping key, sk
    16 bytes."""
    sk = drbg.bytes(KEY_LEN)
    key_id, wrap_key = _sk_keys(sk)
    return key_id + seal(wrap_key, b"qfhe-pk"), sk


def qfhe_enc(pk: bytes, m: bytes, drbg: Drbg) -> QfheCiphertext:
    wrap_key = _wrap_key_from_pk(pk)
    return QfheCiphertext(pk[:8], _seal_keyed(wrap_key, m, drbg.bytes(16)))


def qfhe_dec(sk: bytes, ct: QfheCiphertext) -> bytes:
    key_id, wrap_key = _sk_keys(sk)
    if key_id != ct.key_id:
        raise KeyMismatch("secret key does not match ciphertext")
    return _unseal_keyed(wrap_key, ct.payload)


def qfhe_eval(pk: bytes, C, ct: QfheCiphertext, drbg: Drbg) -> QfheCiphertext:
    """Homomorphic application of C, a callable bytes -> bytes, inside the
    sealing boundary, resealed under a fresh nonce from `drbg`."""
    if pk[:8] != ct.key_id:
        raise KeyMismatch("public key does not match ciphertext")
    if ct.eval_depth + 1 > ct.max_depth:
        raise DepthExceeded(f"evaluation depth {ct.eval_depth + 1} exceeds {ct.max_depth}")
    wrap_key = _wrap_key_from_pk(pk)
    m = _unseal_keyed(wrap_key, ct.payload)
    return QfheCiphertext(ct.key_id, _seal_keyed(wrap_key, C(m), drbg.bytes(16)),
                          ct.eval_depth + 1, ct.max_depth)
