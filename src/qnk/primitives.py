"""Concrete symmetric primitives at toy scale (128-bit keys).

Contents: a keyed PRF, a GGM-tree puncturable PRF, a counter-mode PRG, an
unkeyed one-way function, a perfectly binding commitment, a programmable
random oracle with three operating modes, and a sometimes-binding
statistically hiding (SBSH) commitment with a public binding predicate.

All constructions sit on SHA-256 / HMAC-SHA256. The "quantum security" of the
PRF is a modeling assumption, recorded here and not in code: oracle access is
classical throughout.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import (
    DomainMismatch,
    LengthTooLarge,
    MessageTooLong,
    NotBinding,
    PuncturedPoint,
)
from .memo import memo
from .rand import Drbg, _hmac

KEY_LEN = 16  # toy security parameter: 128 bits
DIGEST_LEN = 32
GGM_DOMAINS = (8, 16, 32)


def _sha(msg: bytes) -> bytes:
    return hashlib.sha256(msg).digest()


def _xor(a: bytes, b: bytes) -> bytes:
    """XOR of two byte strings of equal length."""
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


# ---------------------------------------------------------------------------
# PRF / PRG / OWF


@dataclass(frozen=True)
class PrfKey:
    """16-byte key; domain_bits 0 means variable-length byte-string inputs,
    otherwise a fixed n-bit GGM tree domain."""

    bytes: bytes
    domain_bits: int = 0

    def __post_init__(self):
        if len(self.bytes) != KEY_LEN:
            raise DomainMismatch(f"key must be {KEY_LEN} bytes, got {len(self.bytes)}")
        if self.domain_bits not in (0,) + GGM_DOMAINS:
            raise DomainMismatch(f"unsupported domain width {self.domain_bits}")


def prf_gen(drbg: Drbg, domain_bits: int = 0) -> PrfKey:
    return PrfKey(drbg.bytes(KEY_LEN), domain_bits)


def prf_eval(k: PrfKey, x: bytes) -> bytes:
    """Keyed PRF on byte strings, 16-byte output."""
    return _hmac(k.bytes, x)[:KEY_LEN]


def prg(s: bytes, out_len: int) -> bytes:
    """Counter-mode expansion of a 16-byte seed: block i = HMAC(s, i).

    Injective on seeds except with negligible probability (block 0 alone is a
    PRF image of the seed).

    Block i for i >= 1 is also PBKDF2-HMAC-SHA256 block T_i of password s
    with an empty salt and one iteration (RFC 8018 §5.2: T_i = U_1 =
    HMAC(P, S || INT32_BE(i))). So a pad of 5 or more blocks computes block 0
    with `_hmac` and the rest in one `hashlib.pbkdf2_hmac` call, inside
    OpenSSL; a pad of 4 blocks or fewer keeps the `_hmac` loop, which is
    faster there than PBKDF2's set-up. Both give the same bytes.

    `_prg` memoizes the pads, so `unseal` reuses the pad that `seal` expanded
    from the same nonce. The length is checked before the memo.
    """
    if out_len > 2 ** 16:
        raise LengthTooLarge(f"requested {out_len} bytes > 65536")
    return _prg(s, out_len)


@memo(16)
def _prg(s: bytes, out_len: int) -> bytes:
    n = (out_len + 31) // 32
    if n <= 4:
        return b"".join([_hmac(s, i.to_bytes(4, "big")) for i in range(n)])[:out_len]
    return _hmac(s, bytes(4)) + hashlib.pbkdf2_hmac("sha256", s, b"", 1, out_len - 32)


def owf(x: bytes) -> bytes:
    """Unkeyed one-way function: plain SHA-256 digest."""
    return _sha(x)


# ---------------------------------------------------------------------------
# GGM puncturable PRF

# Length-doubling expander: G(s) = (G0(s), G1(s)), each half a truncated digest.


def _g_child(s: bytes, bit: int) -> bytes:
    return _sha(s + bytes([bit]))[:KEY_LEN]


def _as_point(x, n: int) -> int:
    if isinstance(x, bytes):
        if len(x) != n // 8:
            raise DomainMismatch(f"input must be {n // 8} bytes for an {n}-bit domain")
        x = int.from_bytes(x, "big")
    if not 0 <= x < (1 << n):
        raise DomainMismatch(f"input {x} out of range for an {n}-bit domain")
    return x


@dataclass(frozen=True)
class PuncturedKey:
    """Sibling subkeys along the GGM path to the removed point, root level first."""

    path_keys: tuple[tuple[int, bytes], ...]  # (level, sibling subkey), level 1-based
    point: int
    domain_bits: int

    def __post_init__(self):
        if len(self.path_keys) != self.domain_bits:
            raise DomainMismatch("punctured key must carry one sibling per tree level")
        if not 0 <= self.point < 1 << self.domain_bits:
            raise DomainMismatch(f"punctured point {self.point:#x} outside the domain")


def ggm_eval(k: PrfKey, x) -> bytes:
    """Walk the GGM tree from the root key: leaf = G_{x_n}(...G_{x_1}(k))."""
    n = k.domain_bits
    if n not in GGM_DOMAINS:
        raise DomainMismatch(f"key domain {n} is not a GGM domain")
    x = _as_point(x, n)
    s = k.bytes
    for i in range(n):
        s = _g_child(s, (x >> (n - 1 - i)) & 1)
    return s


def ggm_punct(k: PrfKey, z) -> PuncturedKey:
    """Remove one point: keep the sibling subkey at every level of z's path."""
    n = k.domain_bits
    if n not in GGM_DOMAINS:
        raise DomainMismatch(f"key domain {n} is not a GGM domain")
    z = _as_point(z, n)
    path = []
    s = k.bytes
    for i in range(n):
        bit = (z >> (n - 1 - i)) & 1
        path.append((i + 1, _g_child(s, 1 - bit)))
        s = _g_child(s, bit)
    return PuncturedKey(tuple(path), z, n)


def ggm_eval_punct(kz: PuncturedKey, x) -> bytes:
    n = kz.domain_bits
    x = _as_point(x, n)
    if x == kz.point:
        raise PuncturedPoint(f"evaluation at the removed point {x:#x}")
    # x != point, so some bit differs; the highest one (bit n - 1 - i) is
    # level i, where x departs from the punctured path
    i = n - (x ^ kz.point).bit_length()
    s = kz.path_keys[i][1]
    for j in range(i + 1, n):
        s = _g_child(s, (x >> (n - 1 - j)) & 1)
    return s


# ---------------------------------------------------------------------------
# Perfectly binding commitment (binding rests on PRG seed-injectivity plus
# keyed-hash collision resistance; computational at this scale)


def commit(m: bytes, r: bytes) -> bytes:
    """The 64-byte commitment PRG(r) || HMAC(r, m)."""
    if len(m) > 64:
        raise MessageTooLong(f"message of {len(m)} bytes exceeds 64")
    if len(r) != KEY_LEN:
        raise DomainMismatch("commitment randomness must be 16 bytes")
    return prg(r, DIGEST_LEN) + _hmac(r, m)


def verify_open(c: bytes, m: bytes, r: bytes) -> bool:
    try:
        return commit(m, r) == c
    except MessageTooLong:
        return False


# ---------------------------------------------------------------------------
# Programmable random oracle

MODE_UNIFORM = "UNIFORM"
MODE_TDGEN = "TDGEN"
MODE_SIMGEN = "SIMGEN"


class RandomOracle:
    """Lazily memoized oracle with 129-bit answers (16 bytes + 1 bit).

    UNIFORM answers are (G(x), I(x)) keyed by the seed. TDGEN replaces the last
    bit with F(td, x) XOR verify(x); SIMGEN with F(td, x) alone. The first 16
    bytes agree bit-exactly across all three modes for a fixed seed.

    `table` memoizes the answers: each input is answered once, and since the
    answers are deterministic a repeated query returns the same bytes. A
    TDGEN oracle also keeps, in `verdicts`, the bit verify(x) & 1 it masked
    into each answer, which `cvqc.td_verify` under the oracle's own key
    reads instead of recomputing F(td, x). SIMGEN and UNIFORM oracles keep
    nothing more: a SIMGEN bit masks no verdict.
    """

    def __init__(self, seed: bytes, mode: str = MODE_UNIFORM,
                 td: PrfKey | None = None, verify_closure=None):
        if len(seed) != KEY_LEN:
            raise DomainMismatch("oracle seed must be 16 bytes")
        if mode not in (MODE_UNIFORM, MODE_TDGEN, MODE_SIMGEN):
            raise DomainMismatch(f"unknown oracle mode {mode!r}")
        if mode in (MODE_TDGEN, MODE_SIMGEN) and td is None:
            raise DomainMismatch(f"{mode} mode requires a trapdoor key")
        if mode == MODE_TDGEN and verify_closure is None:
            raise DomainMismatch("TDGEN mode requires a verify closure")
        self.seed = seed
        self.mode = mode
        self.td = td
        self.verify_closure = verify_closure
        self.table: dict[bytes, bytes] = {}
        self.verdicts: dict[bytes, int] = {}  # TDGEN only

    def _answer(self, x: bytes) -> bytes:
        prefix = _hmac(self.seed, b"G" + x)[:KEY_LEN]
        if self.mode == MODE_UNIFORM:
            bit = _hmac(self.seed, b"I" + x)[0] & 1
        elif self.mode == MODE_SIMGEN:
            bit = prf_eval(self.td, x)[0] & 1
        else:
            verdict = self.verdicts[x] = self.verify_closure(x) & 1
            bit = (prf_eval(self.td, x)[0] & 1) ^ verdict
        return prefix + bytes([bit])

    def query(self, x: bytes) -> bytes:
        got = self.table.get(x)
        if got is not None:
            return got
        return self.table.setdefault(x, self._answer(x))


def ro_query(oracle: RandomOracle, x: bytes) -> bytes:
    """17-byte oracle answer: 16-byte prefix plus one trailing bit-byte."""
    return oracle.query(x)


# ---------------------------------------------------------------------------
# SBSH commitment: statistically hiding, binding exactly when the public
# predicate on (ck0, ck1) fires (probability 2^-t over fresh ck1)

SBSH_DEFAULT_T = 4


def sbsh_gen(drbg: Drbg) -> tuple[bytes, bytes]:
    """Returns (ck0, gen_rand); ck0 is a digest of the hidden randomness."""
    gen_rand = drbg.bytes(KEY_LEN)
    ck0 = _hmac(gen_rand, b"ck0")[:KEY_LEN]
    return ck0, gen_rand


def sbsh_key(drbg: Drbg) -> bytes:
    return drbg.bytes(KEY_LEN)


def sbsh_is_binding(ck0: bytes, ck1: bytes) -> bool:
    """Public predicate: the first SBSH_DEFAULT_T bits of H(ck0 || ck1) are zero."""
    return int.from_bytes(_sha(ck0 + ck1), "big") >> 256 - SBSH_DEFAULT_T == 0


def _binding_pad(ck0: bytes, ck1: bytes, r: bytes, n: int) -> bytes:
    kpad = _hmac(ck0, b"bind" + ck1)[:KEY_LEN]
    return prg(_hmac(kpad, r)[:KEY_LEN], n)


def _hiding_pad(ck0: bytes, ck1: bytes, r: bytes, n: int) -> bytes:
    return prg(_hmac(r, b"hide" + ck0 + ck1)[:KEY_LEN], n)


def sbsh_com(ck0: bytes, ck1: bytes, m: bytes, r: bytes) -> bytes:
    """Commitment is r || (m XOR pad). The pad is keyed off (ck0, ck1) when the
    keys are binding (so the extractor can recompute it) and off fresh r
    otherwise (so the transcript distribution is message-independent)."""
    if len(r) != KEY_LEN:
        raise DomainMismatch("commitment randomness must be 16 bytes")
    if sbsh_is_binding(ck0, ck1):
        pad = _binding_pad(ck0, ck1, r, len(m))
    else:
        pad = _hiding_pad(ck0, ck1, r, len(m))
    return r + _xor(m, pad)


def sbsh_ext(gen_rand: bytes, ck0: bytes, ck1: bytes, c: bytes) -> bytes:
    """Extract the committed message; only defined on binding key pairs."""
    if not sbsh_is_binding(ck0, ck1):
        raise NotBinding("key pair is outside the binding event")
    if _hmac(gen_rand, b"ck0")[:KEY_LEN] != ck0:
        raise NotBinding("generation randomness does not match ck0")
    r, ct = c[:KEY_LEN], c[KEY_LEN:]
    return _xor(ct, _binding_pad(ck0, ck1, r, len(ct)))
