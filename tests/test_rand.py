"""HMAC-SHA256, the Drbg and the PRG against references built on stdlib `hmac`.

Every stream in the toolkit is HMAC-SHA256 output, so these pin the bytes of
`rand._hmac`, `Drbg` and `primitives.prg` to the RFC 2104 construction as
Python's `hmac` module computes it, whatever `rand` does internally. The
memos of keyed states (`rand._keyed`) and of PRG pads (`primitives._prg`)
must stay bounded and safe to share, and a memo hit must return the bytes of
a miss.
"""
import hashlib
import hmac
import sys
import threading

import pytest

from qnk import primitives
from qnk.primitives import prg
from qnk.rand import Drbg, _hmac, _keyed

KEY_LENS = (0, 1, 16, 32, 63, 64, 65, 200)
MSG_LENS = (0, 1, 55, 64, 1000)
DRAWS = (0, 1, 31, 32, 33, 4096)


def ref_hmac(key, msg):
    return hmac.new(key, msg, hashlib.sha256).digest()


class RefDrbg:
    """The Drbg of FORMATS.md written out with `hmac.new`."""

    def __init__(self, seed=None, key=None):
        if key is None:
            if isinstance(seed, int):
                seed = seed.to_bytes(16, "big")
            elif isinstance(seed, str):
                seed = seed.encode()
            key = ref_hmac(b"qnk-drbg-v1", seed)
        self.key, self.counter = key, 0

    def child(self, label):
        return RefDrbg(key=ref_hmac(self.key, b"child:" + label.encode()))

    def bytes(self, n):
        out = b""
        while len(out) < n:
            out += ref_hmac(self.key, b"blk" + self.counter.to_bytes(8, "big"))
            self.counter += 1
        return out[:n]


def ref_prg(s, n):
    return b"".join(ref_hmac(s, i.to_bytes(4, "big")) for i in range((n + 31) // 32))[:n]


def pattern(n, salt=0):
    return bytes((7 * i + salt) % 256 for i in range(n))


def test_rfc4231_case_1():
    key, msg = b"\x0b" * 20, b"Hi There"
    assert _hmac(key, msg).hex() == (
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7")


def test_rfc4231_case_2():
    assert _hmac(b"Jefe", b"what do ya want for nothing?").hex() == (
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843")


@pytest.mark.parametrize("key_len", KEY_LENS)
@pytest.mark.parametrize("msg_len", MSG_LENS)
def test_hmac_matches_stdlib(key_len, msg_len):
    key, msg = pattern(key_len, 1), pattern(msg_len, 2)
    assert _hmac(key, msg) == ref_hmac(key, msg)


@pytest.mark.parametrize("seed", (0, 2 ** 64 - 1, "a label", b"", b"\xff" * 70))
def test_drbg_in_sequence(seed):
    d, ref = Drbg(seed), RefDrbg(seed)
    for n in DRAWS + DRAWS[::-1]:
        assert d.bytes(n) == ref.bytes(n)


def test_drbg_children():
    d, ref = Drbg(5), RefDrbg(5)
    d.bytes(33)
    ref.bytes(33)
    for label in ("keygen", "", "x" * 100):
        c, rc = d.child(label), ref.child(label)
        gc, rgc = c.child("inner"), rc.child("inner")
        for n in DRAWS:
            assert c.bytes(n) == rc.bytes(n)
            assert gc.bytes(n) == rgc.bytes(n)
    assert d.bytes(4096) == ref.bytes(4096)


def test_child_independent_of_parent_draws():
    fresh, used = Drbg(9), Drbg(9)
    used.bytes(100)
    assert fresh.child("c").bytes(64) == used.child("c").bytes(64)


@pytest.mark.parametrize("n", (0, 1, 31, 32, 33, 63, 64, 65, 1000, 4096, 2 ** 16))
@pytest.mark.parametrize("seed_len", (16, 32))
def test_prg_matches_reference(n, seed_len):
    s = pattern(seed_len, n % 256)
    assert prg(s, n) == ref_prg(s, n)


@pytest.mark.parametrize("n", (2 ** 16 - 33, 2 ** 16 - 32, 2 ** 16 - 1, 2 ** 16))
def test_prg_matches_reference_at_the_length_cap_on_a_miss_and_a_hit(n):
    s = pattern(16, n % 256)
    primitives._prg.cache_clear()
    assert prg(s, n) == ref_prg(s, n)
    assert primitives._prg.cache_info().misses == 1
    assert prg(s, n) == ref_prg(s, n)
    assert primitives._prg.cache_info().hits == 1


@pytest.mark.parametrize("n", (33, 64, 65, 4096))
def test_multi_block_draw_is_one_hmac_per_block(n):
    d, ref = Drbg(b"multi"), RefDrbg(b"multi")
    d.bytes(5)
    ref.bytes(5)
    assert d.bytes(n) == ref.bytes(n)
    assert d.bytes(32) == ref.bytes(32)   # the counter moved on by one per block


@pytest.mark.parametrize("blocks", (1, 2, 3, 4))
def test_short_prg_is_one_hmac_per_block(blocks):
    s = pattern(16, blocks)
    for n in (32 * blocks - 31, 32 * blocks):
        primitives._prg.cache_clear()
        assert prg(s, n) == ref_prg(s, n)


def test_keyed_memo_stays_bounded():
    for i in range(10_000):
        _hmac(i.to_bytes(4, "big"), b"m")
    info = _keyed.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_threads_sharing_one_key_agree():
    key, msgs = b"shared key", [pattern(n) for n in range(0, 200, 7)]
    want = [ref_hmac(key, m) for m in msgs]
    results = []

    def worker():
        results.append([_hmac(key, m) for _ in range(50) for m in msgs])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [want * 50] * 8
