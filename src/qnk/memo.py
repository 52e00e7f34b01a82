"""The one way qnk memoizes a function for the life of the process."""
import functools

REGISTRY = {}  # "<module>.<qualname>" -> lru_cache wrapper


def memo(maxsize):
    """Memoize in a `functools.lru_cache` of `maxsize` entries and record the
    wrapper in `REGISTRY`. The rule: the memo is bounded; it returns only
    immutable values, never a `RandomOracle` (whose query table would then
    outlive a call); and it never keeps an error, so a malformed input raises
    the same error on every call. A memo may be primed, called with a key
    that carries the value a cold call would compute (as
    `circuit_ir.SealedProgram.to_bytes` primes its decoder): a primed entry
    holds the same value as a cold call, and never an error. A memo thus
    changes no output byte. The wrapper is the `lru_cache` object itself, so
    a hit is one C lookup."""
    if type(maxsize) is not int or maxsize < 1:
        raise ValueError(f"memo needs a positive int maxsize, got {maxsize!r}")

    def register(fn):
        name = f"{fn.__module__.removeprefix('qnk.')}.{fn.__qualname__}"
        if name in REGISTRY:
            raise ValueError(f"memo {name} is declared twice")
        REGISTRY[name] = functools.lru_cache(maxsize=maxsize)(fn)
        return REGISTRY[name]
    return register
