"""Deterministic seeded randomness: addressed streams and gamma sampling.

Randomness is organized around :class:`RngStream`: an immutable handle
addressed by ``(master_seed, path)`` where ``path`` is a sequence of labels
such as ``("rep", 17, "weights", 3)``.  Two streams with the same address
produce bit-identical output; streams with different addresses are
statistically independent.  This makes replicated Monte Carlo runs
reproducible regardless of execution order or batching: every logical task
derives its own stream from its index instead of sharing generator state.

A stream *is* ``Philox(SeedSequence(master_seed, spawn_key=<encoded
path>))``, numpy's own bit source and seeding (NEP 19 keeps SeedSequence's
algorithm stable).  :meth:`RngStream.children` derives the streams of
replications 0 to stop - 1 at once: numpy mixes the shared path prefix into
its SeedSequence pool once, and this module continues that published mixing
over the trailing index, one 32-bit word below ``stop <= 2**32``, as an
array, so each batched stream draws exactly what ``child(*labels, r)``
would.  String labels enter the key via a SHA-256 prefix (Python's builtin
``hash`` is salted per process and must not be used here); integer labels
pass through tagged, so the int ``5`` and the string ``"5"`` derive
different streams.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

PathLabel = Union[int, str]

_MAX_SEED = 2**64


def _encode_path(path: Sequence[PathLabel]) -> tuple[int, ...]:
    """Encode a label path as a type-tagged tuple of non-negative ints."""
    words: list[int] = []
    for label in path:
        if isinstance(label, bool):
            raise TypeError("path labels must be ints or strings, not bool")
        if isinstance(label, (int, np.integer)):
            if label < 0:
                raise ValueError(f"negative path index: {label}")
            words.append(0)
            words.append(int(label))
        elif isinstance(label, str):
            digest = hashlib.sha256(label.encode("utf-8")).digest()
            words.append(1)
            words.append(int.from_bytes(digest[:8], "big"))
        else:
            raise TypeError(f"path labels must be ints or strings, got {type(label).__name__}")
    return tuple(words)


# Constants of numpy's SeedSequence (NEP 19 keeps its algorithm stable).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


# The mixing steps below continue SeedSequence over a vector of trailing
# replication indices: they take Python ints or uint64 arrays holding 32-bit
# values and mask after every product.


def _hashmix(value, const: int):
    value = value ^ const
    const = (const * _MULT_A) & _MASK32
    value = (value * const) & _MASK32
    return value ^ (value >> 16), const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _absorb(pool: list, const: int, word) -> tuple[list, int]:
    """Mix one entropy word beyond the pool size into every pool word."""
    mixed = []
    for value in pool:
        hashed, const = _hashmix(word, const)
        mixed.append(_mix(value, hashed))
    return mixed, const


def _philox_key(pool: list):
    """``generate_state(2, np.uint64)`` of the pool: the 128-bit Philox key."""
    const = _INIT_B
    state = []
    for value in pool:
        value = value ^ const
        const = (const * _MULT_B) & _MASK32
        value = (value * const) & _MASK32
        state.append(value ^ (value >> 16))
    return state[0] | (state[1] << 32), state[2] | (state[3] << 32)


class _PhiloxKey(ISeedSequence):
    """A seed sequence that hands Philox a key derived in this module.

    ``np.random.Philox(seed_sequence)`` asks it for ``generate_state(2,
    np.uint64)`` and keys itself with the result, so the generator equals
    one seeded by the ``SeedSequence`` the key was computed from.
    """

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a derived Philox key answers only generate_state(2, uint64)")
        return np.array(self.key, dtype=np.uint64)


class RngStream:
    """Immutable handle for one deterministic random stream.

    The handle itself (seed + path) never changes; drawing from
    ``generator`` advances internal state, so a single instance should be
    consumed by one logical task at a time.  Derive children for parallel
    work instead of sharing an instance.
    """

    __slots__ = ("master_seed", "path", "generator")

    def __init__(self, master_seed: int, path: Sequence[PathLabel] = ()):
        if not isinstance(master_seed, (int, np.integer)) or isinstance(master_seed, bool):
            raise TypeError("master_seed must be an integer")
        if not 0 <= master_seed < _MAX_SEED:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        path = tuple(path)
        seed_sequence = np.random.SeedSequence(int(master_seed), spawn_key=_encode_path(path))
        self._set(int(master_seed), path, seed_sequence)

    def _set(self, master_seed: int, path: tuple, seed_sequence) -> None:
        object.__setattr__(self, "master_seed", master_seed)
        object.__setattr__(self, "path", path)
        generator = np.random.Generator(np.random.Philox(seed_sequence))
        object.__setattr__(self, "generator", generator)

    def __setattr__(self, name, value):
        raise AttributeError("RngStream handles are immutable after derivation")

    def child(self, *labels: PathLabel) -> "RngStream":
        """Derive the stream addressed by this path extended with `labels`."""
        return RngStream(self.master_seed, self.path + labels)

    def _child_keys(self, labels: tuple, stop: int) -> np.ndarray:
        """Philox keys of ``child(*labels, r)`` for r in range(stop), as a
        (stop, 2) uint64 array.

        numpy's SeedSequence mixes the path prefix once; only the word of
        the trailing index r runs here, as an array over r.  The prefix's
        seed words take 16 hash steps (an empty prefix leaves them unpadded,
        which mixes the same pool) and each of its w spawn-key words four
        more, so the hash constant resumes at ``_INIT_A * _MULT_A**(16 + 4 w)``.
        Every r is one 32-bit word, so `stop` is at most 2**32, far above
        any run's count (``dynamics.MAX_STEPS``).
        """
        if not 0 <= stop <= 2**32:
            raise ValueError(f"need 0 <= stop <= 2**32, got {stop}")
        key = _encode_path(self.path + labels)
        words = sum((value.bit_length() + 31) // 32 or 1 for value in key)
        pool = np.random.SeedSequence(self.master_seed, spawn_key=key).pool.tolist()
        const = (_INIT_A * pow(_MULT_A, 16 + 4 * words, 2**32)) & _MASK32
        pool, const = _absorb(pool, const, 0)  # the int tag of r
        pool, _ = _absorb(pool, const, np.arange(stop, dtype=np.uint64))
        return np.column_stack(_philox_key(pool))

    def _keyed_children(self, labels: tuple, start: int, keys: np.ndarray) -> list["RngStream"]:
        """The streams ``child(*labels, start + i)`` keyed by ``keys[i]``."""
        streams = []
        base = self.path + labels
        for i, key in enumerate(keys.tolist()):
            stream = object.__new__(RngStream)
            stream._set(self.master_seed, base + (start + i,), _PhiloxKey(key))
            streams.append(stream)
        return streams

    def children(self, *labels: PathLabel, stop: int) -> list["RngStream"]:
        """``[child(*labels, r) for r in range(stop)]``, bit for bit, with the
        derivation batched over r."""
        return self._keyed_children(labels, 0, self._child_keys(labels, stop))

    def child_chunks(
        self, *labels: PathLabel, stop: int, size: int
    ) -> Iterator[tuple[int, list["RngStream"]]]:
        """Yield ``(start, children(*labels, stop=stop)[start : start + size])``
        for start = 0, size, 2 size, ... below `stop` (the last chunk may be
        shorter).  Every key is derived in one batch up front; only one
        chunk's generators are alive at a time.
        """
        if size < 1:
            raise ValueError(f"chunk size must be >= 1, got {size}")
        keys = self._child_keys(labels, stop)
        for start in range(0, stop, size):
            yield start, self._keyed_children(labels, start, keys[start : start + size])

    def __repr__(self) -> str:
        return f"RngStream(master_seed={self.master_seed}, path={self.path!r})"


def derive_stream(master_seed: int, path: Sequence[PathLabel] = ()) -> RngStream:
    """Create the deterministic stream addressed by ``(master_seed, path)``."""
    return RngStream(master_seed, path)


def sample_gamma(stream: RngStream, shape: float, size) -> np.ndarray:
    """Draw an array of `size` Gamma(shape, scale=1) variates.

    For ``shape < 1`` the draw uses the boost identity
    ``G(a) = G(a+1) * U**(1/a)``, which stays exact down to very small
    shape parameters where direct rejection methods degrade.
    """
    if not shape > 0:
        raise ValueError(f"gamma shape must be positive, got {shape}")
    gen = stream.generator
    if shape >= 1.0:
        return gen.gamma(shape, size=size)
    g = gen.gamma(shape + 1.0, size=size)
    u = gen.random(size)
    return g * u ** (1.0 / shape)

