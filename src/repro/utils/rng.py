"""Deterministic random-number-generator plumbing.

Every stochastic component in the library accepts either an integer seed, an
existing :class:`numpy.random.Generator`, or ``None`` (fresh entropy).  This
module centralises the conversion so behaviour is uniform everywhere.
"""

from __future__ import annotations

import numpy as np

SeedLike = "int | np.random.Generator | None"


def ensure_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    ``None`` produces a generator seeded from OS entropy; an ``int`` produces
    a reproducible generator; an existing generator is returned unchanged so
    callers can thread one RNG through a pipeline.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: int | np.random.Generator | None, count: int) -> list[np.random.Generator]:
    """Derive *count* statistically independent child generators.

    Useful when a computation fans out into parallel-ish parts (e.g. one walk
    set per node) and each part must be reproducible independently of how many
    draws the others consumed.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if isinstance(seed, np.random.Generator):
        seed_seq = seed.bit_generator.seed_seq
    else:
        seed_seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seed_seq.spawn(count)]


# numpy's SeedSequence hash constants (bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier.  spawn_pcg64_states reproduces their arithmetic
# word for word; tests/properties/test_spawn_draws.py holds it to numpy's
# public API.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1
#: ``Generator.random`` keeps a raw draw's top 53 bits: ``(raw >> 11) * 2**-53``.
_DOUBLE_SCALE = 2.0 ** -53


def spawn_pcg64_states(entropy: int, keys) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of each child *key* of ``SeedSequence(entropy)``.

    Equal to ``PCG64(SeedSequence(entropy=entropy, spawn_key=(key,))).state``
    — the generator :func:`spawn_rngs` hands child *key* — without building
    a ``SeedSequence`` per key.  The spawn key is the last word of the
    hashed entropy and the only one that differs between children, so the
    pool mixing of the shared words runs once and the final mix plus
    ``generate_state(4, uint64)`` vectorise over *keys* (each below 2**32).
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size and (keys.min() < 0 or keys.max() > _M32):
        raise ValueError("spawn keys must lie in [0, 2**32)")
    words = []
    while True:
        words.append(entropy & _M32)
        entropy >>= 32
        if not entropy:
            break
    words += [0] * (_POOL_WORDS - len(words))
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_L * x - _MIX_R * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(word) for word in words[:_POOL_WORDS]]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for extra in words[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(extra))
    key_words = keys.astype(np.uint32)
    key_pool = []
    with np.errstate(over="ignore"):
        for dst in range(_POOL_WORDS):
            # hashmix(key) with this position's constant, then mix into pool
            mixed = (key_words ^ np.uint32(const)) * np.uint32(const * _MULT_A & _M32)
            const = const * _MULT_A & _M32
            mixed ^= mixed >> np.uint32(16)
            cell = np.uint32(_MIX_L) * np.uint32(pool[dst]) - np.uint32(_MIX_R) * mixed
            key_pool.append(cell ^ cell >> np.uint32(16))
        state_words = []
        hash_b = _INIT_B
        for index in range(2 * _POOL_WORDS):  # generate_state(4, uint64)
            value = key_pool[index % _POOL_WORDS] ^ np.uint32(hash_b)
            hash_b = hash_b * _MULT_B & _M32
            value = value * np.uint32(hash_b)
            state_words.append((value ^ value >> np.uint32(16)).astype(np.uint64))
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (state_words[2 * j] | state_words[2 * j + 1] << np.uint64(32)).tolist()
        for j in range(_POOL_WORDS)
    )
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        # pcg64_set_seed: inc = seq << 1 | 1, then two LCG steps around += seed
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128
        states.append((state, inc))
    return states


def spawn_suffix_draws(
    entropy: int, keys, walks, starts, length: int
) -> np.ndarray:
    """Uniform draws of walk suffixes, exactly as a cold walk build draws them.

    A cold build hands node *key* the stream of child *key* of
    ``SeedSequence(entropy)`` and takes its ``(num_walks, length)`` draw
    block with ``Generator.random``.  Row ``i`` of the returned
    ``(len(keys), length)`` array holds that block's row ``walks[i]`` from
    column ``starts[i]`` on (earlier columns are 0), and nothing else is
    drawn: each row costs one ``advance`` to draw
    ``walks[i] * length + starts[i]`` and the ``length - starts[i]`` raw
    draws it needs.
    """
    keys = np.asarray(keys, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    positions = np.asarray(walks, dtype=np.int64) * length + starts
    raw = np.zeros((keys.size, length), dtype=np.uint64)
    unique, slots = np.unique(keys, return_inverse=True)
    states = spawn_pcg64_states(entropy, unique)
    generator = np.random.PCG64(0)
    current_slot, cursor = -1, 0
    # Rows in (key, position) order: one state set per key, forward jumps
    # within it.
    order = np.lexsort((positions, slots))
    for row, slot, start, position in zip(
        order.tolist(), slots[order].tolist(),
        starts[order].tolist(), positions[order].tolist(),
    ):
        if slot != current_slot or position < cursor:
            state, inc = states[slot]
            generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            current_slot, cursor = slot, 0
        generator.advance(position - cursor)
        raw[row, start:] = generator.random_raw(length - start)
        cursor = position + length - start
    return (raw >> np.uint64(11)) * _DOUBLE_SCALE
