"""Property tests: re-stepped walks draw exactly what a cold build draws.

A cold :class:`~repro.core.walk_index.WalkIndex` build gives node ``v`` the
generator ``default_rng(SeedSequence(entropy=e, spawn_key=(v,)))`` and
takes its ``(num_walks, length)`` block with ``Generator.random``.  The
dynamic index re-steps a handful of walks per mutation, so it derives each
node's PCG64 state arithmetically (:func:`spawn_pcg64_states`) and draws
only the suffixes it re-steps (:func:`spawn_suffix_draws`).  Both must
match numpy's public API bit for bit, for every entropy width the
``SeedSequence`` word packing distinguishes: one word, two, three to four,
and more than the four-word pool.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.utils.rng import spawn_pcg64_states, spawn_suffix_draws

COMMON = settings(max_examples=60, deadline=None)

#: ``SeedSequence().entropy`` as one unseeded construction returned it: a
#: 128-bit draw from the OS, pinned so the example is reproducible.
OS_ENTROPY = 0x4D1F_47C8_847E_97DB_C377_C62B_9356_45CC

ENTROPIES = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**128 - 1),
    st.integers(2**128, 2**256),
)
#: Node positions, including the 16-bit boundary.
POSITIONS = st.one_of(
    st.sampled_from([0, 1, 65_535, 65_536, 200_000]),
    st.integers(0, 2**18),
)


def reference_block(entropy: int, key: int, num_walks: int, length: int):
    seq = np.random.SeedSequence(entropy=entropy, spawn_key=(key,))
    return np.random.default_rng(seq).random((num_walks, length))


@COMMON
@given(entropy=ENTROPIES, keys=st.lists(POSITIONS, min_size=1, max_size=6))
@example(entropy=OS_ENTROPY, keys=[0, 65_535, 65_536, 200_000])
@example(entropy=2**200 + 77, keys=[0, 2**32 - 1])
def test_states_match_seedsequence_pcg64(entropy, keys):
    states = spawn_pcg64_states(entropy, keys)
    for key, (state, inc) in zip(keys, states):
        seq = np.random.SeedSequence(entropy=entropy, spawn_key=(key,))
        expected = np.random.PCG64(seq).state["state"]
        assert (state, inc) == (expected["state"], expected["inc"])


@COMMON
@given(data=st.data(), entropy=ENTROPIES,
       num_walks=st.integers(1, 12), length=st.integers(1, 16))
@example(data=None, entropy=OS_ENTROPY, num_walks=150, length=15)
@example(data=None, entropy=2**32 + 9, num_walks=3, length=1)
def test_suffix_draws_match_the_cold_block(data, entropy, num_walks, length):
    if data is None:  # the fixed examples: one suffix per walk of two nodes
        keys = [0, 65_536] * num_walks
        walks = [w for w in range(num_walks) for _ in (0, 1)]
        starts = [w % length for w in walks]
    else:
        rows = data.draw(st.lists(
            st.tuples(POSITIONS, st.integers(0, num_walks - 1),
                      st.integers(0, length - 1)),
            min_size=1, max_size=10,
        ))
        keys, walks, starts = (list(column) for column in zip(*rows))
    draws = spawn_suffix_draws(entropy, keys, walks, starts, length)
    assert draws.shape == (len(keys), length)
    for row, (key, walk, start) in enumerate(zip(keys, walks, starts)):
        expected = reference_block(entropy, key, num_walks, length)[walk, start:]
        assert np.array_equal(draws[row, start:], expected)
        assert not draws[row, :start].any()


def test_no_rows_draw_nothing():
    draws = spawn_suffix_draws(7, [], [], [], 15)
    assert draws.shape == (0, 15)
