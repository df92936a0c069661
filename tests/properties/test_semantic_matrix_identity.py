"""Dense ``sem`` from one call equals the pair-by-pair loop, bit for bit.

:func:`~repro.semantics.base.semantic_matrix` takes the whole matrix from
``measure.block(nodes, nodes)`` when the measure has one (Lin computes it
from ancestor blocks, :class:`MatrixMeasure` gathers it), and every engine,
artifact and store key downstream reads that array.  These properties pin
it to the reference it replaced — a double loop over ``similarity`` —
under ``np.array_equal``, on the taxonomy shapes that take different LCA
rules: trees (Euler-tour LCA by depth) and DAGs with several parents,
several roots and disconnected fragments (most informative common
ancestor), under IC tables whose IC is not monotone along the hierarchy.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.semantics import LinMeasure, MatrixMeasure, semantic_matrix
from repro.taxonomy import (
    Taxonomy,
    corpus_information_content,
    seco_information_content,
)

COMMON = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Nodes that no drawn taxonomy contains.
OUTSIDERS = ("x0", "x1", "x2")


def loop_matrix(measure, nodes) -> np.ndarray:
    """The reference: upper triangle pair by pair, mirrored, unit diagonal."""
    n = len(nodes)
    reference = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            value = measure.similarity(nodes[i], nodes[j])
            reference[i, j] = value
            reference[j, i] = value
    return reference


@st.composite
def taxonomies(draw) -> Taxonomy:
    """A tree, or a DAG with multi-parent concepts, roots and fragments."""
    size = draw(st.integers(min_value=1, max_value=12))
    tree = draw(st.booleans())
    taxonomy = Taxonomy()
    taxonomy.add_concept("c0")
    for i in range(1, size):
        if tree:
            parents = [f"c{draw(st.integers(0, i - 1))}"]
        else:
            picks = draw(st.lists(st.integers(0, i - 1), max_size=3, unique=True))
            parents = [f"c{p}" for p in picks]  # empty: a new root
        taxonomy.add_concept(f"c{i}", parents=parents)
    return taxonomy


@st.composite
def lin_measures(draw) -> LinMeasure:
    """Lin over a drawn taxonomy with a seco, corpus or explicit IC table."""
    taxonomy = draw(taxonomies())
    concepts = list(taxonomy.concepts())
    source = draw(st.sampled_from(["seco", "corpus", "explicit"]))
    if source == "seco":
        ic = seco_information_content(taxonomy)
    elif source == "corpus":
        counts = {c: draw(st.integers(0, 20)) for c in concepts}
        ic = corpus_information_content(taxonomy, counts)
    else:
        # Few distinct values, so ties exercise the depth and name breaks;
        # any order along the hierarchy, so a tree's LCA need not be the
        # most informative common ancestor.
        value = st.one_of(
            st.sampled_from([0.05, 0.3, 0.5, 1.0]),
            st.floats(min_value=1e-6, max_value=1.0),
        )
        ic = {c: draw(value) for c in concepts}
    floor = draw(st.floats(min_value=1e-6, max_value=0.99))
    return LinMeasure(taxonomy, ic=ic, floor=floor)


@st.composite
def node_lists(draw, measure: LinMeasure) -> list:
    """Some concepts and outsiders in shuffled order, each at most once."""
    pool = list(measure.taxonomy.concepts()) + list(OUTSIDERS)
    chosen = draw(st.lists(st.sampled_from(pool), max_size=len(pool), unique=True))
    return draw(st.permutations(chosen))


@COMMON
@given(data=st.data())
def test_lin_semantic_matrix_equals_pair_loop(data):
    lin = data.draw(lin_measures())
    nodes = data.draw(node_lists(lin))
    dense = semantic_matrix(lin, nodes)
    assert np.array_equal(dense, loop_matrix(lin, nodes))


@COMMON
@given(data=st.data())
def test_lin_block_equals_similarity_cell_by_cell(data):
    lin = data.draw(lin_measures())
    pool = list(lin.taxonomy.concepts()) + list(OUTSIDERS)
    # Rectangular, with repeats and with nodes shared by rows and columns.
    rows = data.draw(st.lists(st.sampled_from(pool), max_size=10))
    cols = data.draw(st.lists(st.sampled_from(pool), max_size=10))
    block = lin.block(rows, cols)
    assert block.shape == (len(rows), len(cols))
    for i, a in enumerate(rows):
        for j, b in enumerate(cols):
            assert block[i, j] == lin.similarity(a, b), (a, b)


@COMMON
@given(
    n=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_matrix_measure_semantic_matrix_equals_pair_loop(n, seed):
    rng = np.random.default_rng(seed)
    nodes = [f"v{i}" for i in range(n)]
    # Asymmetric, with a non-unit diagonal: the mirror and the pinned
    # diagonal must come from semantic_matrix itself, as in the loop.
    matrix = rng.uniform(0.01, 1.0, size=(n, n))
    measure = MatrixMeasure(nodes, matrix)
    order = [nodes[i] for i in rng.permutation(n)]
    assert np.array_equal(
        semantic_matrix(measure, order), loop_matrix(measure, order)
    )
