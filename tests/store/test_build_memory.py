"""A cold store build's traced memory peak, per stored entry.

The builder holds O(m) arrays: the int64 edge keys and the CSR index
arrays, never a float64 copy of the graph.  At half of Blogcatalog's
full size (~2.1M stored entries) the peak is about 13.5 bytes per entry
with the compiled kernels (17.8 when the CSR was assembled through a
``tocsc`` transpose and position scatters); a float copy of ``data``
(8 bytes per entry) or a dense comparison workspace would push it past
the bound.  The 10k-node recipe cannot show this: its sampling chunk,
not the graph, sets the peak.  The compiled kernels are the ones that
run in production; the numpy paths' transposes and sparse products set
their own, larger peak.

``GraphStore.open(verify=True)`` re-reads the same graph: the structural
check's int8 ones and n-entry cursor, the content hash's row blocks and
the triangle pass, about 4.2 bytes per entry (7.1 when the symmetry test
built a ``tocsc`` transpose, which this bound now rejects); hashing all
keys at once (int64 rows, columns and keys) would push it past its bound.
The triangle pass runs one share at this size; each further share adds
16 bytes per node (4.5 bytes per entry with two shares at full size).
"""

import tracemalloc

from repro.store import GraphStore, build_store

BYTES_PER_ENTRY = 18
VERIFY_BYTES_PER_ENTRY = 6.8
OPTIONS = dict(scale=0.5, seed=7)


def _traced_peak(call):
    """``(result, traced peak in bytes)`` of ``call()``."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak


def test_cold_build_peak_is_bounded_per_stored_entry(tmp_path, use_kernels):
    use_kernels("compiled")
    store, peak = _traced_peak(
        lambda: build_store("blogcatalog-full", cache_dir=tmp_path, **OPTIONS)
    )
    assert peak <= BYTES_PER_ENTRY * store.nnz, (
        f"{peak / store.nnz:.1f} bytes per stored entry"
    )


def test_verified_open_peak_is_bounded_per_stored_entry(tmp_path, use_kernels):
    use_kernels("compiled")
    built = build_store("blogcatalog-full", cache_dir=tmp_path, **OPTIONS)
    store, peak = _traced_peak(lambda: GraphStore.open(built.path, verify=True))
    assert peak <= VERIFY_BYTES_PER_ENTRY * store.nnz, (
        f"{peak / store.nnz:.1f} bytes per stored entry"
    )
