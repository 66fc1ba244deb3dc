"""A cold store build's traced memory peak, per stored entry.

The builder holds O(m) index-width arrays: the edge keys, their
transpose and the CSR index arrays, never a float64 copy of the graph.
At half of Blogcatalog's full size (~2.1M stored entries) the peak is
about 18 bytes per entry; a float copy of ``data`` (8 bytes per entry) or
a dense comparison workspace would push it past the bound.  The 10k-node
recipe cannot show this: its sampling chunk, not the graph, sets the
peak.  The compiled triangle kernel is the one that runs in production;
the numpy path's sparse products set their own, larger peak.
"""

import tracemalloc

from repro.store import build_store

BYTES_PER_ENTRY = 24


def test_cold_build_peak_is_bounded_per_stored_entry(tmp_path, use_kernels):
    use_kernels("compiled")
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        store = build_store("blogcatalog-full", cache_dir=tmp_path, scale=0.5, seed=7)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= BYTES_PER_ENTRY * store.nnz, (
        f"{peak / store.nnz:.1f} bytes per stored entry"
    )
