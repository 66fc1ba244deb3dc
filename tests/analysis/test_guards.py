"""Runtime sanitizer guards: densify tripwires and mmap write detection."""

import numpy as np
import pytest
from scipy import sparse

from repro.analysis import (
    DensifyError,
    MmapWriteError,
    assert_readonly_mmap,
    forbid_densify,
)
from repro.attacks import BinarizedAttack
from repro.graph.generators import barabasi_albert
from repro.graph.incremental import IncrementalEgonetFeatures


def _csr(n=6):
    graph = barabasi_albert(n, 2, rng=3)
    return sparse.csr_matrix(graph.adjacency)


class TestForbidDensify:
    def test_toarray_trips(self):
        csr = _csr()
        with forbid_densify():
            with pytest.raises(DensifyError, match="toarray"):
                csr.toarray()

    def test_todense_trips(self):
        csr = _csr()
        with forbid_densify(context="unit-test"):
            with pytest.raises(DensifyError, match="unit-test"):
                csr.todense()

    def test_other_formats_trip_too(self):
        coo = _csr().tocoo()
        lil = _csr().tolil()
        with forbid_densify():
            with pytest.raises(DensifyError):
                coo.toarray()
            with pytest.raises(DensifyError):
                lil.toarray()

    def test_methods_restored_after_exit(self):
        csr = _csr()
        with forbid_densify():
            pass
        dense = csr.toarray()
        assert dense.shape == csr.shape

    def test_methods_restored_after_exception(self):
        csr = _csr()
        with pytest.raises(RuntimeError, match="boom"):
            with forbid_densify():
                raise RuntimeError("boom")
        assert csr.toarray().shape == csr.shape

    def test_sparse_attack_run_passes_under_guard(self):
        """The sparse backend genuinely never densifies — and stays
        bit-identical to the same run without the guard."""
        graph = barabasi_albert(40, 3, rng=11)
        targets = [0, 1, 2]
        unguarded = BinarizedAttack(iterations=10).attack(
            graph, targets, budget=3
        )
        with forbid_densify(context="parity"):
            guarded = BinarizedAttack(iterations=10).attack(
                graph, targets, budget=3
            )
        assert guarded.flips_by_budget == unguarded.flips_by_budget
        assert guarded.surrogate_by_budget == unguarded.surrogate_by_budget

    def test_injected_densify_in_sparse_run_is_caught(self, monkeypatch):
        """The tripwire catches a .toarray() smuggled into the flip path."""
        original_flip = IncrementalEgonetFeatures.flip

        def leaky_flip(self, u, v):
            self.to_dense()  # the injected densification
            return original_flip(self, u, v)

        monkeypatch.setattr(IncrementalEgonetFeatures, "flip", leaky_flip)
        graph = barabasi_albert(40, 3, rng=11)
        with forbid_densify():
            with pytest.raises(DensifyError):
                BinarizedAttack(iterations=10).attack(
                    graph, [0, 1, 2], budget=3
                )


class TestAssertReadonlyMmap:
    def test_unchanged_arrays_pass(self):
        array = np.arange(8, dtype=np.float64)
        with assert_readonly_mmap(array):
            _ = array.sum()

    def test_mutation_is_detected(self):
        array = np.arange(8, dtype=np.float64)
        with pytest.raises(MmapWriteError, match="changed"):
            with assert_readonly_mmap(array):
                array[0] = 99.0

    def test_sparse_matrix_buffers_are_guarded(self):
        csr = _csr()
        with pytest.raises(MmapWriteError):
            with assert_readonly_mmap(csr):
                csr.data[0] = 2.0

    def test_adjacency_csr_provider_is_guarded(self):
        csr = _csr()
        features = IncrementalEgonetFeatures(csr)
        with assert_readonly_mmap(features):
            _ = features.features()

    def test_writable_memmap_rejected_on_entry(self, tmp_path):
        path = tmp_path / "buffer.bin"
        writable = np.memmap(path, dtype=np.float64, mode="w+", shape=(4,))
        with pytest.raises(MmapWriteError, match="writable"):
            with assert_readonly_mmap(writable, context="store"):
                pass

    def test_readonly_memmap_passes(self, tmp_path):
        path = tmp_path / "buffer.bin"
        np.arange(4, dtype=np.float64).tofile(path)
        mapped = np.memmap(path, dtype=np.float64, mode="r", shape=(4,))
        with assert_readonly_mmap(mapped):
            _ = mapped.sum()

    def test_unsupported_source_raises_typeerror(self):
        with pytest.raises(TypeError, match="cannot guard"):
            with assert_readonly_mmap(object()):
                pass
