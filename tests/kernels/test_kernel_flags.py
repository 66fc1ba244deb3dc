"""Flag resolution and degraded-mode behaviour of the kernel layer.

``kernels="auto"`` must degrade to numpy with exactly one warning when no
toolchain exists, an explicit ``kernels="compiled"`` must fail loudly, and
the flag must survive the EngineSpec transport round-trip unresolved (each
worker host re-resolves it for itself).
"""

import pickle
import warnings

import numpy as np
import pytest

import repro.kernels as kernels_mod
from repro.graph.generators import erdos_renyi
from repro.kernels import (
    KERNEL_BACKENDS,
    KERNEL_REGISTRY,
    KernelBuildError,
    KernelUnavailableError,
    resolve_kernels,
    validate_kernels,
)
from repro.oddball.surrogate import EngineSpec, SurrogateEngine


@pytest.fixture()
def pristine_kernel_state(monkeypatch):
    """Reset the module-level caches so each test observes a fresh process."""
    monkeypatch.setattr(kernels_mod, "_DEFAULT", None)
    monkeypatch.setattr(kernels_mod, "_TABLE", None)
    monkeypatch.setattr(kernels_mod, "_warned_fallback", False)
    monkeypatch.delenv("REPRO_KERNELS", raising=False)


def _break_toolchain(monkeypatch):
    """Simulate a host with no C compiler and no cffi."""
    monkeypatch.setattr(kernels_mod, "toolchain_available", lambda: False)

    def boom():
        raise KernelBuildError("no C compiler found (simulated)")

    monkeypatch.setattr(kernels_mod, "kernel_table", boom)


class TestFlagValidation:
    def test_valid_values_pass_through(self):
        for value in KERNEL_BACKENDS:
            assert validate_kernels(value) == value

    def test_invalid_value_raises(self):
        with pytest.raises(ValueError, match="kernels must be one of"):
            validate_kernels("cuda")

    def test_registry_is_fixed(self):
        assert KERNEL_REGISTRY == (
            "toggle_batch",
            "pair_values",
            "scatter_gradient",
            "triangle_counts",
        )


class TestResolution:
    def test_numpy_is_always_available(self, pristine_kernel_state):
        assert resolve_kernels("numpy") == "numpy"

    def test_env_default_feeds_auto(self, pristine_kernel_state, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        assert resolve_kernels("auto") == "numpy"

    def test_set_default_beats_env(self, pristine_kernel_state, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        kernels_mod.set_default_kernels("numpy")
        assert resolve_kernels("auto") == "numpy"
        kernels_mod.set_default_kernels("auto")
        assert kernels_mod.default_kernels() == "numpy"  # env again

    def test_invalid_env_value_raises(self, pristine_kernel_state, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "fortran")
        with pytest.raises(ValueError, match="kernels must be one of"):
            resolve_kernels("auto")


class TestDegradedMode:
    def test_auto_without_toolchain_falls_back_with_one_warning(
        self, pristine_kernel_state, monkeypatch
    ):
        _break_toolchain(monkeypatch)
        with pytest.warns(RuntimeWarning, match="falling back to the numpy"):
            assert resolve_kernels("auto") == "numpy"
        # Second resolution must stay silent — one warning per process.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_kernels("auto") == "numpy"

    def test_compiled_without_toolchain_raises_clearly(
        self, pristine_kernel_state, monkeypatch
    ):
        _break_toolchain(monkeypatch)
        with pytest.raises(KernelUnavailableError, match="no C compiler"):
            resolve_kernels("compiled")

    def test_engine_auto_degrades_to_working_numpy_engine(
        self, pristine_kernel_state, monkeypatch
    ):
        _break_toolchain(monkeypatch)
        graph = erdos_renyi(30, 0.15, rng=2)
        with pytest.warns(RuntimeWarning):
            engine = SurrogateEngine.create(graph, [0, 1], None, kernels="auto")
        assert engine.kernels == "numpy"
        assert np.isfinite(engine.current_loss())

    def test_compiled_engine_without_toolchain_raises(
        self, pristine_kernel_state, monkeypatch
    ):
        _break_toolchain(monkeypatch)
        graph = erdos_renyi(30, 0.15, rng=2)
        with pytest.raises(KernelUnavailableError):
            SurrogateEngine.create(graph, [0, 1], None, kernels="compiled")

    def test_compiled_available_reports_false(
        self, pristine_kernel_state, monkeypatch
    ):
        _break_toolchain(monkeypatch)
        assert kernels_mod.compiled_available() is False


class TestSpecTransport:
    def test_spec_carries_requested_flag_unresolved(self):
        graph = erdos_renyi(40, 0.1, rng=4)
        engine = SurrogateEngine.create(graph, [0], None, kernels="numpy")
        spec = engine.engine_spec()
        assert spec.kernels == "numpy"
        rebuilt = pickle.loads(pickle.dumps(spec))
        assert rebuilt.kernels == spec.kernels
        assert rebuilt.kind == spec.kind
        worker_engine = SurrogateEngine.from_spec(rebuilt, [0])
        assert worker_engine.kernels == "numpy"

    def test_from_graph_default_is_auto(self):
        graph = erdos_renyi(40, 0.1, rng=4)
        spec = EngineSpec.from_graph(graph)
        assert spec.kernels == "auto"

    def test_from_graph_validates_kernels(self):
        graph = erdos_renyi(40, 0.1, rng=4)
        with pytest.raises(ValueError, match="kernels must be one of"):
            EngineSpec.from_graph(graph, kernels="simd")
