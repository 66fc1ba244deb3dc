"""Flag resolution and degraded-mode behaviour of the kernel layer.

``kernels="auto"`` must degrade to numpy with exactly one warning when no
toolchain exists, an explicit ``kernels="compiled"`` must fail loudly, and
the process default must be the one kernels switch: engines resolve it at
construction, and only the executor and the EngineSpec it ships to its
workers take a ``kernels`` value.
"""

import importlib
import inspect
import pickle
import pkgutil
import re
import warnings

import numpy as np
import pytest

import repro
import repro.kernels as kernels_mod
from repro.graph.generators import erdos_renyi
from repro.kernels import (
    KERNEL_BACKENDS,
    KernelBuildError,
    KernelUnavailableError,
    compiled_available,
    resolve_kernels,
    validate_kernels,
)
from repro.kernels import capi
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

    def test_auto_scans_path_only_until_the_table_loads(
        self, pristine_kernel_state, monkeypatch
    ):
        if not compiled_available():
            pytest.skip("compiled kernel backend unavailable")
        monkeypatch.setattr(kernels_mod, "_TABLE", None)
        scans = []

        def counting_probe():
            scans.append(1)
            return capi.toolchain_available()

        monkeypatch.setattr(kernels_mod, "toolchain_available", counting_probe)
        assert [resolve_kernels("auto") for _ in range(5)] == ["compiled"] * 5
        assert len(scans) == 1


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
            engine = SurrogateEngine.create(graph, [0, 1], None)
        assert engine.kernels == "numpy"
        assert np.isfinite(engine.current_loss())

    def test_compiled_engine_without_toolchain_raises(
        self, pristine_kernel_state, monkeypatch
    ):
        _break_toolchain(monkeypatch)
        kernels_mod.set_default_kernels("compiled")
        graph = erdos_renyi(30, 0.15, rng=2)
        with pytest.raises(KernelUnavailableError):
            SurrogateEngine.create(graph, [0, 1], None)

    def test_compiled_available_reports_false(
        self, pristine_kernel_state, monkeypatch
    ):
        _break_toolchain(monkeypatch)
        assert kernels_mod.compiled_available() is False


class TestSpecTransport:
    def test_spec_carries_its_backend_through_pickle(self):
        graph = erdos_renyi(40, 0.1, rng=4)
        spec = EngineSpec.from_graph(graph, kernels="numpy")
        assert spec.kernels == "numpy"
        rebuilt = pickle.loads(pickle.dumps(spec))
        assert rebuilt.kernels == spec.kernels
        assert rebuilt.kind == spec.kind

    def test_from_spec_builds_with_the_process_default(self, use_kernels):
        """The spec's value reaches an engine only through the worker entry,
        which applies it as the process default."""
        spec = EngineSpec.from_graph(erdos_renyi(40, 0.1, rng=4), kernels="numpy")
        use_kernels("compiled")
        assert SurrogateEngine.from_spec(spec, [0]).kernels == "compiled"

    def test_from_graph_default_is_auto(self):
        graph = erdos_renyi(40, 0.1, rng=4)
        spec = EngineSpec.from_graph(graph)
        assert spec.kernels == "auto"

    def test_from_graph_validates_kernels(self):
        graph = erdos_renyi(40, 0.1, rng=4)
        with pytest.raises(ValueError, match="kernels must be one of"):
            EngineSpec.from_graph(graph, kernels="simd")


def _takes_kernels() -> "set[str]":
    """Qualified names of the repro functions and methods that take a
    ``kernels`` parameter."""
    found = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members = [(f"{name}.{attr}", value) for attr, value in vars(obj).items()]
            for qualname, member in members:
                function = getattr(member, "__func__", member)
                if inspect.isfunction(function) and (
                    "kernels" in inspect.signature(function).parameters
                ):
                    found.add(f"{module.__name__}.{qualname}")
    return found


def test_only_the_executor_and_its_spec_take_kernels():
    """The process default is the one kernels switch: past the
    ``repro.kernels`` functions that set and resolve it, only the executor
    (which forwards its value) and the EngineSpec it ships take one."""
    outside = {name for name in _takes_kernels() if not name.startswith("repro.kernels.")}
    assert outside == {
        "repro.attacks.scheduler.SchedulingCampaignExecutor.__init__",
        "repro.oddball.surrogate.EngineSpec.__new__",
        "repro.oddball.surrogate.EngineSpec.from_graph",
        "repro.oddball.surrogate.EngineSpec.from_store",
    }


def _cdef_names():
    """``repro_*`` functions the cffi cdef declares."""
    return set(re.findall(r"\b(repro_\w+)\s*\(", capi._CDEF))


def _source_names():
    """``repro_*`` functions kernels.c defines, with every ``DEFINE_*``
    macro expanded at its ``(SUF, IDX)`` instantiations."""
    source = capi._SOURCE_PATH.read_text()
    source = re.sub(r"/\*.*?\*/", "", source, flags=re.S)
    templates = {
        macro: re.findall(r"\b(repro_\w+)##SUF\s*\(", body)
        for macro, body in re.findall(
            r"#define (\w+)\(SUF, IDX\)((?:.*\\\n)*.*)", source
        )
    }
    names = set(re.findall(r"^\w[\w ]*\b(repro_\w+)\s*\(", source, re.M))
    for macro, suffix in re.findall(r"^(\w+)\((\w+), \w+\)$", source, re.M):
        names.update(name + suffix for name in templates.get(macro, ()))
    return names


class TestCdefMatchesSource:
    """cffi's ABI mode resolves a symbol only when it is first accessed, so
    a cdef for a deleted kernel would otherwise go unnoticed."""

    def test_cdef_declares_exactly_the_defined_kernels(self):
        declared = _cdef_names()
        assert declared == _source_names()
        assert {"repro_pair_values_i32", "repro_pair_values_i64"} <= declared

    @pytest.mark.skipif(
        not compiled_available(),
        reason="no C toolchain/cffi on this host; compiled backend unavailable",
    )
    def test_every_declared_kernel_resolves(self):
        _, lib = capi.load_kernel_lib()
        for name in sorted(_cdef_names()):
            assert callable(getattr(lib, name)), name
