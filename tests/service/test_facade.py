"""CompilationService facade: strategy parity, registry, lifecycle."""

import warnings

import pytest

from repro.core import PulseCache
from repro.errors import PipelineError, ReproError
from repro.service import (
    CompilationService,
    CompilationStrategy,
    CompileRequest,
    CompileResult,
    available_strategies,
    get_strategy,
    register_strategy,
    unregister_strategy,
)


class TestStrategyParity:
    """All five strategies are reachable through ``service.compile`` with
    results bit-identical to driving their implementations directly."""

    def test_all_five_registered(self):
        assert set(available_strategies()) >= {
            "gate",
            "step-function",
            "full-grape",
            "strict-partial",
            "flexible-partial",
        }

    def _service(self, settings, hyper):
        return CompilationService(settings=settings, hyperparameters=hyper)

    def test_gate_matches_impl(self, workload, programs_identical):
        from repro.core.gate_based import _GateBasedCompiler

        circuit, theta = workload
        direct = _GateBasedCompiler().compile_parametrized(circuit, theta)
        with CompilationService() as service:
            result = service.compile(
                CompileRequest(circuit, theta, strategy="gate")
            )
        assert programs_identical(direct.program, result.program)

    def test_step_function_matches_impl(self, workload, programs_identical):
        from repro.core.stepfunction import _StepFunctionGateCompiler

        circuit, theta = workload
        direct = _StepFunctionGateCompiler().compile_parametrized(circuit, theta)
        with CompilationService() as service:
            result = service.compile(
                CompileRequest(circuit, theta, strategy="step-function")
            )
        assert programs_identical(direct.program, result.program)

    def test_full_grape_matches_direct_pipeline(
        self, workload, coarse_settings, coarse_hyper, programs_identical
    ):
        from repro.core.compiler import BlockPulseCompiler, default_device_for
        from repro.pipeline.strategies import full_grape_pipeline

        circuit, theta = workload
        bound = circuit.bind_parameters(theta)
        block_compiler = BlockPulseCompiler(
            default_device_for(bound), coarse_settings, coarse_hyper, PulseCache()
        )
        direct = full_grape_pipeline(block_compiler, 2).run(bound)
        with self._service(coarse_settings, coarse_hyper) as service:
            result = service.compile(
                CompileRequest(
                    circuit, theta, strategy="full-grape", max_block_width=2
                )
            )
        assert programs_identical(direct.program, result.program)
        assert result.compiled.method == "grape"

    def test_strict_partial_matches_impl(
        self, workload, coarse_settings, coarse_hyper, programs_identical
    ):
        from repro.core.strict import _StrictPartialCompiler

        circuit, theta = workload
        (compiler,) = _StrictPartialCompiler.precompile_many(
            [circuit],
            settings=coarse_settings,
            hyperparameters=coarse_hyper,
            max_block_width=2,
            cache=PulseCache(),
        )
        direct = compiler.compile(theta)
        with self._service(coarse_settings, coarse_hyper) as service:
            result = service.compile(
                CompileRequest(
                    circuit, theta, strategy="strict-partial", max_block_width=2
                )
            )
        assert programs_identical(direct.program, result.program)
        assert result.precompile_report is not None
        assert result.compiler is not None

    def test_flexible_partial_matches_impl(
        self, workload, coarse_settings, coarse_hyper, programs_identical
    ):
        from repro.core.flexible import _FlexiblePartialCompiler

        circuit, theta = workload
        (compiler,) = _FlexiblePartialCompiler.precompile_many(
            [circuit],
            settings=coarse_settings,
            hyperparameters=coarse_hyper,
            max_block_width=2,
            tuning_samples=1,
            cache=PulseCache(),
        )
        direct = compiler.compile(theta)
        with self._service(coarse_settings, coarse_hyper) as service:
            result = service.compile(
                CompileRequest(
                    circuit,
                    theta,
                    strategy="flexible-partial",
                    max_block_width=2,
                    options={"tuning_samples": 1},
                )
            )
        assert programs_identical(direct.program, result.program)


class TestServicePathIsWarningFree:
    """Nothing on the service path relies on deprecated behaviour."""

    @pytest.mark.parametrize(
        "strategy", ["gate", "step-function", "strict-partial"]
    )
    def test_service_compile_emits_no_deprecation(
        self, strategy, workload, coarse_settings, coarse_hyper
    ):
        circuit, theta = workload
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with CompilationService(
                settings=coarse_settings, hyperparameters=coarse_hyper
            ) as service:
                result = service.compile(
                    CompileRequest(
                        circuit, theta, strategy=strategy, max_block_width=2
                    )
                )
        assert result.pulse_duration_ns > 0


class TestRequestSurface:
    def test_precompile_only_request(self, workload, coarse_settings, coarse_hyper):
        circuit, _theta = workload
        with CompilationService(
            settings=coarse_settings, hyperparameters=coarse_hyper
        ) as service:
            result = service.compile(
                CompileRequest(circuit, strategy="strict-partial", max_block_width=2)
            )
        assert result.compiled is None
        assert result.compiler is not None
        replay = result.compiler.compile([0.1, 0.2])
        assert replay.runtime_iterations == 0
        with pytest.raises(ReproError):
            _ = result.pulse_duration_ns

    def test_unknown_strategy_rejected(self, workload):
        circuit, theta = workload
        with CompilationService() as service:
            with pytest.raises(ReproError, match="unknown compilation strategy"):
                service.compile(CompileRequest(circuit, theta, strategy="qiskit"))

    def test_unknown_option_rejected(self, workload):
        circuit, theta = workload
        with CompilationService() as service:
            with pytest.raises(ReproError, match="does not understand options"):
                service.compile(
                    CompileRequest(
                        circuit, theta, strategy="gate", options={"turbo": True}
                    )
                )

    def test_request_requires_circuit_and_strategy(self):
        with pytest.raises(ReproError):
            CompileRequest(None)
        with pytest.raises(ReproError):
            CompileRequest(object(), strategy="")

    def test_compile_rejects_non_requests(self, workload):
        circuit, theta = workload
        with CompilationService() as service:
            with pytest.raises(ReproError):
                service.compile(circuit)


class TestRegistry:
    def test_register_third_party_strategy(self, workload):
        circuit, theta = workload

        class EchoStrategy(CompilationStrategy):
            name = "echo"

            def compile(self, service, request):
                return CompileResult(request=request, strategy=self.name)

        register_strategy(EchoStrategy)
        try:
            assert "echo" in available_strategies()
            with CompilationService() as service:
                result = service.compile(
                    CompileRequest(circuit, theta, strategy="echo")
                )
            assert result.strategy == "echo"
        finally:
            unregister_strategy("echo")
        assert "echo" not in available_strategies()

    def test_register_rejects_nameless_or_uncallable(self):
        with pytest.raises(ReproError):
            register_strategy(object())
        class NoCompile:
            name = "broken"
        with pytest.raises(ReproError):
            register_strategy(NoCompile())

    def test_get_strategy_materializes_builtins(self):
        assert get_strategy("gate").name == "gate"


class TestLifecycle:
    def test_stats_fold_everything(self, workload):
        circuit, theta = workload
        with CompilationService() as service:
            service.compile(CompileRequest(circuit, theta, strategy="gate"))
            stats = service.stats()
        assert stats["requests"]["total"] == 1
        assert stats["requests"]["by_strategy"] == {"gate": 1}
        assert "scheduler" in stats and "known_blocks" in stats["scheduler"]
        assert "cache" in stats and "hits" in stats["cache"]
        assert "executor" in stats
        assert stats["config"]["executor"] == service.config.executor

    def test_compile_after_close_raises(self, workload):
        circuit, theta = workload
        service = CompilationService()
        service.close()
        with pytest.raises(PipelineError):
            service.compile(CompileRequest(circuit, theta, strategy="gate"))
        with pytest.raises(PipelineError):
            service.submit(CompileRequest(circuit, theta, strategy="gate"))

    def test_close_idempotent(self):
        service = CompilationService()
        service.close()
        service.close()

    def test_close_drains_pending_submissions(self, workload):
        """A future accepted before close() completes instead of erroring."""
        circuit, theta = workload
        service = CompilationService()
        futures = [
            service.submit(CompileRequest(circuit, theta, strategy="gate"))
            for _ in range(6)
        ]
        service.close()
        results = [future.result(timeout=120) for future in futures]
        assert all(result.pulse_duration_ns > 0 for result in results)
        with pytest.raises(PipelineError):
            service.submit(CompileRequest(circuit, theta, strategy="gate"))

    def test_driver_hook_signature(self, workload):
        circuit, theta = workload
        with CompilationService(default_strategy="gate") as service:
            compiled = service.compile_parametrized(circuit, theta)
        assert compiled.method == "gate"
        assert compiled.pulse_duration_ns > 0


class TestConfigTakesEffect:
    """Every field a service is given reaches the component it configures,
    whatever the process environment says."""

    def test_cache_fields_reach_the_library(self, tmp_path):
        from repro.service import ServiceConfig

        config = ServiceConfig(
            cache_dir=str(tmp_path),
            cache_shards=256,
            prefetch=True,
            cache_budget_mb=5.0,
        )
        with CompilationService(config) as service:
            library = service.cache.library
            assert library.shards == 256
            assert library.prefetch_enabled is True
            assert library.budget_mb == 5.0
            assert service.stats()["config"]["cache_shards"] == library.shards

    def test_preset_must_match_the_active_one(self):
        from repro.config import get_preset, set_preset
        from repro.service import ServiceConfig

        active = get_preset().name
        other = "paper" if active != "paper" else "ci"
        with pytest.raises(ReproError, match="set_preset"):
            CompilationService(ServiceConfig(preset=other))
        CompilationService(ServiceConfig(preset=active)).close()
        CompilationService(ServiceConfig(preset=None)).close()
        try:
            set_preset(other)
            CompilationService(ServiceConfig(preset=other)).close()
        finally:
            set_preset(active)
