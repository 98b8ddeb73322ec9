"""The five built-in compilation strategies behind the service registry.

Each strategy adapts one of the paper's compilation modes to the service's
request/response surface while sharing the service's machinery — one pulse
cache, one block executor, one cross-call scheduler state — so repeated
requests reuse each other's work regardless of which thread submitted
them.  The heavy lifting stays in :mod:`repro.core`: the strategy classes
here wrap the same implementation classes the deprecated compiler
constructors delegate to, which is what makes service results bit-identical
to the legacy API.
"""

from __future__ import annotations

import time

from repro.errors import ReproError
from repro.service.registry import CompilationStrategy
from repro.service.requests import CompileRequest, CompileResult


class _StrategyBase(CompilationStrategy):
    """Shared option validation + result assembly."""

    #: Option keys this strategy understands (unknown keys raise).
    allowed_options: frozenset = frozenset()

    def _check_options(self, request: CompileRequest) -> None:
        unknown = set(request.options) - set(self.allowed_options)
        if unknown:
            raise ReproError(
                f"strategy {self.name!r} does not understand options "
                f"{sorted(unknown)}; allowed: {sorted(self.allowed_options)}"
            )

    def compile(self, service, request: CompileRequest) -> CompileResult:
        self._check_options(request)
        start = time.perf_counter()
        compiled, report, compiler = self._run(service, request)
        return CompileResult(
            request=request,
            strategy=self.name,
            compiled=compiled,
            precompile_report=report,
            compiler=compiler,
            wall_time_s=time.perf_counter() - start,
        )

    def _run(self, service, request: CompileRequest) -> tuple:
        """Return ``(compiled_pulse, precompile_report, plan_compiler)``."""
        raise NotImplementedError


class GateStrategy(_StrategyBase):
    """Table-1 lookup + concatenation — the paper's baseline."""

    name = "gate"
    allowed_options = frozenset({"pass_manager"})

    def _run(self, service, request):
        from repro.core.gate_based import _GateBasedCompiler

        impl = _GateBasedCompiler(request.option("pass_manager"))
        if request.values is None:
            return impl.compile(request.circuit), None, None
        return impl.compile_parametrized(request.circuit, request.values), None, None


class StepFunctionStrategy(_StrategyBase):
    """Angle-dependent lookup-table compilation (Barends-style ranges)."""

    name = "step-function"
    allowed_options = frozenset({"table"})

    def _run(self, service, request):
        from repro.core.stepfunction import _StepFunctionGateCompiler

        impl = _StepFunctionGateCompiler(request.option("table"))
        if request.values is None:
            return impl.compile_bound(request.circuit), None, None
        return (
            impl.compile_parametrized(request.circuit, request.values),
            None,
            None,
        )


class FullGrapeStrategy(_StrategyBase):
    """Blocked minimum-time GRAPE over the whole bound circuit.

    Runs through the service's shared scheduler state (when the request
    allows caching), so a stream of requests — from one thread or many —
    dispatches GRAPE only for blocks the whole service lifetime has never
    seen: the :class:`~repro.pipeline.session.VariationalSession` behavior,
    now a service internal.
    """

    name = "full-grape"
    allowed_options = frozenset()

    def _run(self, service, request):
        from repro.core.cache import PulseCache
        from repro.core.compiler import BlockPulseCompiler
        from repro.core.full_grape import result_from_context
        from repro.pipeline.strategies import full_grape_pipeline

        # The *symbolic* circuit goes into the pipeline (the bind stage
        # applies the values): the plan cache keys blocking output on the
        # ansatz's content fingerprint, so every binding of one ansatz
        # replays one plan.
        circuit = request.circuit
        values = (
            request.normalized_values() if request.values is not None else None
        )
        cache = service.cache if request.use_cache else PulseCache()
        block_compiler = BlockPulseCompiler(
            service.device_for(circuit),
            request.settings or service.settings,
            request.hyperparameters or service.hyperparameters,
            cache,
            warm_start=service.config.warm_start,
            warm_start_max_dist=service.config.warm_start_max_dist,
        )
        pipeline = full_grape_pipeline(
            block_compiler, request.max_block_width, service.executor
        )
        # An uncached request must pay the honest out-of-the-box latency,
        # so it also skips the cross-call dedup memory and the plan cache.
        state = service.scheduler_state if request.use_cache else None
        plan_cache = service.plan_cache if request.use_cache else None
        start = time.perf_counter()
        contexts, report = pipeline.run_many(
            [circuit],
            [values],
            state=state,
            plan_cache=plan_cache,
            plan_scope=self.name,
            grape_batch=service.config.grape_batch,
            grape_batch_size=service.config.grape_batch_size,
        )
        elapsed = time.perf_counter() - start
        extra = {
            "scheduler": report.as_dict() if report is not None else None,
            "service": True,
        }
        compiled = result_from_context("grape", contexts[0], elapsed, cache, extra)
        return compiled, None, None

    def compile_batch(self, service, requests) -> list:
        """Serve a uniform batch through one scheduler pass.

        Blocks shared between the batch's circuits compile once even on a
        cold cache; every result's ``runtime_latency_s`` is the shared
        batch wall time, exactly like the legacy ``compile_many``.
        """
        from repro.core.cache import PulseCache
        from repro.core.compiler import BlockPulseCompiler
        from repro.core.full_grape import result_from_context
        from repro.pipeline.strategies import full_grape_pipeline

        first = requests[0]
        for request in requests:
            self._check_options(request)
            if (
                request.settings is not first.settings
                or request.hyperparameters is not first.hyperparameters
                or request.max_block_width != first.max_block_width
                or request.use_cache != first.use_cache
            ):
                raise ReproError(
                    "compile_batch needs uniform settings/hyperparameters/"
                    "max_block_width/use_cache across the batch; mix "
                    "strategies or options via individual compile() calls"
                )
        circuits = [request.circuit for request in requests]
        values = [
            request.normalized_values() if request.values is not None else None
            for request in requests
        ]
        widest = max(circuits, key=lambda c: c.num_qubits)
        cache = service.cache if first.use_cache else PulseCache()
        block_compiler = BlockPulseCompiler(
            service.device_for(widest),
            first.settings or service.settings,
            first.hyperparameters or service.hyperparameters,
            cache,
            warm_start=service.config.warm_start,
            warm_start_max_dist=service.config.warm_start_max_dist,
        )
        pipeline = full_grape_pipeline(
            block_compiler, first.max_block_width, service.executor
        )
        state = service.scheduler_state if first.use_cache else None
        plan_cache = service.plan_cache if first.use_cache else None
        start = time.perf_counter()
        contexts, report = pipeline.run_many(
            circuits,
            values,
            state=state,
            plan_cache=plan_cache,
            plan_scope=self.name,
            grape_batch=service.config.grape_batch,
            grape_batch_size=service.config.grape_batch_size,
        )
        elapsed = time.perf_counter() - start
        extra = {
            "scheduler": report.as_dict() if report is not None else None,
            "batch_wall_time_s": elapsed,
            "service": True,
        }
        # One stats snapshot for the whole batch: a disk-backed cache's
        # stats() sweeps the library, which must not repeat per circuit.
        cache_stats = cache.stats()
        return [
            CompileResult(
                request=request,
                strategy=self.name,
                compiled=result_from_context(
                    "grape", context, elapsed, cache, extra, cache_stats
                ),
                wall_time_s=elapsed,
            )
            for request, context in zip(requests, contexts)
        ]


class _PartialStrategyBase(_StrategyBase):
    """Shared flow for the precompile-then-replay strategies."""

    def _precompile(self, service, request):
        """Return the plan compiler built over the service's machinery."""
        raise NotImplementedError

    def _run(self, service, request):
        compiler = self._precompile(service, request)
        compiled = None
        if request.values is not None:
            compiled = compiler.compile(request.normalized_values())
        return compiled, compiler.report, compiler


class StrictPartialStrategy(_PartialStrategyBase):
    """GRAPE-precompiled Fixed blocks + lookup ``Rz(θ)`` at runtime.

    Precompilation flows through the service's scheduler state, so the
    Fixed blocks of an ansatz the service has seen before cost zero GRAPE
    dispatches.  Each request still pays the (GRAPE-free) blocking and
    fingerprinting pass; callers replaying one ansatz thousands of times
    can precompile once (``values=None``) and reuse
    ``result.compiler.compile(values)`` directly.
    """

    name = "strict-partial"
    allowed_options = frozenset()

    def _precompile(self, service, request):
        from repro.core.cache import PulseCache
        from repro.core.strict import _StrictPartialCompiler

        return _StrictPartialCompiler.precompile_many(
            [request.circuit],
            device=service.device,
            settings=request.settings or service.settings,
            hyperparameters=request.hyperparameters or service.hyperparameters,
            max_block_width=request.max_block_width,
            cache=service.cache if request.use_cache else PulseCache(),
            executor=service.executor,
            state=service.scheduler_state if request.use_cache else None,
        )[0]


class FlexiblePartialStrategy(_PartialStrategyBase):
    """Single-θ slices with tuned warm-started GRAPE at runtime."""

    name = "flexible-partial"
    allowed_options = frozenset(
        {
            "tuning_samples",
            "learning_rates",
            "decay_rates",
            "seed",
            "tuning_strategy",
        }
    )

    def _precompile(self, service, request):
        from repro.core.cache import PulseCache
        from repro.core.flexible import _FlexiblePartialCompiler

        return _FlexiblePartialCompiler.precompile_many(
            [request.circuit],
            device=service.device,
            settings=request.settings or service.settings,
            hyperparameters=request.hyperparameters or service.hyperparameters,
            max_block_width=request.max_block_width,
            cache=service.cache if request.use_cache else PulseCache(),
            tuning_samples=request.option("tuning_samples", 2),
            learning_rates=request.option("learning_rates"),
            decay_rates=request.option("decay_rates"),
            seed=request.option("seed", 11),
            tuning_strategy=request.option("tuning_strategy", "grid"),
            executor=service.executor,
            state=service.scheduler_state if request.use_cache else None,
        )[0]
