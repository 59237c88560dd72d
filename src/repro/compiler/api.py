"""Compile entry points: one API for every execution layer.

:func:`compile_plan` is the way to turn a circuit into an executable
:class:`~repro.compiler.ir.GatePlan` — the statevector, batched,
density-matrix and sampling simulators, the energy backends, the VQE
objective and the fleet workers all consume its output. Plans are keyed by
content hash in the shared LRU cache, so repeated ``run_circuit`` /
figure / fleet invocations never recompile.

:func:`transpile_then_compile` is the single device-aware entry point: it
runs the full staged pipeline (layout -> routing -> native basis ->
lowering -> fusion) and returns the plan together with the transpilation
bookkeeping (layout, final measurement permutation, swap count) needed to
interpret results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.parameter import Parameter
from repro.compiler.cache import (
    PLAN_CACHE,
    circuit_fingerprint,
    coupling_fingerprint,
    fusion_enabled,
)
from repro.compiler.ir import GatePlan
from repro.compiler.passes import (
    CompilationUnit,
    default_pipeline,
    device_pipeline,
)
from repro.transpiler.layout import Layout


def compile_plan(
    circuit: QuantumCircuit,
    parameters: Optional[Sequence[Parameter]] = None,
    *,
    fusion: Optional[bool] = None,
    cache: bool = True,
) -> GatePlan:
    """Compile a circuit into a (cached, fused) :class:`GatePlan`.

    ``parameters`` fixes the theta ordering (defaulting to first-appearance
    order, see :func:`repro.compiler.ir.lower_circuit`). ``fusion``
    defaults to the ``REPRO_FUSION`` environment switch. ``cache=False``
    bypasses the shared plan cache (the cache key is still computed so the
    returned plan is identifiable).
    """
    fuse = fusion_enabled() if fusion is None else bool(fusion)
    key = "plan:" + circuit_fingerprint(
        circuit, parameters, extra=("fused" if fuse else "raw",)
    )
    pipeline = default_pipeline(fusion=fuse)

    def build() -> GatePlan:
        plan = pipeline.compile(circuit, parameters)
        plan.key = key
        return plan

    if not cache:
        return build()
    return PLAN_CACHE.get_or_build(key, build)


@dataclass(frozen=True)
class DeviceCompilation:
    """A device-lowered plan plus the bookkeeping to interpret results.

    ``circuit`` / ``plan`` are *trimmed* to the device qubits the routed
    circuit actually uses (see
    :class:`~repro.compiler.passes.TrimIdleWires`); ``layout`` and
    ``final_permutation`` stay in physical device indices, and
    ``logical_positions[v]`` is where logical qubit ``v`` sits in the
    trimmed circuit at measurement time.
    """

    plan: GatePlan
    circuit: QuantumCircuit
    layout: Layout
    final_permutation: Dict[int, int]
    num_swaps: int
    logical_positions: tuple = ()
    #: ``physical_qubits[i]`` is the physical device index of trimmed
    #: qubit ``i`` (empty means trimmed == physical). The conformance
    #: verifier maps gates back through this to check coupling adjacency.
    physical_qubits: tuple = ()

    @property
    def num_two_qubit_gates(self) -> int:
        return self.circuit.num_two_qubit_gates


def _coupling_of(device):
    """Accept either a ``DeviceModel``-like object or a bare coupling map."""
    return getattr(device, "coupling_map", device)


def transpile_then_compile(
    circuit: QuantumCircuit,
    device,
    *,
    layout_method: str = "chain",
    fusion: Optional[bool] = None,
    cache: bool = True,
) -> DeviceCompilation:
    """Lower a bound circuit onto a device and compile it, in one call.

    ``device`` is a :class:`~repro.devices.device.DeviceModel` or a bare
    :class:`~repro.devices.coupling.CouplingMap`. The whole result —
    native circuit, plan, layout, final permutation — is cached under one
    content key, so re-running the same bound circuit never re-transpiles.

    Note on cache behavior: native-basis translation is numeric (ZSXZSXZ
    decomposition of each bound 1q unitary), so device compilation keys
    on the *bound* circuit — an optimization loop that rebinds per step
    inserts one entry per theta and misses on each new point. That is
    inherent to the workload (each binding genuinely is a new native
    circuit); hot symbolic plans are safe because LRU recency keeps
    frequently-touched entries alive while one-shot entries age out.
    """
    coupling = _coupling_of(device)
    fuse = fusion_enabled() if fusion is None else bool(fusion)
    key = "device:" + circuit_fingerprint(
        circuit,
        extra=(
            coupling_fingerprint(coupling),
            layout_method,
            "fused" if fuse else "raw",
        ),
    )

    def build() -> DeviceCompilation:
        unit = device_pipeline(layout_method, fusion=fuse).run(
            CompilationUnit(circuit=circuit, coupling=coupling)
        )
        unit.plan.key = key
        return DeviceCompilation(
            plan=unit.plan,
            circuit=unit.circuit,
            layout=unit.layout,
            final_permutation=dict(unit.final_permutation or {}),
            num_swaps=unit.num_swaps,
            logical_positions=tuple(unit.metadata.get("logical_positions", ())),
            physical_qubits=tuple(
                unit.metadata.get("trimmed_physical_qubits", ())
            ),
        )

    if not cache:
        return build()
    return PLAN_CACHE.get_or_build(key, build)
