"""Suite-wide configuration.

Static plan verification (:mod:`repro.analysis`) is always-on under the
test suite: every pipeline compile and every noise-plan lowering in any
test runs the Tier-1 verifiers, so a regression that produces a
non-unitary fused matrix, a non-CPTP Kraus stack or a broken parameter
table fails loudly at compile time instead of corrupting results.
``REPRO_VERIFY`` set explicitly in the environment (e.g. ``=0`` to
bisect verifier overhead) still wins.
"""

import os

import numpy as np
import pytest

os.environ.setdefault("REPRO_VERIFY", "1")


@pytest.fixture
def tensordot_walk():
    """Independent statevector reference for simulator parity tests.

    Returns ``walk(plan, theta, initial_state=None)``: the flat state
    after applying ``plan.op_matrices(theta)`` one op at a time through
    the tensordot reference kernel, bypassing both simulator cores.
    """
    from repro.simulator.kernels.reference import apply_gate_tensordot

    def walk(plan, theta, initial_state=None):
        shape = (2,) * plan.num_qubits
        if initial_state is None:
            state = np.zeros(shape, dtype=complex)
            state[(0,) * plan.num_qubits] = 1.0
        else:
            state = np.asarray(initial_state, dtype=complex).reshape(shape)
        for qubits, matrix in plan.op_matrices(theta):
            state = apply_gate_tensordot(state, matrix, qubits)
        return state.reshape(-1)

    return walk
