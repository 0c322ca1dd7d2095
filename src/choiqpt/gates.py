"""Parameterized gate library, circuits, and two-qubit gate constructions.

Conventions
-----------
Qubit 0 is the most significant bit of basis-state labels, i.e. the state
``|q0 q1>`` has index ``2*q0 + q1`` and single-qubit operators embed as
``kron(U, I)`` for qubit 0 of two.  Circuits are ordered lists of gate
applications; the first gate in the list acts first on the state, so the
circuit unitary is the reversed matrix product.

Gate conventions: ``RZ(t) = diag(e^{-it/2}, e^{it/2})``,
``RX(t) = cos(t/2) I - i sin(t/2) X``, ``Ph(t) = diag(1, e^{it})``, and
``SX`` is the square root of X with ``SX @ SX == X`` exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import apply_local, as_complex_matrix, dagger, finite_number, whole_number

_C = np.complex128

ID2 = np.eye(2, dtype=_C)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=_C)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=_C)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=_C)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=_C) / math.sqrt(2)
SX_MATRIX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=_C)

CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=_C
)
CZ_MATRIX = np.diag([1, 1, 1, -1]).astype(_C)
SWAP_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=_C
)
SQRT_SWAP_MATRIX = np.array(
    [
        [1, 0, 0, 0],
        [0, 0.5 * (1 + 1j), 0.5 * (1 - 1j), 0],
        [0, 0.5 * (1 - 1j), 0.5 * (1 + 1j), 0],
        [0, 0, 0, 1],
    ],
    dtype=_C,
)
SQRT_CZ_MATRIX = np.diag([1, 1, 1, 1j]).astype(_C)
# Commuting fusion of sqrt(SWAP) and sqrt(CZ): acts as the identity on |00>,
# swaps |01>/|10> amplitudes through (1 +/- i)/2, and phases |11> by i.
SQSCZ_MATRIX = SQRT_SWAP_MATRIX @ SQRT_CZ_MATRIX


def rz_matrix(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]).astype(_C)


def rx_matrix(theta: float) -> np.ndarray:
    return math.cos(theta / 2) * ID2 - 1j * math.sin(theta / 2) * PAULI_X


def phase_matrix(theta: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * theta)]).astype(_C)


# name -> (qubit arity, parameter arity, matrix factory)
GATE_DEFS: dict[str, tuple[int, int, object]] = {
    "X": (1, 0, lambda: PAULI_X),
    "SX": (1, 0, lambda: SX_MATRIX),
    "H": (1, 0, lambda: HADAMARD),
    "RZ": (1, 1, rz_matrix),
    "RX": (1, 1, rx_matrix),
    "Ph": (1, 1, phase_matrix),
    "CNOT": (2, 0, lambda: CNOT_MATRIX),
    "CZ": (2, 0, lambda: CZ_MATRIX),
    "SWAP": (2, 0, lambda: SWAP_MATRIX),
    "SQRT_SWAP": (2, 0, lambda: SQRT_SWAP_MATRIX),
    "SQRT_CZ": (2, 0, lambda: SQRT_CZ_MATRIX),
    "SQSCZ": (2, 0, lambda: SQSCZ_MATRIX),
}

_CANONICAL = {name.upper(): name for name in GATE_DEFS}

NATIVE_GATES = frozenset({"RZ", "SX", "X", "CNOT"})


def canonical_gate_name(name: str) -> str:
    if not isinstance(name, str) or name.upper() not in _CANONICAL:
        raise ValueError(f"unknown gate name {name!r}")
    return _CANONICAL[name.upper()]


def gate_unitary(name: str, params: tuple[float, ...] = ()) -> np.ndarray:
    """Matrix of a named gate; raises on unknown names or bad param counts."""
    name = canonical_gate_name(name)
    _, n_params, factory = GATE_DEFS[name]
    if len(params) != n_params:
        raise ValueError(f"gate {name} takes {n_params} parameter(s), got {len(params)}")
    return factory(*params)


@dataclass(frozen=True)
class GateApplication:
    """One gate applied to an ordered tuple of qubit wires."""

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self):
        name = canonical_gate_name(self.name)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "qubits", tuple(whole_number(q, "qubit") for q in self.qubits))
        params = tuple(finite_number(p, f"gate {name} parameter") for p in self.params)
        object.__setattr__(self, "params", params)
        arity, n_params, _ = GATE_DEFS[name]
        if len(self.qubits) != arity:
            raise ValueError(f"gate {name} acts on {arity} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"gate {name} qubits must be distinct, got {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"negative qubit index in {self.qubits}")
        if len(self.params) != n_params:
            raise ValueError(f"gate {name} takes {n_params} parameter(s), got {len(self.params)}")

    def unitary(self) -> np.ndarray:
        return gate_unitary(self.name, self.params)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list on ``num_qubits`` wires; first gate acts first."""

    num_qubits: int
    gates: tuple[GateApplication, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "num_qubits", whole_number(self.num_qubits, "num_qubits"))
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.num_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        for g in self.gates:
            if max(g.qubits) >= self.num_qubits:
                raise ValueError(
                    f"gate {g.name} on qubits {g.qubits} exceeds width {self.num_qubits}"
                )

    def count(self, name: str) -> int:
        name = canonical_gate_name(name)
        return sum(1 for g in self.gates if g.name == name)

    def gate_names(self) -> set[str]:
        return {g.name for g in self.gates}

    def extended(self, *others: "Circuit") -> "Circuit":
        gates = list(self.gates)
        for c in others:
            if c.num_qubits != self.num_qubits:
                raise ValueError("cannot concatenate circuits of different widths")
            gates.extend(c.gates)
        return Circuit(self.num_qubits, tuple(gates))


def ga(name: str, qubits, *params: float) -> GateApplication:
    """Shorthand constructor used when building circuits in code."""
    if isinstance(qubits, int):
        qubits = (qubits,)
    return GateApplication(name, tuple(qubits), tuple(params))


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Total unitary of a circuit (first listed gate applied first).

    Each gate's matrix is contracted with its wires' row axes of the
    ``(2,) * 2K`` unitary tensor by :func:`linalg.apply_local`, as in the simulator.
    """
    k = c.num_qubits
    u = np.eye(2**k, dtype=_C).reshape((2,) * (2 * k))
    for g in c.gates:
        u = apply_local(u, g.unitary(), g.qubits)
    return u.reshape(2**k, 2**k)


def _phase_deviation(u: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """``(max |u - e^{i phi} v|, phi)`` at the phase ``phi = arg Tr(v^dag u)``.

    That phase is optimal for unitaries that actually agree up to phase.
    """
    u = as_complex_matrix(u)
    v = as_complex_matrix(v)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch {u.shape} vs {v.shape}")
    tr = np.trace(dagger(v) @ u)
    phi = float(np.angle(tr)) if abs(tr) > 0 else 0.0
    return float(np.abs(u - np.exp(1j * phi) * v).max()), phi


def equal_up_to_global_phase(
    u: np.ndarray, v: np.ndarray, tol: float = 1e-10
) -> tuple[bool, float]:
    """Whether ``u == e^{i phi} v`` for some phase; returns (flag, phi)."""
    dev, phi = _phase_deviation(u, v)
    return dev < tol, phi


# ---------------------------------------------------------------------------
# Two-qubit constructions
# ---------------------------------------------------------------------------
#
# The SQSCZ gate is exp(i pi/2 P) with P the projector onto the span of the
# antisymmetric state (|01>-|10>)/sqrt(2) and |11>.  Expanding P in Pauli
# operators gives, up to global phase,
#
#   SQSCZ  =  exp(-i pi/8 (XX + YY)) . (RZ(pi/4) (x) RZ(pi/4))
#
# with both factors commuting.  The XY interaction core reduces to two CNOTs
# via  CNOT (RX(2b) (x) RZ(2a)) CNOT = exp(-i (b XX + a ZZ))  and a basis
# change RX(+-pi/2) on both wires mapping ZZ -> YY.  Single-qubit rotations
# are then rewritten over {RZ, SX}:  RX(t) ~ RZ(pi/2) SX RZ(t+pi) SX RZ(pi/2),
# RX(pi/2) ~ SX, RX(-pi/2) ~ RZ(pi) SX RZ(pi).

_PI = math.pi


def sqscz_decomposition() -> Circuit:
    """Two-CNOT realization of SQSCZ over the {RZ, SX, CNOT} gate set."""
    return Circuit(2, tuple(_sqscz_native(0, 1)))


def cnot_from_sqscz() -> Circuit:
    """CNOT (control qubit 0) from two SQSCZ gates plus single-qubit gates.

    Sequence, first acting layer to last:
    ``[X H (x) RX(pi/2)]``, SQSCZ, ``[I (x) Ph(pi/2) X]``, SQSCZ,
    ``[RX(-pi/2) Ph(pi) (x) RZ(-pi/2)]`` where juxtaposition is matrix
    product (right factor applied first).  Verified to equal CNOT exactly
    (zero global phase).
    """
    gates = [
        ga("H", 0),
        ga("X", 0),
        ga("RX", 1, _PI / 2),
        ga("SQSCZ", (0, 1)),
        ga("X", 1),
        ga("Ph", 1, _PI / 2),
        ga("SQSCZ", (0, 1)),
        ga("Ph", 0, _PI),
        ga("RX", 0, -_PI / 2),
        ga("RZ", 1, -_PI / 2),
    ]
    return Circuit(2, tuple(gates))


# ---------------------------------------------------------------------------
# Lowering to the native gate set {RZ, SX, X, CNOT}
# ---------------------------------------------------------------------------


def _h_native(q: int) -> list[GateApplication]:
    return [ga("RZ", q, _PI / 2), ga("SX", q), ga("RZ", q, _PI / 2)]


def _rx_native(q: int, theta: float) -> list[GateApplication]:
    return [
        ga("RZ", q, _PI / 2),
        ga("SX", q),
        ga("RZ", q, theta + _PI),
        ga("SX", q),
        ga("RZ", q, _PI / 2),
    ]


def _cphase_native(q0: int, q1: int, theta: float) -> list[GateApplication]:
    # diag(1,1,1,e^{i theta}) up to global phase
    return [
        ga("CNOT", (q0, q1)),
        ga("RZ", q1, -theta / 2),
        ga("CNOT", (q0, q1)),
        ga("RZ", q0, theta / 2),
        ga("RZ", q1, theta / 2),
    ]


def _sqscz_native(q0: int, q1: int) -> list[GateApplication]:
    return [
        ga("RZ", q0, _PI / 4),
        ga("RZ", q1, _PI / 4),
        ga("SX", q0),
        ga("SX", q1),
        ga("CNOT", (q0, q1)),
        *_rx_native(q0, _PI / 4),
        ga("RZ", q1, _PI / 4),
        ga("CNOT", (q0, q1)),
        # RX(-pi/2) on both qubits
        ga("RZ", q0, _PI),
        ga("SX", q0),
        ga("RZ", q0, _PI),
        ga("RZ", q1, _PI),
        ga("SX", q1),
        ga("RZ", q1, _PI),
    ]


# gate name -> its native sequence, built from the gate's qubits q and parameters p
_LOWERINGS = {
    **{name: lambda q, p, name=name: [GateApplication(name, q, p)] for name in NATIVE_GATES},
    "Ph": lambda q, p: [ga("RZ", q[0], p[0])],  # identical channel to RZ; the phase difference is global
    "H": lambda q, p: _h_native(q[0]),
    "RX": lambda q, p: _rx_native(q[0], p[0]),
    "CZ": lambda q, p: _h_native(q[1]) + [ga("CNOT", q)] + _h_native(q[1]),
    "SQRT_CZ": lambda q, p: _cphase_native(*q, _PI / 2),
    "SWAP": lambda q, p: [ga("CNOT", q), ga("CNOT", q[::-1]), ga("CNOT", q)],
    "SQSCZ": lambda q, p: _sqscz_native(*q),
    # sqrt(SWAP) = SQSCZ . CPhase(-pi/2), the two factors commute
    "SQRT_SWAP": lambda q, p: _cphase_native(*q, -_PI / 2) + _sqscz_native(*q),
}


@lru_cache(maxsize=32)
def to_native(c: Circuit) -> Circuit:
    """Rewrite a circuit over the native gate set {RZ, SX, X, CNOT}.

    The result is channel-equivalent to the input (equal up to global
    phase).  Noisy execution paths lower circuits first so that calibrated
    per-gate noise applies to the gates a device would actually run.
    Circuits are frozen, so each is lowered once and the last 32 are kept.
    """
    gates: list[GateApplication] = []
    for g in c.gates:
        gates.extend(_LOWERINGS[g.name](g.qubits, g.params))
    return Circuit(c.num_qubits, tuple(gates))


# ---------------------------------------------------------------------------
# Circuit (de)serialization
# ---------------------------------------------------------------------------


def circuit_to_dict(c: Circuit) -> dict:
    return {
        "num_qubits": c.num_qubits,
        "gates": [
            {"name": g.name, "params": list(g.params), "qubits": list(g.qubits)}
            for g in c.gates
        ],
    }


def _field(value, kind: type, rule: str):
    if not isinstance(value, kind):
        raise ValueError(f"malformed circuit record: {rule}, got {type(value).__name__}")
    return value


def circuit_from_dict(d: dict) -> Circuit:
    d = _field(d, dict, "the record must be an object")
    try:
        gates = []
        for g in _field(d["gates"], list, "gates must be a list of objects"):
            g = _field(g, dict, "gates must be a list of objects")
            qubits = _field(g["qubits"], list, "a gate's qubits must be a list")
            params = _field(g.get("params", []), list, "a gate's params must be a list")
            gates.append(GateApplication(g["name"], tuple(qubits), tuple(params)))
        return Circuit(d["num_qubits"], tuple(gates))
    except KeyError as exc:
        raise ValueError(f"malformed circuit record: missing field {exc}") from exc


def save_circuit(c: Circuit, path) -> None:
    with open(path, "w") as fh:
        json.dump(circuit_to_dict(c), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_circuit(path) -> Circuit:
    with open(path) as fh:
        return circuit_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Self-checks (used by the CLI gate-check command and the test suite)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    deviation: float
    tolerance: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.deviation < self.tolerance


def verify_gate_identities() -> list[IdentityCheck]:
    """Run the library's algebraic self-checks and report max deviations.

    Exact identities hold entry by entry to 1e-12; constructions and native
    lowerings hold up to global phase to 1e-10, and a construction that
    breaks its structural contract reports an infinite deviation.
    """
    tbl = {name: gate_unitary(name) for name, (_, n_params, _) in GATE_DEFS.items() if n_params == 0}
    p, m = 0.5 * (1 + 1j), 0.5 * (1 - 1j)  # basis action of SQSCZ, written out on its own
    want = np.array([[1, 0, 0, 0], [0, p, m, 0], [0, m, p, 0], [0, 0, 0, 1j]], dtype=_C)
    exact = [
        ("SQSCZ == SQRT_SWAP @ SQRT_CZ", tbl["SQSCZ"], tbl["SQRT_SWAP"] @ tbl["SQRT_CZ"]),
        ("SQSCZ == SQRT_CZ @ SQRT_SWAP", tbl["SQSCZ"], tbl["SQRT_CZ"] @ tbl["SQRT_SWAP"]),
        ("SQRT_SWAP^2 == SWAP", tbl["SQRT_SWAP"] @ tbl["SQRT_SWAP"], tbl["SWAP"]),
        ("SQRT_CZ^2 == CZ", tbl["SQRT_CZ"] @ tbl["SQRT_CZ"], tbl["CZ"]),
        ("SX^2 == X", tbl["SX"] @ tbl["SX"], tbl["X"]),
        ("SQSCZ basis action", tbl["SQSCZ"], want),
        *((f"{name} unitary", dagger(u) @ u, np.eye(u.shape[0])) for name, u in tbl.items()),
    ]
    checks = [IdentityCheck(name, float(np.abs(a - b).max()), 1e-12) for name, a, b in exact]

    def up_to_phase(name: str, c: Circuit, u: np.ndarray, contract: bool = True, detail=""):
        dev, phi = _phase_deviation(circuit_unitary(c), u)
        detail = f"phase {phi:+.6f} rad, {detail}" if detail else ""
        return IdentityCheck(name, dev if contract else np.inf, 1e-10, detail)

    dec, syn = sqscz_decomposition(), cnot_from_sqscz()
    checks.append(up_to_phase(
        "sqscz_decomposition ~ SQSCZ", dec, tbl["SQSCZ"],
        dec.count("CNOT") == 2 and dec.gate_names() <= {"RZ", "SX", "CNOT"},
        f"CNOTs {dec.count('CNOT')}, gates {sorted(dec.gate_names())}"))
    checks.append(up_to_phase(
        "cnot_from_sqscz ~ CNOT", syn, tbl["CNOT"], syn.count("SQSCZ") == 2,
        f"SQSCZ count {syn.count('SQSCZ')}"))
    for name, (arity, n_params, _) in GATE_DEFS.items():
        base = Circuit(arity, (ga(name, tuple(range(arity)), *((0.37,) * n_params)),))
        u = circuit_unitary(base)
        checks.append(up_to_phase(f"to_native({name}) equivalent", to_native(base), u))
    return checks
