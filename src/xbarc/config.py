"""Architecture configuration: gate fidelity model and decomposition rules.

The JSON schema:

    {
      "fidelities": {
        "single_qubit": {"mean": 0.9999, "std": 0.00005},
        "shuttle":      {"mean": 0.9999, "std": 0.00005},
        "sqswap":       {"mean": 0.9998, "std": 0.00005}
      },
      "seed": 1,
      "decompositions": {
        "<kind>": [{"kind": "...", "angle": <rad>, "operand_roles": [..]}, ...]
      }
    }

Absent fields fall back to the defaults below. Decomposition templates are
listed in program order; operand_roles index into the source gate's operands.
A template step is the Gate it describes, with roles for qubits, so Gate
owns operand counts, distinct operands and "angle iff rotation"; the loader
checks only what a Gate cannot know: native step kinds, roles within the
source gate's operands, and finite angles.
The shipped CNOT rule was pinned by a brute-force unitary search: it equals
CNOT up to global phase to better than 1e-12 per entry.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .circuits import NATIVE_KINDS, TWO_QUBIT_KINDS, Gate, GateKind, is_finite_real, is_int
from .errors import ConfigError

FIDELITY_CLASSES = ("single_qubit", "shuttle", "sqswap")

DEFAULT_MEANS = {"single_qubit": 0.9999, "shuttle": 0.9999, "sqswap": 0.9998}
DEFAULT_STD = 0.00005
DEFAULT_SEED = 1

_PI = math.pi

# Program-order templates onto the native set, as Gates whose qubits are
# operand roles. Each is unitary-equivalent to its source gate up to global
# phase (re-verified in the test suite).
DEFAULT_DECOMPOSITIONS: dict[GateKind, tuple[Gate, ...]] = {
    GateKind.H: (Gate(GateKind.RZ, (0,), _PI), Gate(GateKind.RY, (0,), _PI / 2)),
    GateKind.X: (Gate(GateKind.RX, (0,), _PI),),
    GateKind.Y: (Gate(GateKind.RY, (0,), _PI),),
    GateKind.Z: (Gate(GateKind.RZ, (0,), _PI),),
    GateKind.S: (Gate(GateKind.RZ, (0,), _PI / 2),),
    GateKind.SDG: (Gate(GateKind.RZ, (0,), -_PI / 2),),
    GateKind.T: (Gate(GateKind.RZ, (0,), _PI / 4),),
    GateKind.TDG: (Gate(GateKind.RZ, (0,), -_PI / 4),),
    GateKind.CNOT: (
        Gate(GateKind.RY, (1,), _PI / 2),
        Gate(GateKind.SQSWAP, (0, 1)),
        Gate(GateKind.RZ, (0,), _PI / 2),
        Gate(GateKind.RZ, (1,), -_PI / 2),
        Gate(GateKind.SQSWAP, (0, 1)),
        Gate(GateKind.RY, (1,), -_PI / 2),
    ),
    GateKind.CZ: (
        Gate(GateKind.SQSWAP, (0, 1)),
        Gate(GateKind.RZ, (0,), _PI),
        Gate(GateKind.SQSWAP, (0, 1)),
        Gate(GateKind.RZ, (0,), _PI / 2),
        Gate(GateKind.RZ, (1,), -_PI / 2),
    ),
}


@dataclass(frozen=True)
class ArchConfig:
    means: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MEANS))
    stds: dict[str, float] = field(default_factory=lambda: {c: DEFAULT_STD for c in FIDELITY_CLASSES})
    seed: int = DEFAULT_SEED
    decompositions: dict[GateKind, tuple[Gate, ...]] = field(
        default_factory=lambda: dict(DEFAULT_DECOMPOSITIONS)
    )


def _check_fidelity(name: str, value) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"fidelities.{name} must be a number, got {value!r}")
    if not 0.0 < value <= 1.0:
        raise ConfigError(f"fidelities.{name} must be in (0, 1], got {value}")
    return float(value)


def check_seed(name: str, value) -> int:
    """`value` if it is a nonnegative integer (numpy's seed domain); a
    ConfigError naming `name` otherwise."""
    if not (is_int(value) and value >= 0):
        raise ConfigError(f"{name} must be a nonnegative integer, got {value!r}")
    return value


def _parse_rule(src_kind: str, steps) -> tuple[GateKind, tuple[Gate, ...]]:
    try:
        kind = GateKind(src_kind)
    except ValueError:
        raise ConfigError(f"decompositions: unknown gate kind {src_kind!r}") from None
    if kind in NATIVE_KINDS:
        raise ConfigError(f"decompositions: {src_kind!r} is native, no rule allowed")
    if not isinstance(steps, list) or not steps:
        raise ConfigError(f"decompositions.{src_kind} must be a nonempty list")
    where = f"decompositions.{src_kind}"
    arity = 2 if kind in TWO_QUBIT_KINDS else 1
    out = []
    for s in steps:
        try:
            step_kind = GateKind(s["kind"])
        except (KeyError, ValueError, TypeError):
            raise ConfigError(f"{where}: bad step {s!r}") from None
        if step_kind not in NATIVE_KINDS:
            raise ConfigError(f"{where}: template may contain only native kinds, got {s['kind']!r}")
        roles = s.get("operand_roles", [0])
        if not (isinstance(roles, list) and all(is_int(r) and 0 <= r < arity for r in roles)):
            raise ConfigError(f"{where}: operand_roles must index {arity} operand(s), got {roles!r}")
        angle = s.get("angle")
        if angle is not None and not is_finite_real(angle):
            raise ConfigError(f"{where}: angle must be a finite number, got {angle!r}")
        try:  # operand count, distinct operands, angle iff rotation
            out.append(Gate(step_kind, tuple(roles), angle))
        except ValueError as e:
            raise ConfigError(f"{where}: {e}") from None
    return kind, tuple(out)


def load_config(text: str) -> ArchConfig:
    """Parse a JSON config, filling defaults for absent fields.

    Raises ConfigError, naming the field, on schema violations (fidelity
    outside (0,1], std not finite and nonnegative, negative seed,
    non-native decomposition steps, unknown kinds, non-finite angles,
    operand roles past the gate's operands).
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    except RecursionError:
        raise ConfigError("config nests JSON deeper than the decoder allows") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    known = {"fidelities", "seed", "decompositions"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    means = dict(DEFAULT_MEANS)
    stds = {c: DEFAULT_STD for c in FIDELITY_CLASSES}
    fids = raw.get("fidelities", {})
    if not isinstance(fids, dict):
        raise ConfigError("fidelities must be an object")
    for cls, spec in fids.items():
        if cls not in FIDELITY_CLASSES:
            raise ConfigError(f"unknown fidelity class {cls!r}")
        if not isinstance(spec, dict):
            raise ConfigError(f"fidelities.{cls} must be an object")
        if "mean" in spec:
            means[cls] = _check_fidelity(f"{cls}.mean", spec["mean"])
        if "std" in spec:
            std = spec["std"]
            if not (is_finite_real(std) and std >= 0):
                raise ConfigError(f"fidelities.{cls}.std must be finite and nonnegative, got {std!r}")
            stds[cls] = float(std)

    seed = check_seed("seed", raw.get("seed", DEFAULT_SEED))

    rules = dict(DEFAULT_DECOMPOSITIONS)
    decompositions = raw.get("decompositions", {})
    if not isinstance(decompositions, dict):
        raise ConfigError("decompositions must be an object")
    for src_kind, steps in decompositions.items():
        kind, rule = _parse_rule(src_kind, steps)
        rules[kind] = rule

    return ArchConfig(means=means, stds=stds, seed=seed, decompositions=rules)
