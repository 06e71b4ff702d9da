"""Config parsing, defaults and schema validation."""
import re

import pytest

from xbarc import GateKind, load_config
from xbarc.config import DEFAULT_DECOMPOSITIONS, DEFAULT_SEED, DEFAULT_STD
from xbarc.cli import _load_arch
from xbarc.errors import ConfigError, XbarcError


def test_empty_config_gets_defaults():
    cfg = load_config("{}")
    assert cfg.means == {"single_qubit": 0.9999, "shuttle": 0.9999, "sqswap": 0.9998}
    assert cfg.stds == {c: DEFAULT_STD for c in cfg.stds}
    assert cfg.seed == DEFAULT_SEED
    assert cfg.decompositions == DEFAULT_DECOMPOSITIONS


def test_sqswap_mean_override():
    cfg = load_config('{"fidelities": {"sqswap": {"mean": 0.9998}}}')
    assert cfg.means["sqswap"] == 0.9998


def test_fidelity_out_of_range():
    with pytest.raises(ConfigError):
        load_config('{"fidelities": {"sqswap": {"mean": 1.2}}}')
    with pytest.raises(ConfigError):
        load_config('{"fidelities": {"shuttle": {"mean": 0.0}}}')
    with pytest.raises(ConfigError):
        load_config('{"fidelities": {"shuttle": {"std": -0.1}}}')


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        load_config('{"fidelity": {}}')
    with pytest.raises(ConfigError):
        load_config('{"fidelities": {"threeq": {"mean": 0.9}}}')


def test_bad_json():
    with pytest.raises(ConfigError):
        load_config("{")


def test_decomposition_override():
    cfg = load_config(
        '{"decompositions": {"x": [{"kind": "ry", "angle": 3.141592653589793,'
        ' "operand_roles": [0]}]}}'
    )
    rule = cfg.decompositions[GateKind.X]
    assert len(rule) == 1 and rule[0].kind is GateKind.RY
    # other defaults untouched
    assert cfg.decompositions[GateKind.H] == DEFAULT_DECOMPOSITIONS[GateKind.H]


def test_decomposition_rule_validation():
    with pytest.raises(ConfigError):
        load_config('{"decompositions": {"bogus": []}}')
    with pytest.raises(ConfigError):
        load_config('{"decompositions": {"x": [{"kind": "h", "operand_roles": [0]}]}}')
    with pytest.raises(ConfigError):
        load_config('{"decompositions": {"rx": [{"kind": "rx", "angle": 1, "operand_roles": [0]}]}}')
    with pytest.raises(ConfigError):
        load_config('{"decompositions": {"x": [{"kind": "rx", "operand_roles": [0]}]}}')


def test_measure_has_no_rule():
    # measure statements are dropped by the parser, so no rule could fire
    with pytest.raises(ConfigError, match="decompositions: unknown gate kind 'measure'"):
        load_config('{"decompositions": {"measure": [{"kind": "rx", "angle": 1, "operand_roles": [0]}]}}')


def test_seed_must_be_int():
    with pytest.raises(ConfigError):
        load_config('{"seed": "abc"}')
    assert load_config('{"seed": 99}').seed == 99


def test_determinism():
    text = '{"fidelities": {"sqswap": {"mean": 0.995}}, "seed": 7}'
    assert load_config(text) == load_config(text)


@pytest.mark.parametrize(
    "text, env_seed, field",
    [
        ('{"decompositions": []}', None, "decompositions must be an object"),
        ('{"decompositions": {"x": [{"kind": "rx", "angle": "pi"}]}}', None, "decompositions.x: angle"),
        ('{"decompositions": {"x": [{"kind": "rx", "angle": 1.0, "operand_roles": [3]}]}}', None,
         "decompositions.x: operand_roles"),
        ('{"decompositions": {"x": [{"kind": "rx", "angle": NaN}]}}', None, "decompositions.x: angle"),
        ('{"decompositions": {"x": [{"kind": "rx", "angle": true}]}}', None, "decompositions.x: angle"),
        ('{"fidelities": {"shuttle": {"std": NaN}}}', None, "fidelities.shuttle.std"),
        ('{"fidelities": {"shuttle": {"std": Infinity}}}', None, "fidelities.shuttle.std"),
        ('{"seed": -1}', None, "seed must be a nonnegative integer"),
        ("{}", "-1", "SPINQ_SEED must be a nonnegative integer"),
        ("[]", None, "config root must be a JSON object"),
        ('{"fidelities": []}', None, "fidelities must be an object"),
        ('{"fidelities": {"shuttle": 5}}', None, "fidelities.shuttle must be an object"),
        ('{"fidelities": {"shuttle": {"mean": "x"}}}', None, "fidelities.shuttle.mean must be a number, got 'x'"),
        ('{"decompositions": {"h": []}}', None, "decompositions.h must be a nonempty list"),
        ('{"decompositions": {"h": [5]}}', None, "decompositions.h: bad step 5"),
        ('{"seed": ' + "[" * 3000 + "]" * 3000 + "}", None, "config nests JSON deeper than the decoder allows"),
    ],
    ids=[
        "decompositions-list", "angle-string", "roles-past-arity", "angle-nan", "angle-bool",
        "std-nan", "std-inf", "seed-negative", "env-seed-negative", "root-list", "fidelities-list",
        "fidelity-class-number", "mean-string", "rule-empty", "rule-step-number", "json-too-deep",
    ],
)
def test_bad_config_names_the_field(tmp_path, monkeypatch, text, env_seed, field):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    if env_seed is None:
        monkeypatch.delenv("SPINQ_SEED", raising=False)
    else:
        monkeypatch.setenv("SPINQ_SEED", env_seed)
    with pytest.raises(XbarcError, match=re.escape(field)):
        _load_arch(str(path))
