"""Validation of the tandem line description."""

import json
import math

import numpy as np
import pytest

from tandemqbd import (
    EmptySystemError,
    InputError,
    LengthMismatchError,
    NegativeBufferError,
    NonPositiveRateError,
    TandemConfig,
    config_from_document,
    load_config_file,
    validate_config,
)


def test_two_server_line():
    cfg = validate_config((1.0, 1.0), (2,))
    assert cfg == TandemConfig(service_rates=(1.0, 1.0), buffer_capacities=(2,))
    assert cfg.num_servers == 2
    assert cfg.num_buffers == 1


def test_single_server_degenerate():
    cfg = validate_config((1.0,), ())
    assert cfg.num_servers == 1
    assert cfg.num_buffers == 0


def test_validation_is_idempotent():
    cfg = validate_config([0.8, 1, 1.25], [0, 3])
    again = validate_config(cfg.service_rates, cfg.buffer_capacities)
    assert again == cfg


def test_rates_are_coerced_to_floats():
    cfg = validate_config([1, 2], [0])
    assert all(isinstance(r, float) for r in cfg.service_rates)


@pytest.mark.parametrize("bad", [-0.5, 0.0, math.nan, math.inf])
def test_non_positive_or_non_finite_rate_rejected(bad):
    with pytest.raises(NonPositiveRateError):
        validate_config((1.0, bad), (0,))


@pytest.mark.parametrize(
    "bad,reason",
    [
        ("abc", "must be a number, got 'abc'"),
        (None, "must be a number, got None"),
        ("1.5", "must be a number, got '1.5'"),
        (True, "must be a number, got True"),
        (10**400, "is beyond the float range"),
    ],
    ids=["word", "null", "numeric-string", "bool", "huge-int"],
)
def test_rate_that_is_not_a_number_rejected(bad, reason):
    with pytest.raises(NonPositiveRateError, match=f"^service rate 1 {reason}$"):
        validate_config((1.0, bad), (0,))
    with pytest.raises(NonPositiveRateError, match=f"^service rate 1 {reason}$"):
        config_from_document({"service_rates": [1.0, bad], "buffer_capacities": [0]})


@pytest.mark.parametrize("bad", [np.True_, np.False_], ids=["true", "false"])
def test_numpy_bool_rate_rejected(bad):
    # float() takes a numpy bool as 1.0 or 0.0; like a Python bool, it is no rate
    with pytest.raises(InputError, match=f"^service rate 0 must be a number, got {bad!r}$"):
        validate_config([bad, 1.0], [0])


def test_bool_buffer_rejected():
    for validate in (
        lambda: validate_config([1, 2], [True]),
        lambda: config_from_document({"service_rates": [1, 2], "buffer_capacities": [True]}),
    ):
        with pytest.raises(InputError, match=r"^buffer 0 must be an integer, got True$"):
            validate()


def test_negative_buffer_rejected():
    with pytest.raises(NegativeBufferError):
        validate_config((1.0, 1.0), (-1,))
    with pytest.raises(NegativeBufferError, match=r"^buffer 1 has negative capacity -1$"):
        validate_config((1.0, 1.0, 1.0), (2, -1))


def test_length_mismatch_rejected():
    with pytest.raises(LengthMismatchError):
        validate_config((1.0, 1.0), (0, 0))
    with pytest.raises(LengthMismatchError):
        validate_config((1.0,), (2,))


def test_empty_system_rejected():
    with pytest.raises(EmptySystemError):
        validate_config((), ())


def test_fractional_buffer_rejected():
    with pytest.raises(InputError):
        validate_config((1.0, 1.0), (1.5,))


def test_config_is_immutable():
    cfg = validate_config((1.0, 1.0), (2,))
    with pytest.raises(AttributeError):
        cfg.service_rates = (2.0, 2.0)


def test_document_round_trip():
    cfg = config_from_document(
        {"service_rates": [0.8, 1.0, 1.0], "buffer_capacities": [1, 1]}
    )
    assert cfg == validate_config([0.8, 1.0, 1.0], [1, 1])


@pytest.mark.parametrize(
    "doc",
    [
        [1, 2],
        {"service_rates": [1.0, 1.0]},
        {"buffer_capacities": [0]},
        {"service_rates": [1.0, 1.0], "buffer_capacities": [0], "extra": 1},
        {"service_rates": [1.0, 1.0], "buffer_capacities": [0.5]},
        {"service_rates": "1,1", "buffer_capacities": [0]},
    ],
)
def test_malformed_documents_rejected(doc):
    with pytest.raises(InputError):
        config_from_document(doc)


def test_load_config_file(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(
        json.dumps({"service_rates": [1.0, 1.0], "buffer_capacities": [2]})
    )
    assert load_config_file(str(path)) == validate_config([1.0, 1.0], [2])


@pytest.mark.parametrize(
    "make,reason",
    [
        (lambda path: None, "cannot read"),
        (lambda path: path.mkdir(), "cannot read"),
        (lambda path: path.write_bytes(b"\xff\xfe"), "not UTF-8"),
    ],
    ids=["missing", "directory", "not-utf8"],
)
def test_unreadable_config_file_is_an_input_error(tmp_path, make, reason):
    path = tmp_path / "line.json"
    make(path)
    with pytest.raises(InputError) as info:
        load_config_file(str(path))
    assert str(path) in str(info.value) and reason in str(info.value)


def test_load_config_file_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InputError):
        load_config_file(str(path))


def test_integer_too_long_to_parse_is_an_input_error(tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"service_rates": [1, 1%s], "buffer_capacities": [0]}' % ("0" * 5000))
    with pytest.raises(InputError, match="is not valid JSON"):
        load_config_file(str(path))
