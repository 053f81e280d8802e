"""The protocol runner: the entanglement bit-transmission scheme under a
receiver model, with the CLI's checks of its strategy label.

Only a protocol run imports it, through photonlab.runner._lazy_runner.
"""

import math

from .runner import (MAX_PAIRS_PER_BIT, MAX_STRATEGY_NESTING, ConfigError, _invalid,
                     _library)


def _strategy(label: str):
    """The receiver a strategy label names, within the CLI's caps. The
    nesting cap is checked on the raw label, before it is parsed."""
    if label.count("repetition:") > MAX_STRATEGY_NESTING:
        raise ConfigError(f"strategy nests more than {MAX_STRATEGY_NESTING} repetitions; "
                          "lower its nesting")
    (parse_strategy,) = _library("parse_strategy")
    try:
        strategy = parse_strategy(label)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if strategy.pairs_per_bit > MAX_PAIRS_PER_BIT:
        raise ConfigError(
            f"strategy {label.strip()} sends {strategy.pairs_per_bit} pairs per bit, "
            f"more than {MAX_PAIRS_PER_BIT}; lower its repetition factors"
        )
    return strategy


def run(params, seed):
    n_bits = params["n_bits"]
    # the balanced bit source splits n_bits into equal halves of ones and zeros
    if params["bit_source"] == "balanced" and n_bits % 2:
        raise _invalid("n_bits", f"{n_bits} is not a multiple of 2, as the balanced "
                                 "bit source needs")
    strategy = _strategy(params["strategy"])
    EncodingRule, run_protocol = _library("EncodingRule", "run_protocol")
    rule = EncodingRule(
        basis_for_one=math.radians(params["rule"]["one_deg"]),
        basis_for_zero=math.radians(params["rule"]["zero_deg"]),
    )
    report = run_protocol(
        n_bits,
        rule=rule,
        strategy=strategy,
        seed=seed,
        bit_source=params["bit_source"],
    )
    payload = {
        "n_bits": int(report.n_bits),
        "ber": float(report.ber),
        "mutual_info_bits": float(report.mutual_info_bits),
        "mi_confidence_interval": [float(v) for v in report.mi_confidence_interval],
        "decode_ties": int(report.decode_ties),
        "strategy": report.strategy.label,
        "rule": {
            "one_deg": math.degrees(report.rule.basis_for_one),
            "zero_deg": math.degrees(report.rule.basis_for_zero),
        },
        "bit_source": report.bit_source,
    }
    summary = {"ber": payload["ber"], "mutual_info_bits": payload["mutual_info_bits"]}
    # iid bits draw their count of ones from stream 0; balanced bits draw nothing
    return payload, None, summary, [range(1)] if params["bit_source"] == "iid" else []
