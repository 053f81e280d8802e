"""The mzi runner: Mach-Zehnder fringes and delayed-choice timing invariance.

Only an mzi run imports it, through photonlab.runner._lazy_runner.
"""

import math

from .mzi import _d0_counts
from .runner import Table, _library, _radians


def _fractions(counts, n: int):
    """counts / n, for a list of counts or an array of them."""
    return [c / n for c in counts] if isinstance(counts, list) else counts / n


def run(params, seed):
    MziConfig, choice_timing_invariance = _library("MziConfig", "choice_timing_invariance")
    phases_deg = [float(d) for d in params["phases_deg"]]
    phases = _radians(phases_deg)
    n = params["n_per_phase"]
    # phase i draws from stream 4i closed and 4i + 2 open; the timing
    # comparison takes the three streams after the last phase's
    span = 4 * len(phases_deg)
    fringe = [range(0, span, 4), range(2, span, 4)]
    # the fringe's counts, a list or an array as the sweep's size has them drawn
    closed, opened = (_d0_counts(phases, second_bs, n, seed, params["mode"], indices.start,
                                 indices.step)
                      for second_bs, indices in zip((True, False), fringe))
    streams = fringe if params["mode"] == "mc" else []
    rows = Table(phase_deg=phases_deg, closed_fraction_d0=_fractions(closed, n),
                 open_fraction_d0=_fractions(opened, n))
    timing_payload = None
    if params["timing"] is not None:
        timing = params["timing"]
        phase = math.radians(timing["phase_deg"])
        streams.append(range(span, span + 3))
        report = choice_timing_invariance(
            MziConfig(phase, second_bs=True, choice_policy="delayed-random",
                      p_present=timing["p_present"]),
            MziConfig(phase, second_bs=True),
            timing["n"],
            seed=seed,
            stream_base=streams[-1].start,
        )
        timing_payload = {
            "phase_deg": float(timing["phase_deg"]),
            "choice": report.choice,
            "n_conditional": int(report.n_conditional),
            # None when the draw left the branch empty, as no comparison was made
            "conditional_fraction_d0": report.conditional_fraction_d0,
            "fixed_n": int(report.fixed_n),
            "fixed_fraction_d0": float(report.fixed_fraction_d0),
            "z_value": report.z_value,
            "within_4_sigma": report.within_4_sigma,
        }
    payload = {"fringe_rows": rows, "timing": timing_payload}
    summary = {
        "timing_within_4_sigma": None if timing_payload is None
        else timing_payload["within_4_sigma"],
    }
    return payload, rows, summary, streams
