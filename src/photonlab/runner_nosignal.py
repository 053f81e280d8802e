"""The nosignal runner: Bob-marginal trace distances and per-basis statistics.

Only a nosignal run imports it, through photonlab.runner._lazy_runner.
"""

import math

from .runner import Table, _library


def run(params, seed):
    ALGEBRA_ATOL, bob_marginal_counts, no_signaling_check, wilson_interval = _library(
        "ALGEBRA_ATOL", "bob_marginal_counts", "no_signaling_check", "wilson_interval")
    bases_deg = [float(d) for d in params["bases_a_deg"]]
    probe_deg = float(params["probe_basis_deg"])
    probe = math.radians(probe_deg)
    n = params["n_per_basis"]
    bases = [math.radians(d) for d in bases_deg]
    distance = no_signaling_check(bases)
    # basis i draws from stream i
    basis_streams = range(len(bases))
    count0 = [bob_marginal_counts(theta, probe, n, seed=seed, stream_base=i)[1]
              for i, theta in zip(basis_streams, bases)]
    lo, hi = zip(*(wilson_interval(c, n) for c in count0))
    rows = Table(basis_a_deg=bases_deg, n=[n] * len(bases),
                 bob_fraction_d0=[c / n for c in count0], ci_lo=list(lo), ci_hi=list(hi))
    payload = {
        "max_trace_distance": distance,
        "within_atol": distance < ALGEBRA_ATOL,
        "probe_basis_deg": probe_deg,
        "rows": rows,
    }
    summary = {"max_trace_distance": distance}
    return payload, rows, summary, [basis_streams]
