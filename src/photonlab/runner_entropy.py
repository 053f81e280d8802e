"""The entropy runner: superposition entropy before and after collapse.

Only an entropy run imports it, through photonlab.runner._lazy_runner.
"""

import operator
from array import array

from .runner import Table, _library


def run(params, seed):
    binary_entropy, eigenbasis_entropy = _library("binary_entropy", "eigenbasis_entropy")
    p0 = array("d", params["grid"])
    # collapse in the measured basis (theta = 0) leaves one of its
    # eigenvectors, whose outcome entropy is the same at every point
    after_bits = eigenbasis_entropy(0.0)
    before = array("d", map(binary_entropy, p0))
    after = array("d", [after_bits]) * len(p0)
    delta = array("d", map(operator.sub, after, before))
    rows = Table(p0=p0, before_bits=before, after_bits=after, delta_bits=delta)
    return {"rows": rows}, rows, {"max_after_bits": after_bits}, []
