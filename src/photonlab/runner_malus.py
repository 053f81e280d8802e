"""The malus runner: polarizer cascades, analytic or Monte Carlo, and sweeps.

Only a malus run imports it, through photonlab.runner._lazy_runner.
"""

import itertools
import math
import operator
from array import array

from .runner import Table, _grid_from_sweep, _library
from .scalars import snap_probability


def run(params, seed):
    cascade_mc, malus_law, stage_pass_probabilities = _library(
        "cascade_mc", "malus_law", "stage_pass_probabilities")
    if params["sweep"] is not None:
        grid = _grid_from_sweep(params["sweep"])
        # natural light through polarizers at 90, theta and 0 degrees: the
        # snapped pass probabilities of its stages multiplied in stage order,
        # as the analytic cascade [90, theta, 0] multiplies them
        ninety, zero = math.radians(90.0), math.radians(0.0)
        finals = array("d", (0.5 * snap_probability(malus_law(ninety, theta))
                             * snap_probability(malus_law(theta, zero))
                             for theta in map(math.radians, grid)))
        best = finals.index(max(finals))
        summary = {"max_final_intensity": finals[best], "argmax_deg": grid[best]}
        rows = Table(theta_deg=grid, final_intensity=finals)
        return {"sweep_rows": rows}, rows, summary, []

    axes = [math.radians(a) for a in params["axes_deg"]]
    source_angle = math.radians(params["source_angle_deg"])
    if params["mode"] == "analytic":
        # each stage's intensity is the product of the snapped pass
        # probabilities up to it
        fractions = list(itertools.accumulate(
            map(snap_probability, stage_pass_probabilities(axes, params["source"], source_angle)),
            operator.mul))
        payload, streams, counts = {}, [], {}
    else:
        result = cascade_mc(
            params["n_photons"],
            axes,
            source=params["source"],
            source_angle=source_angle,
            seed=seed,
        )
        fractions = [float(f) for f in result.fractions()]
        # the cascade draws its stage counts from stream 0
        payload, streams = {"n_photons": params["n_photons"]}, [range(1)]
        counts = {"count": [int(c) for c in result.per_stage_counts]}
    # the result's stages add the counts of a Monte Carlo run; CSV has none
    stages = Table(stage=list(range(len(axes))),
                   axis_deg=[float(a) for a in params["axes_deg"]],
                   fraction=fractions)
    payload["stages"] = Table(**stages.columns, **counts)
    payload["final_intensity"] = fractions[-1]
    return payload, stages, {"final_intensity": payload["final_intensity"]}, streams
