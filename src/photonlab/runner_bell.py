"""The bell runner: the singlet correlation sweep and the CHSH statistic.

Only a bell run imports it, through photonlab.runner._lazy_runner.
"""

import math

from .runner import Table, _grid_from_sweep, _library, _radians


def run(params, seed):
    grid = _grid_from_sweep(params["sweep"])
    # the sweep's columns, lists or arrays as the sweep's size has them drawn;
    # imported once the sweep passed its check, so a bad sweep loads no entangle
    from .entangle import _correlation_columns

    (chsh,) = _library("chsh")
    # sweep point i draws from stream i, the CHSH settings from the next four
    points, settings = range(len(grid)), range(len(grid), len(grid) + 4)
    e_values, std_errs = _correlation_columns(_radians(grid), 0.0, params["n_per_point"],
                                              seed=seed, stream_base=points.start)
    rows = Table(delta_deg=grid, e_value=e_values, std_err=std_errs)
    s_value = chsh(
        tuple(math.radians(a) for a in params["chsh_angles_deg"]),
        params["n_per_setting"],
        seed=seed,
        stream_base=settings.start,
    )
    payload = {
        "sweep_rows": rows,
        "chsh": {
            "angles_deg": [float(a) for a in params["chsh_angles_deg"]],
            "n_per_setting": params["n_per_setting"],
            "s_value": float(s_value),
        },
    }
    summary = {"chsh_s": float(s_value)}
    return payload, rows, summary, [points, settings]
