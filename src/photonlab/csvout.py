"""The CSV writer: a table as a header line and one line per row.

photonlab.runner imports this module only for a run with --format csv.
"""

from . import runner


def _csv_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".10g")


def _csv_cells(cells: list):
    """A %-format and the cells it renders as _csv_cell would."""
    kinds = set(map(type, cells))
    if kinds <= {float}:
        return "%.10g", cells
    if kinds <= {int}:
        return "%d", cells
    return "%s", [_csv_cell(cell) for cell in cells]


def write_csv(fh, table) -> None:
    """Write the table as CSV, runner.WRITE_ROWS rows at a time, each row
    through one %-template: 10 significant digits for floats."""
    fh.write(",".join(table.columns) + "\n")
    columns = list(table.columns.values())
    for start in range(0, len(columns[0]), runner.WRITE_ROWS):
        formats, cells = zip(*(_csv_cells(runner._block(c, start)) for c in columns))
        fh.write("".join(map((",".join(formats) + "\n").__mod__, zip(*cells))))
