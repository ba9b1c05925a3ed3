"""Reproduce the benchmark put-price table and report deviations.

Prints the payoff column, the closed forms at both volatility conventions,
and the two jump-model columns at r in {0, 0.1}, then reads the jump columns
back from the CSV that `levypide table1` wrote (to --output, or to a
temporary file) and compares them against the frozen reference values cell
by cell.  The deviation report is the point: the jump columns do not
reproduce the reference values (see README), and this script shows exactly
by how much.

Usage: python3 scripts/run_table1.py [--grid-n N] [--grid-m M] [--output CSV]
"""
import argparse
import csv
import os
import sys
import tempfile

from levypide import Merton, OptionSpec
from levypide.cli import main as cli_main
from levypide.oracle import merton_series_price

REFERENCE_MERTON = {
    0.0: (17.1692, 14.8335, 12.6423, 10.6201, 8.78655, 7.155, 5.73137, 5.83246),
    0.1: (12.9056, 10.9901, 9.21922, 7.61307, 6.18483, 4.94044, 3.87864, 2.99166),
}
REFERENCE_VG = {
    0.0: (19.2687, 17.2948, 15.428, 13.674, 12.0372, 10.52, 9.12343, 7.84623),
    0.1: (14.9855, 13.3899, 11.8822, 10.4691, 9.15576, 7.94499, 6.83762, 4.51403),
}


def deviation_report(table_csv: str) -> None:
    """Compare the jump columns of a `levypide table1` CSV with the reference."""
    with open(table_csv, newline="") as fh:
        rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]

    print("\ndeviations from the reference table (computed - reference):")
    columns = [
        (f"{name}_r{r:g}", ref[r])
        for name, ref in (("merton", REFERENCE_MERTON), ("vg", REFERENCE_VG))
        for r in (0.0, 0.1)
    ]
    print(f"{'S':>8}  " + "  ".join(f"{col:>12}" for col, _ in columns))
    for i, row in enumerate(rows):
        cells = [f"{row[col] - ref[i]:+12.4f}" for col, ref in columns]
        print(f"{row['S']:>8g}  " + "  ".join(cells))

    print("\ncross-checks at S = 100 (engines agree; the table is the outlier):")
    atm = next(row for row in rows if row["S"] == 100.0)
    merton = Merton(lam=0.1, m=-0.2, delta=0.15)
    for r in (0.0, 0.1):
        spec = OptionSpec(strike=100.0, expiry=1.0, rate=r, sigma=0.23, kind="put")
        fd = atm[f"merton_r{r:g}"]
        series = merton_series_price(spec, merton, 100.0)
        print(
            f"  r={r:g}: solver {fd:.5f}  series {series:.5f}  "
            f"(gap {fd - series:+.5f}); closed form at sigma=0.12: "
            f"{atm[f'bs_sigma0.12_r{r:g}']:.5f}"
        )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--grid-n", type=int, default=400, help="spatial intervals")
    ap.add_argument("--grid-m", type=int, default=200, help="time steps")
    ap.add_argument("--output", help="also write the table as CSV")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        table_csv = args.output or os.path.join(tmp, "table1.csv")
        code = cli_main(
            ["table1", "--grid-n", str(args.grid_n), "--grid-m", str(args.grid_m),
             "--output", table_csv]
        )
        if code != 0:
            return code
        deviation_report(table_csv)
    return 0


if __name__ == "__main__":
    sys.exit(main())
