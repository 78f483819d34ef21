"""Write one workload's input files: `python3 perfbench/gen.py WORKLOAD SEED CSV`.

Runs in its own process so that generation never shows in the measured
process's time or memory. The CSV and its manifest are all the program
receives.
"""

import csv
import sys

import numpy as np

from program import import_alertscreen
from workloads import WORKLOADS

BLANK_FRACTION = 0.03


def mess_up(csv_path, seed):
    """Shuffle the rows and blank a few feature cells, as real exports have.

    Timestamp and label stay intact; every numeric and categorical feature
    cell is blanked with probability BLANK_FRACTION.
    """
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    rng = np.random.default_rng([seed, 1])
    order = rng.permutation(len(body))
    blank = rng.random((len(body), len(header))) < BLANK_FRACTION
    blank[:, [header.index("timestamp"), header.index("label")]] = False
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in order:
            writer.writerow("" if blank[r, c] else v for c, v in enumerate(body[r]))


def main(argv):
    name, seed, csv_path = argv[0], int(argv[1]), argv[2]
    workload = WORKLOADS[name]
    import_alertscreen()
    from alertscreen import cli

    code = cli.main(["synth", "--out", csv_path] + workload.synth_args(seed))
    if code != 0:
        return code
    if workload.messy:
        mess_up(csv_path, seed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
