"""Workload definitions: how each input is generated and how it is run.

Every workload is a function of one workload seed. The seed drives the
synthetic stream and the model seeds of its cells, so the same seed gives
the same input files and the same run directories. Stream lengths are
chosen so that a benchmark run of ``run_seconds`` (see BENCHMARK.json)
repeats each workload at least three times.
"""

from dataclasses import dataclass

DEFAULT_SEED = 40


@dataclass(frozen=True)
class Workload:
    name: str
    length: int
    prevalence: float
    strategies: tuple
    n_seeds: int
    train_positive_target: int
    n_features: int = 4
    n_categories: int = 0
    drift: tuple = ()  # (event index, benign mean) pairs
    messy: bool = False  # shuffled rows and blank cells, as real exports have

    def synth_args(self, seed):
        """`alertscreen synth` flags for this workload's stream."""
        args = [
            "--length", str(self.length),
            "--prevalence", repr(self.prevalence),
            "--n-features", str(self.n_features),
            "--n-categories", str(self.n_categories),
            "--topology", "single-burst",
            "--burst-start", "0.08",
            "--seed", str(seed),
        ]
        for index, mean in self.drift:
            args += ["--drift", f"{index}:{mean!r}"]
        return args

    def cell_seeds(self, seed):
        return [seed + k for k in range(self.n_seeds)]

    def run_args(self, seed, csv_path, out_dir):
        """`alertscreen run` argv; paths are relative so outputs are portable."""
        return [
            "run",
            "--strategy", ",".join(self.strategies),
            "--seed", ",".join(str(s) for s in self.cell_seeds(seed)),
            "--out", out_dir,
            "--dataset.csv", csv_path,
            "--dataset.manifest", csv_path + ".manifest",
            "--dataset.train_positive_target", str(self.train_positive_target),
        ]

    @property
    def n_cells(self):
        return len(self.strategies) * self.n_seeds


def _alternating(start, stop, step):
    """Benign mean 2.0, 0.0, 2.0, ... from `start`, switching every `step` events."""
    return tuple((index, 2.0 - 2.0 * (k % 2)) for k, index in enumerate(range(start, stop, step)))


WORKLOADS = {
    w.name: w
    for w in (
        # The README quick start, shortened from 100k to 20k events so that
        # one run of the benchmark holds several matrices. The drift point
        # moves with the length (mid-stream). Every layer runs here, and it
        # is the only workload that trains the same seed's core three times.
        Workload(
            name="readme-matrix",
            length=20_000,
            prevalence=0.004,
            strategies=("frozen", "periodic", "adwin-hybrid"),
            n_seeds=3,
            train_positive_target=40,
            drift=((10_000, 2.0),),
        ),
        # One adwin-hybrid cell whose benign mean flips between 2.0 and 0.0
        # every 8k events after the training prefix: ADWIN detects again and
        # again and warm starts keep rewriting the ensemble, while training
        # is paid once and there is no matrix to share it across.
        Workload(
            name="adwin-drift-long",
            length=90_000,
            prevalence=0.004,
            strategies=("adwin-hybrid",),
            n_seeds=1,
            train_positive_target=40,
            drift=_alternating(10_000, 90_000, 8_000),
        ),
        # A wide stream (16 numeric features and a 5-value category) written
        # out of timestamp order with blank cells, run frozen: ingest and
        # training dominate, the ensemble is read-only, and ADWIN, queries
        # and warm starts are bypassed.
        Workload(
            name="frozen-wide",
            length=40_000,
            prevalence=0.004,
            strategies=("frozen", "threshold-only"),
            n_seeds=1,
            train_positive_target=40,
            n_features=16,
            n_categories=5,
            messy=True,
        ),
    )
}
