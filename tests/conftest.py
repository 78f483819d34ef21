import numpy as np
import pytest

from alertscreen.drift import AdwinDetector


def gaussian_splits(
    seed,
    n_train=4_000,
    n_stream=20_000,
    n_features=4,
    train_prevalence=0.05,
    stream_prevalence=0.01,
    separation=2.5,
    drift_at=None,
    drift_shift=0.0,
):
    """Two-class Gaussian train/stream matrices for controller-level tests.

    ``drift_at`` (stream index) shifts the benign mean by ``drift_shift``
    from that event on, so a frozen model degrades on the tail.
    """
    rng = np.random.default_rng(seed)
    y_train = (rng.random(n_train) < train_prevalence).astype(np.int64)
    if y_train.sum() == 0:
        y_train[0] = 1
    X_train = rng.normal(0.0, 1.0, size=(n_train, n_features))
    X_train[y_train == 1] += separation

    y_stream = (rng.random(n_stream) < stream_prevalence).astype(np.int64)
    X_stream = rng.normal(0.0, 1.0, size=(n_stream, n_features))
    X_stream[y_stream == 1] += separation
    if drift_at is not None:
        benign_tail = (np.arange(n_stream) >= drift_at) & (y_stream == 0)
        X_stream[benign_tail] += drift_shift
    return X_train, y_train, X_stream, y_stream


def first_detection(values, chunk=64, **detector_kwargs):
    """(index, detector): the first value after which the window shrank.

    Finds the chunk that holds it with batched updates, then replays that
    chunk one value at a time on a fresh detector, which is returned as of
    the detection. (None, detector after every value) when none shrank.
    """
    probe = AdwinDetector(**detector_kwargs)
    for start in range(0, len(values), chunk):
        if probe.update(values[start : start + chunk]):
            detector = AdwinDetector(**detector_kwargs)
            detector.update(values[:start])
            for i in range(start, start + chunk):
                if detector.update(values[i]):
                    return i, detector
    return None, probe


@pytest.fixture(scope="session")
def small_splits():
    return gaussian_splits(seed=9, n_train=2_000, n_stream=8_000)
