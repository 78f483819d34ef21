"""Streaming alert-screen harness.

A frozen boosted screener wrapped with a score-shift trigger, budgeted
query policies, and warm-start model updates, evaluated on SOC-facing
endpoints (benign-normalized FP burden, positive-window recall, realized
query rate).
"""

from .controller import RunSettings, run_stream
from .ingest import prepare_dataset
