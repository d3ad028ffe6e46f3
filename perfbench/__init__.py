"""Outside-in benchmark of the Iso-Map reproduction (see run.py)."""
