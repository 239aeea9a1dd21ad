"""Fleet benchmark: simulated database-hours per wall-second, plus a
traced per-layer ledger.  Run ``python3 perfbench/run.py --help``."""
