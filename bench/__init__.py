"""The repo's benchmark: four workloads, speed-corrected timings, a
per-layer traced run.  See ``bench/README.md``; entry point
``python3 -m bench``."""
