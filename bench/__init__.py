"""The repository benchmark: four workloads through ``repro.streaming.StreamingPipeline``.

See ``bench/README.md``; the entry point is ``python3 bench/run.py``.
"""
