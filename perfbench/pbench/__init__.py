"""Helpers for the end-to-end benchmark driven by ``perfbench/run.py``.

``stats``, ``spans`` and ``client`` need nothing but the standard
library; ``oracle``, ``layers`` and ``workloads`` import the package under
test, so ``run.py`` imports them only after building its native kernels.
"""
