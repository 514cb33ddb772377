"""Empty: ``TreeSpace`` and ``SubtreeReport`` answer the leveled-tree queries.

The benchmark tracer (``perfbench/tracer.py``) imports every module it
names, this one included, so the module stays importable until the
tracer's module list drops it.
"""
