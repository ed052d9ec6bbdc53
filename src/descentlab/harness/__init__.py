"""Experiment orchestration: configs (``config``), datasets (``datasets``),
EMC (``emc``), CSV output (``csvio``), the experiment runners (``runner``)
and the ``descentlab`` CLI (``cli``).  The package imports none of them."""
