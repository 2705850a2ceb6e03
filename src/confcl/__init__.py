"""Confidence-weighted conditional contrastive learning toolkit.

The package exposes only ``__version__``; import from the submodules::

    from confcl.losses import ViewPairBatch, loss_decoupled, partition_batch
    from confcl.metadata import kernel_matrix, summarize

    summaries = [summarize(v) for v in vectors]
    part = partition_batch(summaries)
    kernel = kernel_matrix([summaries[i] for i in part.labeled])
    breakdown = loss_decoupled(batch, part, kernel)

plus detection metrics (``confcl.detection``), a synthetic ablation
benchmark (``confcl.bench``), file formats (``confcl.io``), and a CLI
(``confcl`` / ``python -m confcl``).
"""

__version__ = "0.1.0"
