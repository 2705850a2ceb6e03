"""Confidence-weighted conditional contrastive learning toolkit.

The package exposes only ``__version__``; import from the submodules::

    from confcl.bench import batch_loss_inputs, variant_spec
    from confcl.losses import ViewPairBatch, loss_decoupled
    from confcl.metadata import summarize

    summaries = [summarize(v) for v in vectors]
    part, kernel = batch_loss_inputs(summaries, variant_spec("proposed"))
    breakdown = loss_decoupled(batch, part, kernel)

plus detection metrics (``confcl.detection``), a synthetic ablation
benchmark (``confcl.bench``), file formats (``confcl.io``), and a CLI
(``confcl`` / ``python -m confcl``).
"""

__version__ = "0.1.0"
