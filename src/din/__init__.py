"""DenseImage network: a video-classification head built from scratch.

A sampled frame-feature sequence is reduced and stacked into a DenseImage
matrix (rows = time), convolved with a bank of multi-width temporal
filters, max-pooled over time per channel, and classified by per-scale
heads whose logits are summed before one softmax. All gradients are
hand-written and training is bit-exactly reproducible from a seed.
"""

__version__ = "0.1.0"
