import json
import struct

import pytest

from din.model import ModelShapeSpec, init_model
from din.numerics import make_rng

TINY_SHAPE = ModelShapeSpec(
    raw_dim=4, feat_dim=3, num_frames=5, widths=(2, 3), num_filters=4, num_classes=3
)


@pytest.fixture
def tiny_params():
    return init_model(TINY_SHAPE, make_rng(123))


def edit_checkpoint_meta(blob, edit):
    """Checkpoint bytes whose JSON meta block went through edit(meta) in place."""
    (meta_len,) = struct.unpack_from("<I", blob, 6)
    meta = json.loads(blob[10 : 10 + meta_len])
    edit(meta)
    encoded = json.dumps(meta, sort_keys=True).encode()
    return blob[:6] + struct.pack("<I", len(encoded)) + encoded + blob[10 + meta_len :]
