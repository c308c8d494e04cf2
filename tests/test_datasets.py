import numpy as np
import pytest

from mhexlab.datasets import (IMAGE_SIZE, KEYWORDS_PER_CLASS, MASK_ID, PAD_ID,
                              SHAPE_CLASSES, gen_shapes, gen_tokens,
                              localization_score)
from mhexlab.errors import ConfigurationError, ContractError

from helpers import keyword_ids


def test_shapes_determinism_and_order_independence():
    a = gen_shapes(12, seed=7)
    b = gen_shapes(12, seed=7)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.truth_masks, b.truth_masks)
    # sample i is identical regardless of how many samples are requested
    c = gen_shapes(4, seed=7)
    assert np.array_equal(a.images[:4], c.images)
    d = gen_shapes(12, seed=8)
    assert not np.array_equal(a.images, d.images)


def test_shapes_properties():
    ds = gen_shapes(40, seed=0)
    assert ds.images.shape == (40, 1, IMAGE_SIZE, IMAGE_SIZE)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    assert np.array_equal(np.bincount(ds.labels), [10, 10, 10, 10])
    areas = ds.truth_masks.reshape(40, -1).mean(axis=1)
    assert np.all(areas >= 0.04) and np.all(areas <= 0.40)
    # planted region is brighter than the background on average
    for i in range(40):
        img, m = ds.images[i, 0], ds.truth_masks[i]
        assert img[m].mean() > img[~m].mean() + 0.2


def test_shapes_contract():
    with pytest.raises(ConfigurationError):
        gen_shapes(0)


def test_tokens_determinism_and_planting():
    a = gen_tokens(24, seed=3)
    b = gen_tokens(24, seed=3)
    assert np.array_equal(a.ids, b.ids)
    for i in range(24):
        label = int(a.labels[i])
        kw = set(keyword_ids(label))
        planted = a.ids[i][a.truth_masks[i]]
        assert len(planted) == KEYWORDS_PER_CLASS
        assert set(planted.tolist()) <= kw
        # keywords appear only at planted positions
        rest = a.ids[i][~a.truth_masks[i]]
        assert not (set(rest.tolist()) & kw)
        # no specials inside the live sequence
        live = a.ids[i][a.ids[i] != PAD_ID]
        assert MASK_ID not in live


def test_tokens_contracts():
    with pytest.raises(ConfigurationError):
        gen_tokens(0)


def test_localization_score():
    mask = np.zeros((4, 4), dtype=bool)
    mask[:2] = True
    sal = np.zeros((4, 4))
    sal[:2] = 1.0
    assert localization_score(sal, mask) > 0.99
    assert abs(localization_score(np.ones((4, 4)), mask) - 0.5) < 1e-9
    with pytest.raises(ContractError):
        localization_score(sal, np.zeros((4, 4), dtype=bool))
    with pytest.raises(ConfigurationError):
        localization_score(np.ones((2, 2)), mask)


def test_class_names_stable():
    assert SHAPE_CLASSES == ("square", "disk", "cross", "bar")
