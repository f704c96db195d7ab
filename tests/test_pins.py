"""Every pin of tests/pins.py, compared with its value at the pinned
dispatch level; skipped on a machine that cannot enable X86_V3."""

import pytest

from pins import PINNED, pinned_digests


@pytest.mark.parametrize("key", PINNED)
def test_pin_keeps_its_value(key):
    digests = pinned_digests()
    if digests is None:
        pytest.skip("this machine cannot enable numpy's X86_V3 dispatch")
    assert digests[key] == PINNED[key]
