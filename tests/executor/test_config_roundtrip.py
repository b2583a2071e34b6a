"""ExecutorConfig rejects options its backend does not declare, at construction."""

from __future__ import annotations

import pytest

from repro.executor import ExecutorConfig


def test_unknown_options_rejected_eagerly():
    with pytest.raises(ValueError, match=r"options \['warp'\] not understood by the 'threads'"):
        ExecutorConfig(kind="threads", options={"warp": 9})
