"""Close what the helpers leave open: CI runs this directory with
``-X dev -W error::ResourceWarning``, where an unclosed ``.wal`` fails."""

import pytest

from tests.durability import test_recovery


@pytest.fixture(autouse=True)
def close_journalled_managers():
    yield
    while test_recovery.OPEN_MANAGERS:
        test_recovery.OPEN_MANAGERS.pop().writer.close()
