"""Suite-wide guards."""

import pytest

from repro.obs import metrics

#: bumped each time a multi-cell compile-key group's pricing raised and
#: the group was re-run cell by cell
GROUP_SPLITS = "campaign.price.group_splits"


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "expect_group_split: the test forces a price error that splits a "
        "compile-key group into one-task groups",
    )


@pytest.fixture(autouse=True)
def _no_silent_group_splits(request):
    """Fail any test during which a group split after a price error,
    unless it is marked ``expect_group_split``: a split keeps the
    records right but means the group path raised."""
    splits = metrics.counter(GROUP_SPLITS)
    splits.reset()
    yield
    if splits.value and not request.node.get_closest_marker(
        "expect_group_split"
    ):
        pytest.fail(
            f"{splits.value} compile-key group(s) split after a price "
            f"error ({GROUP_SPLITS}); mark the test expect_group_split "
            "if that is intended"
        )
