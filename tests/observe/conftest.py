"""Observe-test isolation: every test starts and ends with a clean,
disabled observation state (no leaked env vars or open writers)."""

import pytest

from repro import observe


@pytest.fixture(autouse=True)
def _clean_observe_state(monkeypatch):
    observe.shutdown()
    # The user's switches stay out of these tests; monkeypatch restores
    # them at teardown.
    monkeypatch.delenv(observe.ENV_VAR, raising=False)
    monkeypatch.delenv(observe.DIR_ENV, raising=False)
    yield
    observe.shutdown()
