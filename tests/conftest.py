from __future__ import annotations

import pytest
from hypothesis import Phase, settings

# chosen by tests/mutants.py (--hypothesis-profile=mutants): a mutant's run
# ends at its first failing example, which is not shrunk
settings.register_profile(
    "mutants", phases=[phase for phase in Phase if phase is not Phase.shrink]
)


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    # keep every test away from the user-level result cache
    monkeypatch.setenv("GROUPAPPROX_CACHE_DIR", str(tmp_path / "cache"))
