"""The CI workflow restores ``tests/_cache`` under a key that must change
whenever a cached checkpoint would retrain: a hash of ``tests/conftest.py``
and of each ``conftest.CACHE_SOURCES`` file. The workflow is read as plain
text, since CI installs no YAML parser."""

import re
from pathlib import Path

from conftest import CACHE_SOURCES

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"


def hash_files_args(text):
    """The quoted arguments of the one ``hashFiles(...)`` call in ``text``."""
    (args,) = re.findall(r"hashFiles\(([^)]*)\)", text)
    return re.findall(r"'([^']*)'", args)


def test_cache_key_hashes_conftest_and_the_cache_sources():
    assert hash_files_args(WORKFLOW.read_text()) == \
        ["tests/conftest.py"] + [f"src/mhexlab/{name}" for name in CACHE_SOURCES]
