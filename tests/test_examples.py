"""The example scripts still load against the library's public API.

Each is loaded without running its ``main()`` (the simulations it drives
are the experiment modules' tests), so a renamed or deleted import fails
here rather than in a reader's terminal."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_loads(path):
    namespace = runpy.run_path(str(path))  # not "__main__": main() is not called
    assert callable(namespace["main"])
