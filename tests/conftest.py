"""Session set-up shared by every test module."""

import os


def pytest_configure(config):
    # The CLI tests run ``python -m framelab`` in temporary directories,
    # where a relative PYTHONPATH entry such as ``src`` finds nothing.
    # Anchor each relative entry at the directory pytest started in.
    entries = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if any(e and not os.path.isabs(e) for e in entries):
        os.environ["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(e) if e else e for e in entries
        )
