"""The environment a test hands to a subprocess of the package, and the
CLI run in one."""

import os
import subprocess
import sys
from pathlib import Path

# The src directory of the tree these tests belong to.
SRC = str(Path(__file__).resolve().parent.parent / "src")


def subprocess_env(extra):
    """os.environ without FRAMELAB_TOL, updated by ``extra``, with SRC
    first on PYTHONPATH: a subprocess started in any directory imports
    the package from this tree, not an installed copy."""
    env = dict(os.environ)
    env.pop("FRAMELAB_TOL", None)
    env.update(extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_cli(args, cwd, env_extra=None):
    """``python -m framelab`` with ``args`` in ``cwd``, its output
    captured as text, in subprocess_env of ``env_extra``."""
    return subprocess.run(
        [sys.executable, "-m", "framelab", *args],
        cwd=cwd,
        env=subprocess_env(env_extra or {}),
        capture_output=True,
        text=True,
    )
