"""``repro serve`` whose first worker run dies, once.

``PYTHONPATH=src python tests/service/serve_killing_first_run.py
[serve options]``: the first plan any worker starts exits with
``os._exit(3)``; with ``--max-retries 1`` or more the log shows
``retrying ... after crash`` and the job still ends done.
"""

import functools
import os
import sys
import tempfile
from pathlib import Path

import repro.harness.runner as runner
from repro.__main__ import main


def killing_execute(marker, real_execute, plan):
    try:  # the rename hands the kill to exactly one forked worker
        os.rename(marker, marker.with_name("claimed"))
    except OSError:
        return real_execute(plan)
    os._exit(3)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        marker = Path(scratch) / "kill"
        marker.touch()
        runner._execute_plan = functools.partial(
            killing_execute, marker, runner._execute_plan)
        sys.exit(main(["serve", *sys.argv[1:]]))
