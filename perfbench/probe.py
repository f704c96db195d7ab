"""Set-up probe: import hsangle from the checkout and make a workload's first call.

run.py times this whole process, from a fresh interpreter to exit, as
setup_s; under ``python -X importtime`` it gives the import breakdown.

    python3 perfbench/probe.py verify_small
"""

import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from hsangle import cli  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(WORKLOADS[sys.argv[1]].probe_argv()))
    if code != 0:
        raise SystemExit(f"first call exited {code}")
