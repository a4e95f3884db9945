"""Cold-start guard: importing the campaign path loads no third-party
scientific stack and no HTTP stack.

``repro`` has no runtime dependencies, and a campaign without telemetry
pays nothing for the live endpoint or the dashboard, imports included.
The check runs in a fresh interpreter, so modules this test process has
already loaded cannot hide a regression.
"""

import os
import subprocess
import sys

import repro

FORBIDDEN = ("numpy", "networkx", "http.server", "urllib.request")


def test_campaign_imports_load_no_heavy_modules():
    code = (
        "import sys\n"
        "import repro.engine, repro.corpus, repro.cli\n"
        f"print(' '.join(m for m in {FORBIDDEN!r} if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
