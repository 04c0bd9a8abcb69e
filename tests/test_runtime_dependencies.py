"""The program runs on numpy alone: no command loads scipy."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

# Every command, with a Landau-Zener stroke and generalized-Gibbs states among
# them: the two places that once needed scipy.
COMMANDS = [
    ["lz"],
    ["asymptotic", "--thermo", "perfect", "--targets", "generalized_gibbs"],
    ["validate", "--init", "generalized_gibbs_cold", "--cycles", "1"],
    ["moments"],
    ["pdf", "--cycles", "2", "--points", "257"],
    ["joint", "--cycles", "1"],
    ["sweep", "--stroke", "landau_zener", "--t1-steps", "2", "--t2-steps", "2"],
]

SCRIPT = """
import contextlib, io, json, sys
import ottomon.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(ottomon.cli.main(argv))
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_no_command_loads_scipy() -> None:
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(COMMANDS)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["codes"] == [0] * len(COMMANDS)
    assert report["scipy"] == []
