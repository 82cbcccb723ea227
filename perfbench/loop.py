"""Child process of the benchmark: runs one request loop.

    python3 perfbench/loop.py JOB.json RESULT.json

The job (written by ``bench.run``) names the requests; the result holds
the loop's metrics, checks and peak memory.  A fresh process per run makes
``peak_rss_mb`` the loop's own.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench  # noqa: E402

if __name__ == "__main__":
    job = json.loads(Path(sys.argv[1]).read_text())
    Path(sys.argv[2]).write_text(json.dumps(bench.run_loop(job)))
