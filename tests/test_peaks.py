"""``tools/peaks.py`` measures generation and evaluation peaks in separate children."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "peaks.py"

# One small scene, built as test_tracing_contract builds its workloads.
RUN = """\
import importlib.util, json, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("peaks", sys.argv[1])
peaks = importlib.util.module_from_spec(spec)
spec.loader.exec_module(peaks)
result = peaks.measure({"name": "one", "n_people": 40, "scenes": 1}, 1, 0.1, Path(sys.argv[2]))
result["loaded"] = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "digcrowd"))
print(json.dumps(result))
"""


def test_both_peaks_from_children_that_inherit_nothing(tmp_path):
    work = tmp_path / "work"
    out = subprocess.run([sys.executable, "-c", RUN, str(TOOL), str(work)],
                         capture_output=True, text=True, check=True, timeout=300)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["loaded"] == []  # the tool's process stays small
    assert result["failed"] == 0
    assert result["gen_peak_rss_mb"] > 0.0 and result["worker_peak_rss_mb"] > 0.0
    assert not work.exists()  # inputs deleted
