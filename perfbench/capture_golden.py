"""Write the packaged scenarios' reports into perfbench/golden/.

    python3 perfbench/capture_golden.py

The golden reports are the benchmark's output gate.  Refresh them only in a
change that is allowed to alter the reports, and say which fields changed.
"""

from __future__ import annotations

import run
import workloads

if __name__ == "__main__":
    sf = run.import_setfix()
    for name in ("sqrt_takahashi_34", "square_takahashi_half"):
        report = sf.run_scenario(name)
        path = workloads.GOLDEN_DIR / f"{name}.json"
        path.write_text(sf.emit_report(report)["report.json"])
        print(f"wrote {path.relative_to(run.ROOT)} (all_ok={report.all_ok})")
