"""Write the reference CSVs the table checks compare against.

    python3 perfbench/make_reference.py

Runs the table-checked invocations of every workload once, from the
``src`` tree next to this directory, and stores their outputs under
``perfbench/reference/``. Regenerate only at a commit whose outputs are
known to be right: the files define what the benchmark counts as correct.
"""

from __future__ import annotations

import sys

import workloads
from run import SRC


def main():
    sys.path.insert(0, str(SRC))
    from eselend.cli import main as cli_main

    workloads.REFERENCE.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        for inv in workloads.invocations(name, seed=0):
            if inv.check == "scores":
                continue
            out = workloads.REFERENCE / inv.out
            status = cli_main([*inv.argv, "--out", str(out)])
            if status != 0:
                raise SystemExit(f"{' '.join(inv.argv)} exited {status}")
            print(f"wrote {out.relative_to(workloads.HERE.parent)}")


if __name__ == "__main__":
    main()
