"""Record the expected output of every corpus entry at the current commit.

    python3 perfbench/make_references.py

Writes ``perfbench/references.json``.  The references are the outputs of
the commit that introduced the benchmark; regenerate them only when a
change is meant to alter the program's output, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    tp = run.import_package()
    refs = {}
    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="references-", dir=run.WORK))
    try:
        for cls in workloads.WORKLOADS.values():
            if not issubclass(cls, workloads.CorpusWorkload):
                continue
            wl = cls(None, workdir, {})
            session = wl.open_session(tp)
            refs[cls.name] = {
                key: wl.summary(key, wl.runner(session, key)())[0]
                for key in wl.keys()}
            print(f"{cls.name}: {len(refs[cls.name])} references", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
