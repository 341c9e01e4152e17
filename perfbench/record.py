"""Record the reference outputs that run.py compares against.

    python3 perfbench/record.py [WORKLOAD ...]

For each workload: one whole pass at seed 0 gives the outputs of the
unseeded steps, and the seeded steps are recorded for every seed class
0..SEED_CLASSES-1 (a run's seed is reduced modulo SEED_CLASSES). Run it
only at a commit whose outputs are known to be right; any step that
raises aborts the recording.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workload as wl


def record(name: str) -> dict:
    refs = {"fixed": {}, "seeded": {}}
    for seed in range(wl.SEED_CLASSES):
        res = run.spawn(name, seed, "plain" if seed == 0 else "seeded", time.monotonic() + 600)
        for step in res["steps"]:
            if "error" in step:
                raise SystemExit(f"{name} seed {seed}: {step['op']} raised {step['error']}")
            dest = refs["seeded"].setdefault(str(seed), {}) if step["seeded"] else refs["fixed"]
            dest[step["op"]] = step["output"]
        print(f"{name} seed {seed}: {len(res['steps'])} steps, {res['wall_s']:.1f} s", flush=True)
    return refs


def main(argv: list[str]) -> int:
    for name in argv or run.ORDER:
        path = run.HERE / "refs" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(record(name), indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
