"""Record the reference sha256 of the CLI output for workloads and seeds.

    python3 perfbench/record_digests.py FIRST_SEED LAST_SEED [EXTRA_SEED ...] [--smoke]

Run from the root of a copar checkout whose outputs are the reference (the
benchmark's digests were recorded at the commit that added it). For every
workload and seed it generates the input, runs the CLI once and stores the
digest in perfbench/digests.json under "<workload>/<n>", next to the
digests already there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("first", type=int)
    ap.add_argument("last", type=int)
    ap.add_argument("extra", type=int, nargs="*")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    path = HERE / "digests.json"
    digests = json.loads(path.read_text())
    seeds = list(range(args.first, args.last + 1)) + args.extra
    work = Path.cwd() / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        inp, out = Path(tmp) / "in.nfa", Path(tmp) / "out.txt"
        for w in WORKLOADS.values():
            n = w.smoke_n if args.smoke else w.n
            table = digests.setdefault(f"{w.name}/{n}", {})
            for seed in seeds:
                gen = [sys.executable, str(HERE / "workloads.py"), w.name, str(seed), str(inp)]
                subprocess.run(gen + (["--smoke"] if args.smoke else []), env=env, check=True,
                               stdout=subprocess.DEVNULL)
                subprocess.run([sys.executable, "-m", "copar.cli", w.command, str(inp), "-o", str(out)],
                               env=env, check=True)
                table[str(seed)] = hashlib.sha256(out.read_bytes()).hexdigest()
                print(w.name, n, seed, table[str(seed)][:16], flush=True)
            path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
