"""End-to-end and per-layer benchmark of the copar CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a copar checkout. The run generates the workload's
input from the seed, then for S seconds runs the real CLI
(`python3 -m copar.cli sort|colex IN -o OUT`) as a child process, one at a
time (a closed loop with one client), and checks every output. With
--trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates CLI children with traced in-process CLI runs
(perfbench/trace.py) and reports the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Any failed run makes the command exit 1.

This process spawns the children itself and reads their wall time, CPU
time and peak RSS with os.wait4. It loads neither numpy nor copar, so its
own small memory image does not show in a child's ru_maxrss; the child's
own VmHWM checks that. Gated times are scaled by a host-speed probe run
before and after each timed child (see PROBE and perfbench/README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_colex, check_sort  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 150
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
# Host-speed probe: workloads.probe in a fresh interpreter like the CLI's.
# Neighbours on a shared host slow stretches of a run by up to 2x; a probe
# run just before and just after each timed child is slowed alike, so the
# gated times divide by it (see README.md).
PROBE_STEPS = 250_000
PROBE = f"import sys; sys.path.insert(0, {str(HERE)!r}); import workloads; workloads.probe({PROBE_STEPS})"
# Gated times are in seconds of a host that runs the child probe in
# PROBE_REF_S and the 50 000-step in-process probe between set-ups in
# SETUP_PROBE_REF_S: about the fastest each ran on a shared 2-vCPU x86-64 VM
# (Python 3.11.7, numpy 2.4.6), over 371 and 40 runs.
PROBE_REF_S = 0.215
SETUP_PROBE_REF_S = 0.0175
# a child's peak RSS read by os.wait4 here and by the child itself must
# agree within this many KiB or this share, whichever is larger
RSS_AGREE_KB = 2048
RSS_AGREE_SHARE = 0.05
# runs copar.cli as `python -m` does, then reports the child's own VmHWM
HWM_WRAPPER = (
    "import runpy, sys\n"
    "out = sys.argv.pop(1)\n"
    "try:\n"
    "    runpy.run_module('copar.cli', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    with open('/proc/self/status') as fh:\n"
    "        kb = next(ln.split()[1] for ln in fh if ln.startswith('VmHWM:'))\n"
    "    with open(out, 'w') as fh:\n"
    "        fh.write(kb)\n"
)
ENV_PROBE = (
    "import json, platform, numpy, copar, copar._kernels as k\n"
    "print(json.dumps({'have_numba': k.HAVE_NUMBA, 'python': platform.python_version(),\n"
    "                  'numpy': numpy.__version__, 'copar': copar.__file__}))\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def spawn(argv: list[str], env: dict[str, str], stdout: Path, stderr: Path) -> dict:
    """Run one child to its end; its exit status, wall time from spawn to
    exit, and user + system CPU time and peak RSS from os.wait4."""
    with open(stdout, "w") as out, open(stderr, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "status": proc.returncode,
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "maxrss_kb": ru.ru_maxrss,
        "timed_out": wall >= CHILD_TIMEOUT_S,
        "stdout": stdout.read_text(),
        "stderr": stderr.read_text(),
    }


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def load_digests(workload: str, n: int) -> dict[str, str]:
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        return json.load(fh).get(f"{workload}/{n}", {})


class Bench:
    def __init__(self, args: argparse.Namespace, root: Path):
        self.args = args
        self.root = root
        self.w = WORKLOADS[args.workload]
        self.work = root / ".perfbench_work" / args.workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.input = self.work / "input.nfa"
        self.output = self.work / "out.txt"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.findings: list[str] = []
        self.reference: bytes | None = None
        self.reference_ok = False
        self.samples: dict[str, list[float]] = {}
        self.last_trace: dict | None = None

    def fail(self, finding: str) -> None:
        self.findings.append(finding)
        print(f"# FAIL {finding}", flush=True)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def spawn(self, argv: list[str], tag: str) -> dict:
        return spawn(argv, self.env, self.work / f"{tag}.stdout", self.work / f"{tag}.stderr")

    def child(self, argv: list[str], tag: str) -> dict:
        res = self.spawn(argv, tag)
        if res["status"] != 0:
            raise BenchError(
                f"{tag} exited with {res['status']}"
                f"{' (timed out)' if res['timed_out'] else ''}: {res['stderr'].strip()[-300:]}")
        return res

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        argv = [sys.executable, str(HERE / "workloads.py"), self.w.name,
                str(self.args.seed), str(self.input),
                "--repeat", str(SETUP_REPEATS), "--seconds", str(SETUP_SECONDS)]
        if self.args.smoke:
            argv.append("--smoke")
        info = json.loads(self.child(argv, "setup")["stdout"])
        self.info = info
        self.samples["setup_raw_s"] = info["setup_s"]
        self.samples["setup_rel"] = info["setup_rel"]
        self.digests = load_digests(self.w.name, info["n"])
        env = json.loads(self.child([sys.executable, "-c", ENV_PROBE], "env")["stdout"])
        src = self.root / "src"
        if Path(env["copar"]).resolve().parent.parent != src.resolve():
            raise BenchError(f"copar imported from {env['copar']}, not from {src}")
        self.env_info = env

    def probe(self) -> dict:
        """One run of the host-speed probe."""
        return self.child([sys.executable, "-c", PROBE], "probe")

    # -- CLI runs and their checks -------------------------------------------

    def cli_argv(self, out: Path) -> list[str]:
        return [sys.executable, "-m", "copar.cli", self.w.command, str(self.input), "-o", str(out)]

    def verify(self, out: Path, what: str) -> bool:
        """Digest and independent checks of one output; records a failure.

        The first output becomes the reference: it is checked against the
        recorded digest and every later output must repeat it byte for byte.
        """
        data = out.read_bytes()
        if self.reference is None:
            self.reference = data
            self.reference_ok = self.check_reference(data, what)
        elif data != self.reference:
            self.fail(f"{what}: output differs from the first run's")
            return False
        return self.reference_ok

    def check_reference(self, data: bytes, what: str) -> bool:
        digest = hashlib.sha256(data).hexdigest()
        ref = self.digests.get(str(self.args.seed))
        if ref is None:
            print(f"# digest: no reference recorded for seed {self.args.seed} at n={self.info['n']}; "
                  "independent checks only", flush=True)
        elif ref != digest:
            self.fail(f"{what}: sha256 {digest[:16]} differs from the reference {ref[:16]}")
            return False
        else:
            print(f"# digest: sha256 {digest[:16]} matches the reference for seed {self.args.seed}", flush=True)
        text = data.decode()
        n, source = self.info["n"], self.info["source"]
        if self.w.command == "sort":
            bad = check_sort(text, n, source, self.w.quasi_wheeler, self.w.singletons)
        else:
            bad = check_colex(text, n, source)
        for finding in bad:
            self.fail(f"{what}: {finding}")
        return not bad

    def run_cli(self, tag: str) -> dict | None:
        """One timed CLI child; its spawn() record, or None if it failed."""
        self.attempted += 1
        self.output.unlink(missing_ok=True)
        res = self.spawn(self.cli_argv(self.output), tag)
        if res["status"] != 0:
            self.failed += 1
            self.fail(f"{tag}: exit {res['status']}: {res['stderr'].strip()[-300:]}")
            return None
        if not self.verify(self.output, tag):
            self.failed += 1
            return None
        self.sample("wall_raw_s", res["wall_s"])
        self.sample("cpu_raw_s", res["cpu_s"])
        self.sample("peak_rss_mb", res["maxrss_kb"] / 1024)
        return res

    def warm_up(self) -> None:
        """One untimed CLI run that reports its own VmHWM; its output is the
        reference every later run must repeat byte for byte."""
        self.attempted += 1
        hwm = self.work / "vmhwm.txt"
        argv = [sys.executable, "-c", HWM_WRAPPER, str(hwm)] + self.cli_argv(self.output)[3:]
        res = self.spawn(argv, "warmup")
        if res["status"] != 0:
            raise BenchError(f"the warm-up CLI run failed (exit {res['status']}): {res['stderr'].strip()[-300:]}")
        if not self.verify(self.output, "warm-up"):
            self.failed += 1
        self.hwm_kb = int(hwm.read_text())

    def check_rss_agreement(self) -> None:
        """The child's own VmHWM from the warm-up and the peak RSS that
        os.wait4 reports for the timed runs must agree."""
        wait4_kb = statistics.median(self.samples["peak_rss_mb"]) * 1024
        print(f"# rss check: wait4 {wait4_kb / 1024:.1f} MB, child VmHWM {self.hwm_kb / 1024:.1f} MB",
              flush=True)
        if abs(self.hwm_kb - wait4_kb) > max(RSS_AGREE_KB, RSS_AGREE_SHARE * wait4_kb):
            self.fail(f"peak RSS disagrees: wait4 {wait4_kb:.0f} KiB, VmHWM {self.hwm_kb} KiB")

    def run_trace(self, i: int) -> None:
        out = self.work / "out-trace.txt"
        out.unlink(missing_ok=True)
        self.attempted += 1
        argv = [sys.executable, str(HERE / "trace.py"), self.w.command, str(self.input), str(out)]
        res = self.spawn(argv, "trace")
        if res["status"] != 0:
            self.failed += 1
            self.fail(f"trace {i}: exit {res['status']}: {res['stderr'].strip()[-300:]}")
            return
        if out.read_bytes() != self.reference:
            self.failed += 1
            self.fail(f"trace {i}: traced output is not byte-identical to the CLI output")
            return
        trace = json.loads(res["stdout"])
        self.last_trace = trace
        for name, value in layer_metrics(trace).items():
            self.sample(name, value)
        imp = self.child([sys.executable, "-c", "import copar.cli"], "import")
        self.sample("cli.import_s", imp["wall_s"])

    # -- the run --------------------------------------------------------------

    def run(self) -> dict:
        a = self.args
        self.load_start = os.getloadavg()
        self.setup()
        self.warm_up()
        t0 = time.perf_counter()
        i = 0
        before = None if a.trace else self.probe()
        while time.perf_counter() - t0 < a.seconds or i == 0:
            res = self.run_cli(f"cli-{i}")
            if a.trace:
                self.run_trace(i)
            else:
                after = self.probe()
                self.sample("probe_s", after["wall_s"])
                if res is not None:
                    self.sample("wall_rel", 2 * res["wall_s"] / (before["wall_s"] + after["wall_s"]))
                    self.sample("cpu_rel", 2 * res["cpu_s"] / (before["cpu_s"] + after["cpu_s"]))
                before = after
            i += 1
        if "peak_rss_mb" in self.samples:
            self.check_rss_agreement()
        self.load_end = os.getloadavg()
        return self.metrics()

    def metrics(self) -> dict[str, float]:
        s = {k: statistics.median(v) for k, v in self.samples.items() if v}
        if not self.args.trace:
            s["setup_s"] = s["setup_rel"] * SETUP_PROBE_REF_S
            if "wall_rel" in s:
                s["wall_s"] = s["wall_rel"] * PROBE_REF_S
                s["cpu_s"] = s["cpu_rel"] * PROBE_REF_S
        else:
            s["cli.in_bytes"] = self.info["bytes"]
            s["cli.out_bytes"] = len(self.reference)
            s["trace.overhead_s"] = s.get("trace.total_s", 0.0) - (s.get("wall_raw_s", 0.0) - s.get("cli.import_s", 0.0))
        return s


# spans outside the refinement engine, besides serialization
FRONT_END_SPANS = ("cli.read_s", "cli.write_s", "automaton.parse_s", "automaton.validate_s")


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer values of one traced run: span times summed by name,
    counts, and the trace bookkeeping."""
    spans = trace["spans"]
    total = next(sp for sp in spans if sp["name"] == "trace.total_s")
    times: dict[str, float] = {}
    for sp in spans:
        times[sp["name"]] = times.get(sp["name"], 0.0) + sp["end"] - sp["start"]
    top = sum(sp["end"] - sp["start"] for sp in spans if sp["parent"] == total["id"])
    front = sum(times.get(k, 0.0) for k in FRONT_END_SPANS)
    out = dict(times)
    out["cli.serialize_s"] = times.get("automaton.serialize_s", 0.0) + times.get("colex.serialize_s", 0.0)
    out["trace.unattributed_s"] = times["trace.total_s"] - top
    out["trace.algo_share"] = (top - front - out["cli.serialize_s"]) / times["trace.total_s"]
    counts = trace["counts"]
    out.update(counts)
    n = counts["automaton.n"]
    out["kernels.splitter_load"] = counts["kernels.max_splitter_count"] / n.bit_length()
    return out


def declared_metrics(root: Path, trace: bool) -> list[dict]:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def report(b: Bench, declared: list[dict], metrics: dict[str, float]) -> None:
    a, info, env = b.args, b.info, b.env_info
    backend = "numba" if env["have_numba"] else "pure-Python"
    print(f"# workload {a.workload} seed {a.seed} seconds {a.seconds} trace {a.trace}"
          f"{' smoke' if a.smoke else ''}")
    print(f"# backend {backend} (copar._kernels.HAVE_NUMBA={env['have_numba']}) python {env['python']}"
          f" numpy {env['numpy']} nproc {os.cpu_count()}"
          f" loadavg start {' '.join(f'{x:.2f}' for x in b.load_start)}"
          f" end {' '.join(f'{x:.2f}' for x in b.load_end)}")
    print(f"# input n {info['n']} m {info['m']} bytes {info['bytes']}")
    if not a.trace:
        for key in ("setup_raw_s", "setup_rel", "wall_raw_s", "cpu_raw_s", "probe_s", "wall_rel", "cpu_rel", "peak_rss_mb"):
            xs = b.samples.get(key, [])
            if xs:
                q1, q2, q3 = quartiles(xs)
                print(f"# {key:12s} min {min(xs):.4f} q1 {q1:.4f} median {q2:.4f} q3 {q3:.4f} of {len(xs)}")
        if "wall_s" in metrics:
            print(f"# throughput {info['m'] / metrics['wall_s']:.0f} edges/s at wall_s [{backend}]")
    elif b.last_trace is not None:
        print_layers(b)
    print(f"# fail_rate {b.failed}/{b.attempted}")
    for d in declared:
        print(f"# {d['name']} = {metrics.get(d['name'], float('nan')):.6g} {d['unit']} [{backend}]")


def print_layers(b: Bench) -> None:
    """Span table of the last traced run: calls, total and self time."""
    spans = b.last_trace["spans"]
    child_time: dict[int, float] = {}
    for sp in spans:
        if sp["parent"] is not None:
            child_time[sp["parent"]] = child_time.get(sp["parent"], 0.0) + sp["end"] - sp["start"]
    rows: dict[str, list[float]] = {}
    for sp in spans:
        dur = sp["end"] - sp["start"]
        row = rows.setdefault(sp["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - child_time.get(sp["id"], 0.0)
    print("# span (last traced run)             calls   total_s    self_s")
    for name, (calls, total, self_s) in rows.items():
        print(f"#   {name:32s} {calls:5d} {total:9.4f} {self_s:9.4f}")
    for name, value in sorted(b.last_trace["counts"].items()):
        print(f"#   {name:32s} {value}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args()
    root = Path.cwd()
    if not (root / "src" / "copar" / "cli.py").is_file():
        print(f"error: {root} is not a copar checkout (no src/copar/cli.py)", file=sys.stderr)
        return 2
    declared = declared_metrics(root, bool(args.trace))
    b = Bench(args, root)
    try:
        metrics = b.run()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = [d["name"] for d in declared]
    missing = [k for k in names if k not in metrics]
    if missing and not b.findings:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    report(b, declared, metrics)
    result = {
        "correct": not b.findings,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {d["name"]: {"value": metrics.get(d["name"], 0.0), "unit": d["unit"]} for d in declared},
    }
    with open(b.work / f"result-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "samples": b.samples, "env": b.env_info, "input": b.info,
                   "loadavg": [b.load_start, b.load_end],
                   "trace": b.last_trace}, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
