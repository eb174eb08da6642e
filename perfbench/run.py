"""Layer-by-layer benchmark for splitkit.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1
    python3 perfbench/run.py --self-test

One process, one thread, one closed-loop client: each request starts when
the previous one has returned.  Inputs are written by gen.py in a separate
process from the seed and are never timed.  The request schedule of a
workload is a fixed cycle (its order shuffled by the seed); the loop runs
whole cycles and starts another only while it is expected to end within T
seconds, so every run measures the same mix.  The first cycle always runs.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json.
With --trace 1 it runs the cycle untraced for T/2 seconds, then with spans
patched around splitkit's public functions (tracing.py) for T/2 seconds,
and reports the per-layer metrics.  Times are reported at a reference
machine speed (see Speed), next to the measured ones.  Every result is
checked after the loop against answers computed outside it (gen.py,
reference.py) and against the stdout digests recorded in digests.json; a
wrong value, exit code, digest or an exception counts as a failed request.
The last stdout line is the JSON result; the lines before it repeat each
metric with its unit and sample count, and out/<run>/result.json keeps the
details.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"
SETUP_SAMPLES = 21
CHILD_TIMEOUT_S = 170
# Reported times are seconds at the speed where calibration_work takes this
# long (about a quiet period on a 2-vCPU host with Python 3.11); see Speed.
REFERENCE_CALIBRATION_S = 0.00100
CALIBRATE_EVERY_S = 0.1
CALIBRATION_NEIGHBOURS = 5
CALIBRATION_PAIRS = [((i * 37) % 601, (i * 53) % 599) for i in range(2000)]
CALIBRATION_SET = frozenset(range(0, 2000, 3))

sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402
from tracing import Tracer  # noqa: E402


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def calibration_work():
    """Fixed pure-Python work of the kinds splitkit does, on a working set
    of a similar size: a sort on key tuples, prefix sums, a frozenset
    intersection, string formatting.

    Every object it allocates dies before it returns, so it leaves the
    garbage collector's counts as it found them.
    """
    pairs = CALIBRATION_PAIRS
    order = sorted(range(len(pairs)), key=lambda i: (-pairs[i][0], -pairs[i][1], i))
    prefix = [0] * (len(order) + 1)
    for r, i in enumerate(order):
        prefix[r + 1] = prefix[r] + pairs[i][0]
    return len(frozenset(order[:1000]) & CALIBRATION_SET) + len(",".join(map(str, prefix)))


class Speed:
    """How fast the machine runs Python, sampled through a run.

    On a shared host the same code runs up to 1.8 times slower for seconds
    at a time, which would swamp the differences between commits.  So the
    loop times the fixed calibration work every 100 ms, between requests
    (after one untimed pass, so that the caches the request left behind do
    not count), and each request's time is multiplied by
    REFERENCE_CALIBRATION_S / (median of the 5 calibrations nearest to it
    in time): seconds at the reference speed.  The measured times go to
    result.json and stdout as well.
    """

    def __init__(self):
        self.at: list[float] = []
        self.samples: list[float] = []
        self.last = perf_counter()

    def sample(self):
        calibration_work()
        t0 = perf_counter()
        calibration_work()
        self.last = perf_counter()
        self.at.append(self.last)
        self.samples.append(self.last - t0)

    def tick(self):
        if perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.sample()

    def scale(self) -> float:
        """Scale for a whole phase: from the median of all its samples."""
        return REFERENCE_CALIBRATION_S / statistics.median(self.samples)

    def local_scales(self, moments):
        """Scale for each moment, from the calibrations nearest to it."""
        k = min(CALIBRATION_NEIGHBOURS, len(self.samples))
        scales = []
        for t in moments:
            i = bisect.bisect_left(self.at, t)
            lo = max(0, min(i - k // 2, len(self.samples) - k))
            scales.append(REFERENCE_CALIBRATION_S / statistics.median(self.samples[lo:lo + k]))
        return scales


class Runner:
    """Executes a plan's requests and checks what they return."""

    def __init__(self, plan, run_dir, store, corrupt=None):
        from splitkit import cli, digraphs, splittance, undirected
        from splitkit import Digraph, IntegerPairSequence, IntegerSequence

        self.cli, self.digraphs, self.splittance, self.undirected = (
            cli, digraphs, splittance, undirected)
        self.requests = plan["requests"]
        self.inputs = run_dir / "inputs"
        self.input_sha = plan["input_sha256"]
        self.store = store
        items = []
        if (self.inputs / "items.json").exists():
            items = json.loads((self.inputs / "items.json").read_text())
        self.items = items
        # Input objects are built here, outside the timed loop.
        self.calls = []
        for req in self.requests:
            kind = req["kind"]
            if kind == "cli":
                self.calls.append(self._cli_call(req["argv"] + [str(self.inputs / req["input"])]))
            elif kind == "pairs":
                self.calls.append(self._pairs_call(IntegerPairSequence(items[req["item"]]["data"])))
            elif kind == "undirected":
                self.calls.append(self._undirected_call(IntegerSequence(items[req["item"]]["data"])))
            else:
                item = items[req["item"]]
                self.calls.append(self._digraph_call(Digraph(item["n"], item["data"])))
        self.output_chars = 0
        self.first: dict = {}
        self.texts: dict = {}
        self.runs = Counter()
        self.unstable = Counter()
        if corrupt == "answer":
            corrupt_answer(self.requests[0])
        if corrupt == "digest":
            self.store = {key: "corrupted" for key in store}

    # Request bodies.  Library functions are looked up on their modules at
    # call time, so the tracer's patches apply.

    def _cli_call(self, argv):
        cli = self.cli
        return lambda: cli.run(argv)

    def _pairs_call(self, seq):
        s = self.splittance

        def call():
            if not s.is_digraphic(seq):
                return (False,)
            return (True, s.is_split_sequence(seq), s.digraph_splittance(seq),
                    s.split_partitions(seq))
        return call

    def _undirected_call(self, seq):
        u = self.undirected

        def call():
            if not u.is_graphic(seq):
                return (False,)
            return (True, u.undirected_splittance(seq), u.is_split_undirected(seq),
                    u.corrected_durfee(seq), u.splittance_sequence(seq))
        return call

    def _digraph_call(self, g):
        d = self.digraphs
        return lambda: d.repair(g)

    # The loop.

    def phase(self, seconds, tracer=None):
        """Run whole cycles for about ``seconds``; return request times."""
        speed = Speed()
        calls = self.calls
        if tracer is not None:
            calls = [tracer.wrap("request", call) for call in calls]
        # Compact arrays, so that the client's own bookkeeping barely moves
        # the peak RSS.
        times, ends = array("d"), array("d")
        cycles = 0
        output_before = self.output_chars
        speed.sample()
        start = perf_counter()
        while True:
            for i, req in enumerate(self.requests):
                if tracer is not None:
                    tracer.request = i
                times.append(self.execute(i, req, calls[i]))
                ends.append(perf_counter())
                speed.tick()
            cycles += 1
            elapsed = perf_counter() - start
            if elapsed * (cycles + 1) / cycles > seconds:
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                speed.sample()
                return Phase(times, ends, elapsed, cycles, self.requests,
                             self.output_chars - output_before, speed, peak_mb)

    def execute(self, i, req, call):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = perf_counter()
            try:
                raw = call()
            except Exception as exc:  # a failed request, counted below
                raw = exc
            t1 = perf_counter()
        self.observe(i, req, raw, out.getvalue())
        return t1 - t0

    def observe(self, i, req, raw, stdout):
        text = None
        self.output_chars += len(stdout)
        if isinstance(raw, Exception):
            fp = ("exception", repr(raw))
        elif req["kind"] == "cli":
            fp = (raw, digest(stdout))
            if req["label"] in ("check", "repair"):
                text = stdout
        else:
            fp = fingerprint(req["kind"], raw)
        self.runs[i] += 1
        if i not in self.first:
            self.first[i] = fp
            self.texts[i] = text
        elif fp != self.first[i]:
            self.unstable[i] += 1

    # Checks, after the loop.

    def verify(self):
        """(failed requests, digest-checked requests, failure notes)."""
        failed = checked = 0
        notes = []
        for i, req in enumerate(self.requests):
            if not self.runs[i]:
                continue
            problem = self.check(i, req)
            if problem is None and req["kind"] == "cli":
                key = self.store_key(req)
                if key in self.store:
                    checked += self.runs[i]
                    if self.store[key] != self.store_value(i):
                        problem = "stdout digest differs from the recorded one"
            if problem is None and self.unstable[i]:
                problem = "result changed between repetitions"
                failed += self.unstable[i]
            elif problem is not None:
                failed += self.runs[i]
            if problem is not None and len(notes) < 20:
                notes.append(f"request {i} ({req['label']}, n={req['size']}): {problem}")
        return failed, checked, notes

    def store_key(self, req):
        return f"{self.input_sha[req['input']][:32]} {' '.join(req['argv'])}"

    def store_value(self, i):
        code, sha = self.first[i]
        return f"{code} {sha[:32]}"

    def check(self, i, req):
        fp, exp = self.first[i], req["expect"]
        if fp[0] == "exception":
            return f"raised {fp[1]}"
        if req["kind"] == "pairs":
            if not exp["digraphic"]:
                return None if fp == (False,) else f"expected not digraphic, got {fp[:3]}"
            parts = tuple(tuple(tuple(b) for b in p) for p in exp["partitions"])
            want = (True, exp["split"], exp["splittance"], parts)
            return None if fp == want else f"expected {want[:3]}, got {fp[:3]}"
        if req["kind"] == "undirected":
            if not exp["graphic"]:
                return None if fp == (False,) else f"expected not graphic, got {fp[:3]}"
            want = (True, exp["splittance"], exp["split"], exp["durfee"],
                    tuple(tuple(f) for f in exp["sequence"]))
            return None if fp == want else f"expected {want[:4]}, got {fp[:4]}"
        if req["kind"] == "digraph":
            item = self.items[req["item"]]
            add, remove, blocks = fp
            return check_repair(item["n"], [tuple(a) for a in item["data"]], add, remove,
                                blocks, exp)
        if req["label"] == "repair":
            return self.check_cli_repair(i, req)
        code, sha = fp
        if code != exp["exit"]:
            return f"exit {code}, expected {exp['exit']}"
        if sha != exp["stdout_sha256"]:
            return "stdout differs from the reference output"
        if req["label"] == "check":
            return check_planted(self.texts[i], exp)
        return None

    def check_cli_repair(self, i, req):
        text, exp = self.texts[i], req["expect"]
        lines = (self.inputs / req["input"]).read_text().split("\n")
        n = int(lines[0].split()[1])
        arcs = [(int(a) - 1, int(b) - 1) for a, b in (ln.split() for ln in lines[1:] if ln)]
        add, remove = [], []
        for line in text.splitlines():
            fields = line.split()
            if len(fields) != 3 or fields[0] not in ("+", "-") or not all(f.isdigit() for f in fields[1:]):
                return f"unparseable edit line {line!r}"
            (add if fields[0] == "+" else remove).append((int(fields[1]) - 1, int(fields[2]) - 1))
        code = self.first[i][0]
        if code != (0 if not add and not remove else 1):
            return f"exit {code} with {len(add) + len(remove)} edits"
        return check_repair(n, arcs, add, remove, None, exp)


class Phase:
    """Request times of one timed loop, in schedule order."""

    def __init__(self, times, ends, elapsed, cycles, requests, output_chars, speed, peak_mb):
        self.times = times
        self.peak_mb = peak_mb
        self.speed = speed
        self.scaled = [t * s for t, s in zip(times, speed.local_scales(ends))]
        self.elapsed = elapsed
        self.cycles = cycles
        self.labels = [req["label"] for req in requests] * cycles
        self.sizes = [req["size"] for req in requests] * cycles
        self.output_chars = output_chars


def fingerprint(kind, raw):
    if kind == "pairs":
        if not raw[0]:
            return (False,)
        parts = tuple(
            tuple(tuple(sorted(b)) for b in (p.pm, p.plus, p.minus, p.zero)) for p in raw[3]
        )
        return (True, raw[1], raw[2], parts)
    if kind == "undirected":
        if not raw[0]:
            return (False,)
        seq = tuple((f.numerator, f.denominator) for f in raw[4])
        return (True, raw[1], raw[2], raw[3], seq)
    edits, part = raw
    blocks = tuple(tuple(sorted(b)) for b in (part.pm, part.plus, part.minus, part.zero))
    return (tuple(sorted(edits.add)), tuple(sorted(edits.remove)), blocks)


def check_repair(n, arcs, add, remove, blocks, exp):
    """Apply the edits, test both block families, count the edits."""
    out_mask = ref.apply_edits(n, arcs, list(add), list(remove))
    if out_mask is None:
        return "edits add a present arc or remove an absent one"
    if blocks is None:
        if not ref.repaired_is_split(out_mask):
            return "edited digraph is not split"
    else:
        pm, plus, minus, zero = (set(b) for b in blocks)
        if sorted(pm | plus | minus | zero) != list(range(n)) or sum(map(len, blocks)) != n:
            return "returned blocks do not partition the vertices"
        if n and (len(plus) == n or len(minus) == n):
            return "returned partition is trivial"
        if not ref.families_hold(out_mask, pm, plus, minus, zero):
            return "edited digraph breaks a block family of the returned partition"
    edits = len(add) + len(remove)
    if edits != exp["splittance"]:
        return f"{edits} edits, splittance is {exp['splittance']}"
    return check_family(exp, edits)


def check_family(exp, splittance):
    family = exp.get("family")
    if family in ("planted", "empty", "complete") and splittance != 0:
        return f"planted split input got splittance {splittance}"
    if family == "flipped" and splittance > exp["flips"]:
        return f"{exp['flips']} flips but splittance {splittance}"
    return None


def check_planted(text, exp):
    values = dict(line.split("=", 1) for line in text.splitlines())
    if exp["family"] == "nondigraphic":
        return None if values == {"digraphic": "false"} else "non-digraphic input passed"
    if values.get("digraphic") != "true":
        return "realizable input reported as not digraphic"
    splittance = int(values["splittance"])
    if values["split"] != ("true" if splittance == 0 else "false"):
        return "split flag disagrees with the splittance"
    return check_family(exp, splittance)


def corrupt_answer(req):
    """Falsify the expected answer of one request (self-test only)."""
    exp = req["expect"]
    if req["kind"] == "pairs":
        req["expect"] = ({"digraphic": False} if exp["digraphic"] else
                         {"digraphic": True, "split": False, "splittance": -1, "partitions": []})
    elif req["kind"] == "undirected":
        req["expect"] = ({"graphic": False} if exp["graphic"] else
                         {"graphic": True, "splittance": -1, "split": False, "durfee": 0,
                          "sequence": []})
    elif "splittance" in exp:
        exp["splittance"] += 1
    else:
        exp["exit"] += 1


# Metrics.


def tail(times, per_cycle):
    """(value, percentile): the highest percentile that leaves at least ten
    samples of one cycle above it, applied to all samples, so that the
    percentile does not depend on how many cycles fit in the run."""
    pct = 100.0 * max(per_cycle - 10, 1) / per_cycle
    ordered = sorted(times)
    index = min(len(ordered) - 1, max(0, round(pct / 100 * len(ordered)) - 1))
    return ordered[index], pct


def end_to_end(times, setup_times, peak_mb, per_cycle):
    value, pct = tail(times, per_cycle)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "request_p50_s": (statistics.median(times), "s"),
        "request_tail_s": (value, "s"),
        "requests_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }, pct


SELF_LAYERS = [
    "cli.run", "cli.parse_document", "digraphs.Digraph", "sequences.validate",
    "sequences.proper_order", "splittance.fulkerson_slack", "splittance.splittance_matrix",
    "splittance.maximal_sequences", "splittance.is_digraphic", "splittance.is_split_sequence",
    "splittance.digraph_splittance", "splittance.split_partitions",
    "splittance.induced_partition", "digraphs.degree_sequence", "digraphs.repair",
    "digraphs.edit_set", "undirected.eg_slack", "undirected.splittance_sequence",
    "undirected.is_graphic", "undirected.is_split_undirected", "undirected.corrected_durfee",
]
CALL_LAYERS = [
    "sequences.validate", "sequences.proper_order", "splittance.fulkerson_slack",
    "splittance.splittance_matrix", "undirected.eg_slack",
]
SLOPE_LAYERS = [
    "splittance.fulkerson_slack", "splittance.splittance_matrix",
    "splittance.maximal_sequences", "digraphs.repair",
]
CHECK_CALLS = ["splittance.fulkerson_slack", "splittance.splittance_matrix",
               "sequences.proper_order"]


def per_layer(tracer, plain, traced, plan):
    """Per-layer metrics: self seconds and counts per request, slopes.
    Times are multiplied by the Speed scale of their phase."""
    scale = traced.speed.scale()
    requests = len(traced.times)
    sizes = {req["id"]: req["size"] for req in plan}
    metrics = {}
    for name in SELF_LAYERS:
        metrics[f"{name}.self_s"] = (tracer.total(name)[1] * scale / requests, "s")
    for name in CALL_LAYERS:
        metrics[f"{name}.calls_per_request"] = (tracer.total(name)[0] / requests, "count")
    for name in SLOPE_LAYERS:
        metrics[f"{name}.slope"] = (tracer.slope(name, sizes), "1")
    cmd = sum(tracer.total(f"cli.cmd_{c}")[1] for c in ("check", "matrix", "partitions", "repair"))
    metrics["cli.cmd.self_s"] = (cmd * scale / requests, "s")
    metrics["cli.output_bytes"] = (traced.output_chars / requests, "B")  # output is ASCII
    metrics["cli.parse_document.lines"] = (
        tracer.total("cli.parse_document")[2]["lines"] / requests, "count")
    metrics["splittance.splittance_matrix.cells"] = (
        tracer.total("splittance.splittance_matrix")[2]["cells"] / requests, "count")
    metrics["splittance.split_partitions.partitions"] = (
        tracer.total("splittance.split_partitions")[2]["partitions"] / requests, "count")
    metrics["splittance.induced_partition.calls"] = (
        tracer.total("splittance.induced_partition")[0] / requests, "count")
    counts = tracer.total("digraphs.edit_set")[2]
    metrics["digraphs.edit_set.pairs_tested"] = (counts["pairs_tested"] / requests, "count")
    metrics["digraphs.edit_set.yield"] = (
        counts["edits"] / counts["pairs_tested"] if counts["pairs_tested"] else 0.0, "ratio")
    # Calls per check request on digraphic input (a non-digraphic one stops early).
    checks = {req["id"] for req in plan if req["label"] == "check" and req["expect"]["exit"] != 3}
    runs = traced.cycles * len(checks)
    for name in CHECK_CALLS:
        calls = tracer.total(name, checks)[0]
        metrics[f"cli.check.{name.split('.')[1]}.calls"] = (calls / runs if runs else 0.0, "count")
    for label in ("check", "partitions", "matrix"):
        times = [t for t, lab in zip(plain.scaled, plain.labels) if lab == label]
        metrics[f"cli.{label}.p50_s"] = (statistics.median(times) if times else 0.0, "s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced.scaled) / statistics.median(plain.scaled), "ratio")
    return metrics


def class_medians(times, phase):
    """Median time and sample count per request label and size."""
    groups = {}
    for t, label, size in zip(times, phase.labels, phase.sizes):
        groups.setdefault(f"{label} {size}", []).append(t)
    return {key: [statistics.median(ts), len(ts)] for key, ts in sorted(groups.items())}


# Set-up time and provenance.


def python_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def time_command(argv, samples, speed):
    """Measured wall times of ``samples`` runs of ``argv``, and the same
    times scaled by the calibrations taken between them."""
    env = python_env()
    subprocess.run(argv, env=env, cwd=ROOT, check=True)  # writes the .pyc files
    times, moments = [], []
    for _ in range(samples):
        speed.sample()
        moments.append(perf_counter())
        # No timeout: with one, the wait polls in steps of up to 50 ms,
        # which would quantize the measurement.
        t0 = perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
    return times, [t * k for t, k in zip(times, speed.local_scales(moments))]


def provenance(plan):
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "splitkit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "inputs_sha256": plan["inputs_sha256"],
    }


def load_store(path):
    if not path.exists():
        return {}
    return json.loads(path.read_text())["entries"]


def record(path, runner):
    entries = load_store(path)
    for i, req in enumerate(runner.requests):
        if req["kind"] == "cli" and i in runner.first:
            entries[runner.store_key(req)] = runner.store_value(i)
    path.write_text(json.dumps({"entries": dict(sorted(entries.items()))}, indent=0) + "\n")


def run(args):
    if not (SRC / "splitkit" / "cli.py").is_file():
        print(f"error: no splitkit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    name += "".join(f"-{x}" for x in (
        "smoke" if args.smoke else "", f"corrupt-{args.corrupt}" if args.corrupt else "",
        "record" if args.record_digests else "") if x)
    run_dir = OUT / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    gen = [sys.executable, str(BENCH / "gen.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(run_dir)] + (["--smoke"] if args.smoke else [])
    subprocess.run(gen, env=python_env(), cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
    plan = json.loads((run_dir / "plan.json").read_text())
    info = provenance(plan)

    setup_times = bare_times = []
    setup_times = setup_scaled = bare_times = []
    if not args.trace:
        setup_speed = Speed()
        setup_times, setup_scaled = time_command(
            [sys.executable, "-c", "import splitkit.cli"], SETUP_SAMPLES, setup_speed)
        bare_times, _ = time_command([sys.executable, "-c", "pass"], 5, setup_speed)

    sys.path.insert(0, str(SRC))
    store = load_store(Path(args.digests))
    runner = Runner(plan, run_dir, store, args.corrupt)
    # Warm-up: the smallest request of each label, not counted.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for label in sorted({req["label"] for req in runner.requests}):
            i = min((r["size"], r["id"]) for r in runner.requests if r["label"] == label)[1]
            runner.calls[i]()

    lines = []
    tracer = None
    measured = {}
    if not args.trace:
        plain = runner.phase(args.seconds)
        per_cycle = len(runner.requests)
        metrics, pct = end_to_end(plain.scaled, setup_scaled, plain.peak_mb, per_cycle)
        measured, _ = end_to_end(plain.times, setup_times, plain.peak_mb, per_cycle)
        phases = [plain]
        lines.append(f"request_tail_s is p{pct:.1f} of {len(plain.times)} requests")
        lines.append(f"setup_s is the median of {SETUP_SAMPLES} imports; bare interpreter "
                     f"median {statistics.median(bare_times):.4f} s measured")
        wanted = spec["end_to_end"]
    else:
        plain = runner.phase(args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.phase(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, plain, traced, runner.requests)
        phases = [plain, traced]
        wanted = spec["per_layer"]
    scales = [p.speed.scale() for p in phases]
    lines.append(f"speed scale {' '.join(f'{x:.4f}' for x in scales)} from "
                 f"{sum(len(p.speed.samples) for p in phases)} calibrations "
                 f"(times below are at the reference speed)")

    failed, checked, notes = runner.verify()
    attempted = sum(len(p.times) for p in phases)
    if args.record_digests and not failed:
        record(Path(args.record_digests), runner)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
                    for m in wanted},
    }
    details = dict(info, workload=args.workload, seed=args.seed, trace=args.trace,
                   cycles=[p.cycles for p in phases], elapsed_s=[p.elapsed for p in phases],
                   requests_per_cycle=len(runner.requests), digests_checked=checked,
                   error_rate=failed / attempted, failures=notes, setup_samples_s=setup_times,
                   median_s_by_label_and_size=class_medians(plain.scaled, plain),
                   measured_median_s_by_label_and_size=class_medians(plain.times, plain),
                   speed_scales=scales,
                   calibration_samples_s=[p.speed.samples for p in phases],
                   measured_metrics={k: v[0] for k, v in measured.items()},
                   result=result)
    if tracer is not None:
        tracer.write_spans(run_dir / "spans.jsonl")
        report = tracer.report({r["id"]: r["label"] for r in runner.requests},
                               {r["id"]: r["size"] for r in runner.requests},
                               {r["id"]: traced.cycles for r in runner.requests})
        (run_dir / "trace.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    (run_dir / "result.json").write_text(json.dumps(details, indent=1))
    shutil.rmtree(run_dir / "inputs", ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"python {info['python']} nproc {info['nproc']} commit {info['commit']}")
    print(f"inputs_sha256 {info['inputs_sha256']} src_sha256 {info['src_sha256']}")
    print(f"cycles {details['cycles']} of {len(runner.requests)} requests, "
          f"{sum(len(p.times) for p in phases)} requests timed")
    for line in lines:
        print(line)
    if tracer is not None:
        for label, layers in report["by_label"].items():
            for layer, entry in layers.items():
                print(f"per {label} request: {layer} calls {entry['calls_per_request']:.4g} "
                      f"self_s {entry['self_s_per_request']:.4g}")
    for m in wanted:
        value, unit = metrics[m["name"]]
        note = f" (measured {measured[m['name']][0]:.6g})" if m["name"] in measured else ""
        print(f"{m['name']} {value:.6g} {unit}{note}")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} requests failed; "
          f"{checked} checked against recorded digests)")
    for note in notes:
        print(f"failure: {note}")
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["batch-small", "seq-large", "repair-large"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--digests", default=str(DIGESTS), help="recorded stdout digests")
    parser.add_argument("--record-digests", metavar="PATH",
                        help="after a run with no failures, add its stdout digests to PATH")
    parser.add_argument("--corrupt", choices=["answer", "digest"],
                        help="falsify one expected answer or every recorded digest "
                        "(self-test of the correctness gate)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        from selftest import self_test

        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
