"""The motcalc benchmark: analyze and check-invariants latency per workload.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 35 --trace 0

One process, no threads.  Set-up imports motcalc afresh from ``src/``,
writes the workload's documents (see generate.py) under ``.perfbench/``
and runs one untimed warm-up pass.  Passes run until ``--seconds`` have
gone by, with SETUP_REPEATS set-ups spread over that time.  A pass runs
two operations on every document:

* analyze: ``motcalc analyze <file> --format json`` through
  ``motcalc.cli.main``, stdout captured;
* check: ``document.check_invariants`` on a freshly parsed document
  (parsing is not timed), the extra work of ``--check-invariants``.

With ``--trace 0`` the last line holds the end-to-end metrics:
``analyze_s`` and ``check_invariants_s`` (each document's fastest
operation in the run, summed over the documents: one pass with the
least interference from the host), the median ``setup_s``, and
``peak_rss_mb``.  With ``--trace 1`` untraced and traced passes
alternate, and the last line holds the per-layer metrics of spans.py,
per traced pass, plus the tracing overhead on the analyze pass; the
per-document stage table is printed above it and the spans are written
to ``.perfbench/spans-<workload>.jsonl``.

An operation fails if it raises, exits non-zero or fails the
correctness gate: the analyze report must match the sha256 recorded in
golden.json (for recorded seeds) or the warm-up report (otherwise),
check_invariants must return no failures, ``dual`` applied twice must
give back the normalized document, and for torus-only documents with
the trivial group dim Z must equal the rank of the psi table modulo the
multiplicative relations, computed independently with sympy.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
WORK_DIR = os.path.join(REPO_ROOT, ".perfbench")
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")

sys.path.insert(0, BENCH_DIR)
import generate  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 3


def import_motcalc():
    """A fresh import of motcalc from this checkout's ``src/``."""
    for key in [k for k in sys.modules
                if k == "motcalc" or k.startswith("motcalc.")]:
        del sys.modules[key]
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
    cli = importlib.import_module("motcalc.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC_DIR + os.sep):
        raise ImportError("motcalc was not imported from %s" % (SRC_DIR,))
    return cli, importlib.import_module("motcalc.document")


class Document:
    """One input file of a workload and what its report must hash to."""

    def __init__(self, label, text, path, expected_digest):
        self.label = label
        self.text = text
        self.path = path
        self.expected_digest = expected_digest


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def analyze(cli, path):
    """``motcalc analyze <path> --format json``: exit code, stdout text."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["analyze", path, "--format", "json"])
    except Exception:
        traceback.print_exc()
        code = None
    return code, out.getvalue()


def golden_digests(workload, seed):
    """Recorded report digests by label: corpus under "any", else by seed."""
    if not os.path.exists(GOLDEN_PATH):
        return {}
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    by_seed = golden.get(workload, {})
    return by_seed.get("any") or by_seed.get(str(seed)) or {}


class Bench:
    def __init__(self, workload, seed, work_dir):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.cli = self.document = self.docs = None

    def fail(self, label, what):
        self.failed += 1
        print("FAILED %s %s: %s" % (self.workload, label, what),
              file=sys.stderr)

    def setup(self):
        """Import, generate and write the documents, one warm-up pass."""
        start = time.perf_counter()
        self.cli, self.document = import_motcalc()
        golden = golden_digests(self.workload, self.seed)
        docs = []
        for label, text in generate.documents(self.workload, self.seed):
            path = os.path.join(self.work_dir, label + ".json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            docs.append(Document(label, text, path, golden.get(label)))
        self.docs = docs
        outputs = self.analyze_pass()[1]
        self.check_pass()
        elapsed = time.perf_counter() - start
        for doc, (code, out) in zip(docs, outputs):
            if code == 0 and doc.expected_digest is None:
                doc.expected_digest = digest(out)
        return elapsed

    def analyze_pass(self, tracer=None):
        """Analyze every document once; per-document seconds, outputs."""
        times, outputs = [], []
        with _installed(tracer):
            for doc in self.docs:
                start = time.perf_counter()
                with _op(tracer, "analyze", doc.label):
                    outputs.append(analyze(self.cli, doc.path))
                times.append(time.perf_counter() - start)
        for doc, (code, out) in zip(self.docs, outputs):
            self.attempted += 1
            if code != 0:
                self.fail(doc.label, "analyze exited with %r" % (code,))
            elif (doc.expected_digest is not None
                  and digest(out) != doc.expected_digest):
                self.fail(doc.label, "analyze report differs from the "
                                     "recorded report")
        return times, outputs

    def check_pass(self, tracer=None):
        """check_invariants on every freshly parsed document; seconds each."""
        parsed = []
        for doc in self.docs:
            try:
                parsed.append(self.document.parse_input(doc.text))
            except Exception:
                traceback.print_exc()
                parsed.append(None)
        times = []
        with _installed(tracer):
            for doc, parsed_doc in zip(self.docs, parsed):
                self.attempted += 1
                failures = ["parse raised"]
                start = time.perf_counter()
                if parsed_doc is not None:
                    try:
                        with _op(tracer, "check", doc.label):
                            failures = self.document.check_invariants(
                                parsed_doc)
                    except Exception:
                        traceback.print_exc()
                        failures = ["raised"]
                times.append(time.perf_counter() - start)
                if failures:
                    self.fail(doc.label,
                              "check_invariants: %s" % (failures,))
        return times

    def verify(self):
        """Dual applied twice, and the sympy rank oracle; one op per doc."""
        # Imported only now, after peak_rss_mb has been read.
        import sympy

        mod = self.document
        for doc in self.docs:
            self.attempted += 1
            try:
                parsed = mod.parse_input(doc.text)
                once = mod.serialize_document(mod.dual_document(parsed))
                twice = mod.serialize_document(
                    mod.dual_document(mod.parse_input(once)))
                if twice != mod.serialize_document(parsed.normalized):
                    self.fail(doc.label, "dual applied twice differs")
                    continue
                data = json.loads(doc.text)
                if "group" in data or any("A" in m for m in data["motives"]):
                    continue
                code, out = analyze(self.cli, doc.path)
                reports = json.loads(out)["reports"]
                relations = [[sympy.Rational(str(x)) for x in row]
                             for row in data.get("mult_relations", [])]
                for entry, report in zip(data["motives"], reports):
                    expected = _psi_rank(sympy, entry, relations)
                    if report["dims"]["dim_Z"] != expected:
                        self.fail(doc.label, "dim_Z %d, psi rank %d" % (
                            report["dims"]["dim_Z"], expected))
                        break
            except Exception:
                traceback.print_exc()
                self.fail(doc.label, "verification raised")


def _installed(tracer):
    return contextlib.nullcontext() if tracer is None else tracer.installed()


def _op(tracer, kind, label):
    """The root span of one operation; its spans share the op id."""
    if tracer is None:
        return contextlib.nullcontext()
    tracer.op_id = "%s:%s" % (kind, label)
    return tracer.span("op." + kind)


def _psi_rank(sympy, entry, relations):
    """Rank of the psi columns in Q^mu modulo the relation rows."""
    columns = [[sympy.Rational(str(x)) for x in vec]
               for row in entry.get("psi", []) for vec in row]
    if not columns:
        return 0
    with_relations = sympy.Matrix(columns + relations).rank()
    return with_relations - (sympy.Matrix(relations).rank()
                             if relations else 0)


def _spread(values):
    if len(values) < 2:
        return "%d sample" % (len(values),)
    q = statistics.quantiles(values, n=4)
    return "%d samples: median %.6g, quartiles %.6g .. %.6g" % (
        len(values), statistics.median(values), q[0], q[2])


def fastest_per_document(passes):
    """Sum over documents of each document's fastest time in the run."""
    return sum(min(column) for column in zip(*passes))


def _describe(name, passes):
    value = fastest_per_document(passes)
    print("%-20s %.6g s (fastest per document; whole passes, %s)"
          % (name, value, _spread([sum(p) for p in passes])))
    return {"value": value, "unit": "s"}


def _describe_setup(setups):
    value = statistics.median(setups)
    print("%-20s %.6g s (median of %s)" % ("setup_s", value, _spread(setups)))
    return {"value": value, "unit": "s"}


def measure(bench, seconds):
    setups = []
    analyze_passes, check_passes = [], []
    start = time.perf_counter()
    while (len(analyze_passes) < MIN_PASSES
           or time.perf_counter() - start < seconds):
        # Set-ups are spread over the run, so that their median does not
        # hang on one phase of a host whose speed changes.
        if (len(setups) < SETUP_REPEATS and time.perf_counter() - start
                >= len(setups) * seconds / SETUP_REPEATS):
            setups.append(bench.setup())
        analyze_passes.append(bench.analyze_pass()[0])
        check_passes.append(bench.check_pass())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bench.verify()
    print("%-20s %.6g MB" % ("peak_rss_mb", peak_rss_mb))
    return {
        "analyze_s": _describe("analyze_s", analyze_passes),
        "check_invariants_s": _describe("check_invariants_s", check_passes),
        "setup_s": _describe_setup(setups),
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def measure_traced(bench, seconds):
    bench.setup()
    tracer = spans.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while (len(traced) < MIN_PASSES
           or time.perf_counter() - start < seconds):
        plain.append(bench.analyze_pass()[0])
        bench.check_pass()
        tracer.pass_id = len(traced)
        traced.append(bench.analyze_pass(tracer=tracer)[0])
        bench.check_pass(tracer=tracer)
    bench.verify()
    metrics = tracer.layer_metrics()
    traced_s = fastest_per_document(traced)
    plain_s = fastest_per_document(plain)
    metrics["trace.analyze_overhead_s"] = {"value": traced_s - plain_s,
                                           "unit": "s"}
    print_stage_table(tracer, [d.label for d in bench.docs], len(traced))
    print("%-28s %.6g s (analyze_s traced %.6g s, untraced %.6g s, "
          "%d passes each)" % ("trace.analyze_overhead_s", traced_s - plain_s,
                               traced_s, plain_s, len(traced)))
    path = os.path.join(WORK_DIR, "spans-%s.jsonl" % (bench.workload,))
    tracer.write(path)
    print("spans written to %s" % (os.path.relpath(path, REPO_ROOT),))
    return metrics


STAGES = (("analyze", "op.analyze"), ("Z1", "radical.derived_torus_Z1"),
          ("Z", "radical.torus_Z"),
          ("dual radical", "radical.radical_cartier_dual"))


def print_stage_table(tracer, labels, passes):
    """Per-document stage seconds of the traced analyze passes (fastest)."""
    sums = {}
    for record in tracer.spans:
        op = record[spans.OP]
        if not op.startswith("analyze:"):
            continue
        key = (op[len("analyze:"):], record[spans.NAME], record[spans.PASS])
        sums[key] = sums.get(key, 0.0) + record[spans.END] \
            - record[spans.START]
    print("stage seconds per document (traced analyze, fastest of %d passes)"
          % (passes,))
    print("%-20s" % ("document",)
          + "".join("%14s" % (title,) for title, _ in STAGES))
    for label in labels:
        cells = [min(sums.get((label, name, p), 0.0) for p in range(passes))
                 for _, name in STAGES]
        print("%-20s" % (label,) + "".join("%14.6f" % (c,) for c in cells))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=generate.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC_DIR, "motcalc")):
        print("no motcalc sources under %s" % (SRC_DIR,), file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                                dir=WORK_DIR)
    try:
        bench = Bench(args.workload, args.seed, work_dir)
        if args.trace:
            metrics = measure_traced(bench, args.seconds)
        else:
            metrics = measure(bench, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    ratio = bench.failed / bench.attempted
    print("%-20s %.6g (%d failed of %d operations)"
          % ("fail_ratio", ratio, bench.failed, bench.attempted))
    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
