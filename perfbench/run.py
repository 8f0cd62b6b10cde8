#!/usr/bin/env python3
"""The repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds bin/jsonlogic.exe and the helper perfbench/ocaml/pb.exe with
dune, generates the workload's inputs from the seed under _bench_work/,
drives the real `jsonlogic` CLI, checks every output against an
independent reference, and prints one JSON object as the last line of
its output.

--trace 0 prints the end-to-end metrics, timed with Obs.Metrics off.
Every workload reports the same four: setup_s, peak_rss_mb, and the
throughput of its two routes, route_a_ref_mb_s and route_b_ref_mb_s,
whose meaning each workload fixes (see WORKLOADS below).

A route's throughput is given on the reference host.  Every timed pass
runs right after pb's reference kernel (`pb calib`), at the pass's
parallelism, and the route's MB/s is its input over the median ratio of
pass time to kernel time, times CALIB_REF_S: the MB/s on a host that
runs the kernel in CALIB_REF_S.  The kernel calls none of the
repository's code, so it slows with the host and not with the program.
On a shared 2-core VM that runs the same code up to twice as slowly for
seconds to minutes at a time, raw MB/s moved by a sixth to a half
between runs of the same code, the ratio by a few percent.  The report
lines above the JSON give each route's raw pass times (median and
tail) and raw median MB/s.

--trace 1 runs perfbench/ocaml/pb.exe's traced in-process pass over
the same inputs (spans kept in memory, Obs.Metrics counters on) and
prints the per-layer metrics, among them those of the serve daemon and
the corpus index, driven in process.

Load comes from this one process tree: CLI commands run one at a time,
with --jobs equal to the number of usable cores (nproc) where a workload
shards.  Inputs are read from the page cache.  The measured commands
never fsync and no cache is dropped, on either side of any comparison;
the benchmark itself calls sync(), untimed, after each set-up, so that
writing back the inputs does not overlap the timed passes.  Raw times
are as measured on the host that runs the benchmark, not modeled for a
device.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_stats as bs  # noqa: E402

WORK = "_bench_work"
J = "_build/default/bin/jsonlogic.exe"
PB = "_build/default/perfbench/ocaml/pb.exe"

# Why each workload is here, what its routes are, and its input sizes.
WORKLOADS = {
    "validate-catalog": (
        "~8 MB of ~2 KB catalog records, 1% malformed, ~30% invalid, at "
        "--jobs 1. a = validate --files-from (tree), b = validate --stream"),
    "batch-small": (
        "8000 files of ~570 B. a = eval --files-from, b = aggregate "
        "--files-from (E-MONGO pipeline), both --jobs nproc"),
}

SETUP_REPS = 5        # set-ups per timed run; setup_s is their median
CALIB_ROUNDS = 16     # size of one reference-kernel run, ~0.2 s
CALIB_REF_S = 0.2     # the reference host's time for it
MIN_ROUNDS = 20       # rounds at least, so a route's p50 has ten passes beyond
MB = 1e6


def die(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(2)


def read_lines(path):
    with open(path, encoding="utf-8") as f:
        return [line for line in f.read().split("\n") if line]


def build():
    """Build the CLI and the helper from the checkout's sources; dune's
    shared cache stays off so nothing is written outside the checkout."""
    for f in ("dune-project", "bin/jsonlogic.ml", "perfbench/ocaml/pb.ml"):
        if not os.path.isfile(f):
            die("run from the repository root: %s is missing" % f)
    env = dict(os.environ, DUNE_CACHE="disabled")
    p = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/jsonlogic.exe",
         "./perfbench/ocaml/pb.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if p.returncode != 0:
        die("build failed")


LIVE = set()  # started and not yet reaped; main reaps them on any exit


class Run:
    """One benchmark run: the workload directory, the process runner,
    and the tally of checked operations."""

    def __init__(self, workload, seed, seconds, nproc):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.nproc = nproc
        self.root = os.path.join(WORK, workload)
        self.dir = None
        self.expect = os.path.join(self.root, "expect")
        self.out = self.err = b""  # the last command's output
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.peak_kb = 0
        self.sizes = {}
        self.named = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(what)

    def run(self, cmd, timed=False):
        """Run cmd to completion, its output read through pipes (rewriting
        one output file would free disk blocks on every call, and the
        discards would slow later writes).  Returns (wall seconds, exit
        code); self.out and self.err then hold the output.  A timed
        run's peak RSS joins the run's peak."""
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        LIVE.add(p)
        # the commands write at most a line or two to stderr, which fits
        # the pipe while stdout is drained
        self.out = p.stdout.read()
        self.err = p.stderr.read()
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        LIVE.discard(p)
        p.stdout.close()
        p.stderr.close()
        p.returncode = os.waitstatus_to_exitcode(status)
        if timed:
            self.peak_kb = max(self.peak_kb, ru.ru_maxrss)
        return wall, p.returncode

    def kernel(self, parallel):
        """Wall time of `parallel` concurrent runs of the reference
        kernel."""
        t0 = time.perf_counter()
        kernels = [subprocess.Popen([PB, "calib", str(CALIB_ROUNDS)],
                                    stdout=subprocess.DEVNULL)
                   for _ in range(parallel)]
        LIVE.update(kernels)
        for k in kernels:
            rc = k.wait()
            LIVE.discard(k)
            if rc != 0:
                die("pb calib failed")
        return time.perf_counter() - t0

    def timed_pass(self, cmd, parallel):
        """One timed pass of cmd, right after the reference kernel at
        the same parallelism; returns (wall, exit code, kernel wall)."""
        ref = self.kernel(parallel)
        wall, rc = self.run(cmd, timed=True)
        return wall, rc, ref

    def pb(self, *args):
        _, rc = self.run([PB] + [str(a) for a in args])
        if rc != 0:
            die("pb %s failed: %s" % (args[0], self.err.decode()[-500:]))
        return self.out.decode()

    def gen(self):
        self.sizes = json.loads(self.pb("gen", self.workload, self.seed, self.dir))

    def oracle(self):
        self.pb("oracle", self.workload, self.dir, self.expect)

    def name(self, metric, value, unit, note=""):
        self.named.append((metric, value, unit, note))

    def deadline(self):
        return time.perf_counter() + self.seconds


def table(keys, cells):
    """The CLI's `key<TAB>cell` output lines for the given references."""
    return "".join("%s\t%s\n" % kc for kc in zip(keys, cells)).encode()


def route(r, metric, nbytes, passes, per_s=None):
    """A route's MB/s on the reference host, from its passes' (wall,
    kernel wall), named in the report with the raw pass times; per_s =
    (name, count) also names count/s on the reference host."""
    walls = [w for w, _ in passes]
    ref_s = bs.reference_seconds(passes, CALIB_REF_S)
    med = statistics.median(walls)
    level, tail = bs.tail(walls)
    r.name(metric, nbytes / ref_s / MB, "MB/s",
           "on the reference host; raw %.4f MB/s, pass p50 %.1f ms, "
           "p%g %.1f ms of %d" % (nbytes / med / MB, med * 1e3, level,
                                  tail * 1e3, len(walls)))
    if per_s:
        name, count = per_s
        r.name(name, count / ref_s, "1/s",
               "on the reference host; raw median %.4f" % (count / med))
    return nbytes / ref_s / MB


def rounds(r, steps, min_rounds):
    """Repeat the steps, in order, until the run's seconds are spent and
    at least min_rounds rounds have run.  Interleaving spreads every
    route's passes over the whole run, so each route meets the host's
    quiet spells as often as the others."""
    end = r.deadline()
    n = 0
    while time.perf_counter() < end or n < min_rounds:
        for step in steps:
            step()
        n += 1


# ---- validate-catalog ---------------------------------------------------------


def validate_catalog(r):
    d = r.dir
    schema, lst, nd = d + "/schema.json", d + "/list.txt", d + "/records.ndjson"
    paths = read_lines(lst)
    cells = read_lines(r.expect + "/cells.txt")
    want_tree = table(paths, cells)
    want_stream = table(["%s:%d" % (nd, i + 1) for i in range(len(cells))], cells)
    walls = {"tree": [], "stream": []}

    def pass_(label, cmd, want, timed=True):
        if timed:
            wall, rc, kernel = r.timed_pass(cmd, 1)
            walls[label].append((wall, kernel))
        else:
            _, rc = r.run(cmd)
        # exit status 1: the records hold invalid and malformed ones
        r.check(rc == 1 and r.out == want, "validate %s output" % label)

    def tree(timed=True):
        pass_("tree", [J, "validate", "--schema", schema, "--files-from", lst],
              want_tree, timed)

    def stream(timed=True):
        pass_("stream", [J, "validate", "--stream", "--schema", schema, nd],
              want_stream, timed)

    tree(False)
    stream(False)
    rounds(r, [tree, stream], MIN_ROUNDS)
    a = route(r, "validate_tree_ref_mb_s",
              sum(os.path.getsize(p) for p in paths), walls["tree"])
    b = route(r, "validate_stream_ref_mb_s", os.path.getsize(nd),
              walls["stream"])
    return a, b


# ---- batch-small ----------------------------------------------------------------


EVAL_FORMULA = 'eq(.name.first, "John")'


def batch_small(r):
    d = r.dir
    lst = d + "/list.txt"
    paths = read_lines(lst)
    with open(d + "/pipeline.json") as f:
        pipeline = f.read()
    eval_cells = read_lines(r.expect + "/eval.txt")
    want_eval = table(paths, eval_cells)
    with open(r.expect + "/aggregate.txt", "rb") as f:
        want_agg = f.read()
    walls = {"eval": [], "aggregate": []}

    def cmd(verb, jobs):
        arg = EVAL_FORMULA if verb == "eval" else pipeline
        return [J, verb, "--jobs", str(jobs), arg, "--files-from", lst]

    # --jobs 1 against the references, then --jobs nproc against --jobs 1
    ref = {}
    for verb, want in (("eval", want_eval), ("aggregate", want_agg)):
        _, rc = r.run(cmd(verb, 1))
        ref[verb] = r.out
        r.check(rc == 0 and ref[verb] == want, "%s --jobs 1 vs reference" % verb)

    def pass_(verb, timed=True):
        if timed:
            wall, rc, kernel = r.timed_pass(cmd(verb, r.nproc), r.nproc)
            walls[verb].append((wall, kernel))
        else:
            _, rc = r.run(cmd(verb, r.nproc))
        r.check(rc == 0 and r.out == ref[verb],
                "%s --jobs %d vs --jobs 1" % (verb, r.nproc))

    pass_("eval", False)
    pass_("aggregate", False)
    rounds(r, [lambda: pass_("eval"), lambda: pass_("aggregate")], MIN_ROUNDS)
    nbytes, n = r.sizes["bytes"], len(paths)
    a = route(r, "eval_ref_mb_s", nbytes, walls["eval"],
              ("eval_ref_docs_per_s", n))
    b = route(r, "aggregate_ref_mb_s", nbytes, walls["aggregate"],
              ("aggregate_ref_docs_per_s", n))
    return a, b


# ---- main ---------------------------------------------------------------------------


MEASURE = {
    "validate-catalog": validate_catalog,
    "batch-small": batch_small,
}


def end_to_end(r):
    """Set up SETUP_REPS times, each into its own directory, then measure
    in the last.  The directories outlive the run and the next run
    overwrites them: deleting thousands of just-written files leaves the
    file system busy for the next writer, which would land on set-up."""
    setups = []
    for rep in range(SETUP_REPS):
        r.dir = os.path.join(r.root, "rep%d" % rep)
        t0 = time.perf_counter()
        r.gen()
        setups.append(time.perf_counter() - t0)
        os.sync()
        if rep == 0:
            # every set-up writes the same inputs; the references are
            # made once, from the first
            r.oracle()
    a, b = MEASURE[r.workload](r)
    r.name("setup_s", statistics.median(setups), "s",
           "of " + " ".join("%.3f" % x for x in setups))
    r.name("peak_rss_mb", r.peak_kb / 1024.0, "MB", "largest command's")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (r.peak_kb / 1024.0, "MB"),
        "route_a_ref_mb_s": (a, "MB/s"),
        "route_b_ref_mb_s": (b, "MB/s"),
    }


def per_layer(r):
    """The traced run: pb probe over the same inputs, then the CLI on
    the probe's 4 MB prefix for the CLI's own overhead."""
    r.dir = os.path.join(r.root, "rep0")
    r.gen()
    r.oracle()
    raw = json.loads(r.pb("probe", r.workload, r.dir, r.nproc))
    # the probe's daemon replies, each checked against in-process cells
    r.attempted += int(raw["serve.requests"])
    r.failed += int(raw["serve.failed"])
    if raw["serve.failed"]:
        r.problems.append("probe serve replies")
    spans = []
    with open(r.dir + "/spans.tsv") as f:
        for line in f:
            sid, parent, name, t0, t1, item, nbytes, nodes = line.split("\t")
            spans.append((int(sid), int(parent), name, int(t0) / 1e9,
                          int(t1) / 1e9, int(nbytes), int(nodes)))
    selfs = bs.self_times((s[0], s[1], s[3], s[4]) for s in spans)
    agg = {}
    for sid, _, name, t0, t1, nbytes, nodes in spans:
        a = agg.setdefault(name, {"n": 0, "self": [], "bytes": 0, "nodes": 0})
        a["n"] += 1
        a["self"].append(selfs[sid])
        a["bytes"] += nbytes
        a["nodes"] += nodes
    for name in sorted(agg, key=lambda k: -sum(agg[k]["self"])):
        a = agg[name]
        r.name("self." + name, sum(a["self"]) * 1e3, "ms", "%d spans" % a["n"])

    def total(name):
        return sum(agg[name]["self"])

    def med(name):
        return statistics.median(agg[name]["self"])

    def mb_s(name):
        return agg[name]["bytes"] / total(name) / MB

    def ns_per_node(name):
        return total(name) / agg[name]["nodes"] * 1e9

    cli_wall = cli_reference(r)
    m = {
        "lexer.mb_s": (mb_s("lexer"), "MB/s"),
        "lexer.words_per_byte": (raw["lexer.words_per_byte"], "words/B"),
        "tree.of_string.mb_s": (mb_s("tree.of_string"), "MB/s"),
        "tree.of_string.ns_per_node": (ns_per_node("tree.of_string"), "ns/node"),
        "tree.of_string.words_per_byte":
            (raw["tree.of_string.words_per_byte"], "words/B"),
        "plan.compile_us": (med("plan.compile") * 1e6, "us"),
        "plan.run_tree.ns_per_node": (ns_per_node("plan.run_tree"), "ns/node"),
        "plan.run_stream.mb_s": (mb_s("plan.run_stream"), "MB/s"),
        "plan.run_stream.words_per_byte":
            (raw["plan.run_stream.words_per_byte"], "words/B"),
        "plan.memo_hits_per_doc": (raw["plan.memo_hits_per_doc"], "count"),
        "plan.stream_skip_frac": (raw["plan.stream_skip_frac"], "frac"),
        "jnl_eval.ns_per_node": (ns_per_node("jnl_eval"), "ns/node"),
        "agg.prefix.us_per_doc":
            (total("agg.prefix") / agg["agg.prefix"]["n"] * 1e6, "us"),
        "agg.suffix_ms": (total("agg.suffix") * 1e3, "ms"),
        "index.build.speedup":
            (med("index.build.j1") / med("index.build.jn"), "x"),
        "index.bytes_per_byte": (raw["index.bytes_per_byte"], "B/B"),
        "index.open_ms": (med("index.open") * 1e3, "ms"),
        "index.query.core_ms": (med("index.query.core") * 1e3, "ms"),
        "index.query.eq_ms": (med("index.query.eq") * 1e3, "ms"),
        "index.query.filtered_ms": (med("index.query.filtered") * 1e3, "ms"),
        "index.query.confirm_frac": (raw["index.query.confirm_frac"], "frac"),
        "par.batch.speedup": (med("par.batch.j1") / med("par.batch.jn"), "x"),
        "par.busy_frac": (raw["par.busy_frac"], "frac"),
        "par.pool_setup_us": (med("par.pool_setup") * 1e6, "us"),
        "serve.validate_warm_us": (med("serve.warm") * 1e6, "us"),
        "serve.validate_cold_us": (med("serve.cold") * 1e6, "us"),
        "serve.indexq_us": (med("serve.indexq") * 1e6, "us"),
        "serve.plan_cache.hit_frac": (raw["serve.plan_cache.hit_frac"], "frac"),
        "cli.overhead_frac":
            ((cli_wall - raw["cli_inproc_s"]) / cli_wall, "frac"),
        "gc.minor_words_per_byte": (raw["gc.minor_words_per_byte"], "words/B"),
        "gc.major_collections": (raw["gc.major_collections"], "count"),
        "trace_overhead_frac": (raw["trace_overhead_frac"], "frac"),
    }
    r.name("probe_docs", raw["docs"], "count", "%d bytes" % raw["bytes"])
    r.name("cli_wall_s", cli_wall, "s", "jobs 1")
    r.name("cli_inproc_s", raw["cli_inproc_s"], "s")
    return m


def cli_reference(r):
    """Median wall time, over three runs, of the CLI doing the probe's
    in-process main pass on the same prefix; outputs checked."""
    d = r.dir
    lst, schema = d + "/probe_list.txt", d + "/schema.json"
    if r.workload == "validate-catalog":
        cmd = [J, "validate", "--schema", schema, "--files-from", lst]
        cells, code = "cells.txt", 1
    else:
        cmd = [J, "eval", EVAL_FORMULA, "--files-from", lst]
        cells, code = "eval.txt", 0
    want = table(read_lines(lst), read_lines(r.expect + "/" + cells))
    walls = []
    for _ in range(3):
        wall, rc = r.run(cmd)
        r.check(rc == code and r.out == want, "cli reference " + cmd[1])
        walls.append(wall)
    return statistics.median(walls)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run still stops and reaps the processes it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build()
    nproc = len(os.sched_getaffinity(0))
    r = Run(args.workload, args.seed, args.seconds, nproc)
    try:
        metrics = end_to_end(r) if args.trace == 0 else per_layer(r)
    finally:
        for p in list(LIVE):
            p.kill()
            p.wait()
    print("workload %s  seed %d  nproc %d  trace %d  (no fsync, no cache drop)"
          % (args.workload, args.seed, nproc, args.trace))
    print("why: " + WORKLOADS[args.workload])
    print("inputs " + json.dumps(r.sizes, sort_keys=True))
    for metric, value, unit, note in r.named:
        print("  %-32s %14.4f %-8s %s" % (metric, value, unit, note))
    print("  %-32s %14.4f %-8s %d of %d" % (
        "failed_frac", r.failed / max(1, r.attempted), "frac", r.failed,
        r.attempted))
    for p in r.problems:
        print("  MISMATCH " + p)
    correct = r.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, r.attempted),
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
