"""hierex benchmark: end-to-end throughput and latency, or a traced per-layer split.

Run from the repository root:

    python3 bench/run.py --workload train-crf --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each exists):

  train-crf      `hierex train` (CRF head), then eval, extract from a file
                 and extract over a stream with the trained model, each round
  train-softmax  the same with --set tagger_mode=softmax
  infer          set-up trains one CRF model; each round evaluates it,
                 extracts from a file and extracts over a stream

hierex is run from ./src through its command line, as a user runs it. The
corpus comes from `hierex gen-corpus --seed <seed>`. A run repeats whole
rounds for --seconds. With --trace 0 the rounds run as subprocesses and the
last output line is a JSON object with the end-to-end metrics, each the
best round's; with --trace 1 the rounds run in this process, alternately
untraced and with every layer wrapped, and the metrics are the per-layer
split of the fastest traced round plus the tracing overhead. Either way
every round's output is checked (bench/checks.py), and --trace 1 also
checks the layers' counts against counts computed here from the corpus
files.
"""

import time

T0 = time.perf_counter()  # set-up time is measured from here

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import threading

import checks
import layer_trace

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".benchwork")

EPOCHS = 3
BATCH_DOCS = 8
# The default lr (1e-3) needs about 250 Adam steps to pass the quality
# bound; 1e-2 gets there in 3 epochs of 150 documents. The learning rate
# changes no layer's work per token.
TRAIN_FLAGS = ["--set", f"max_epochs={EPOCHS}", "--set", f"patience={EPOCHS}",
               "--set", "lr=0.01", "--set", f"batch_docs={BATCH_DOCS}"]
# Lowest acceptable held-out span-F1, set below the lowest value seen over
# corpus seeds 1-20 and 42 (bench/README.md lists them).
F1_BOUND = {"crf": 0.93, "softmax": 0.88}
MIN_ROUNDS = 3
REPLY_TIMEOUT_S = 60.0

WORKLOADS = {
    # n documents split train/dev/test by `split`; eval, extract and the
    # stream read the `held` split, each once per round.
    "train-crf": dict(mode="crf", n=150, split="0.7,0.3,0", held="dev", train_rounds=True),
    "train-softmax": dict(mode="softmax", n=150, split="0.7,0.3,0", held="dev",
                          train_rounds=True),
    "infer": dict(mode="crf", n=350, split="0.3,0.1,0.6", held="test", train_rounds=False),
}

END_TO_END = {
    "setup_s": "s", "train_tokens_per_s": "tokens/s", "peak_rss_mb": "MB",
    "eval_docs_per_s": "docs/s", "extract_docs_per_s": "docs/s",
    "extract_ms_p50": "ms",
}

PER_LAYER = (
    [f"nn.gru_sequence.{p}.{q}" for p in ("sent", "doc") for q in ("s", "calls", "steps")]
    + [f"nn.gru_sequence_backward.{p}.{q}" for p in ("sent", "doc") for q in ("s", "steps")]
    + [f"crf.{f}.{q}" for f in ("crf_nll_and_grads", "viterbi") for q in ("s", "calls", "tokens")]
    + ["nn.embed_forward.s", "nn.embed_backward.s",
       "hier_model.loss_document.self_s", "hier_model.loss_document.docs",
       "hier_model.predict_document.self_s", "hier_model.predict_document.docs",
       "train_eval.clip_global.s", "train_eval.Adam.step.s", "train_eval.Adam.step.calls",
       "train_eval.evaluate.s", "train_eval.evaluate.docs",
       "train_eval.save_checkpoint.s", "train_eval.save_checkpoint.bytes",
       "train_eval.load_checkpoint.s", "data.load_corpus.s", "data.encode_corpus.s",
       "cli.cmd_extract.file.self_s", "trace.overhead_s", "trace.untraced_round_s",
       "trace.spans"])


def layer_unit(metric: str) -> str:
    q = metric.rsplit(".", 1)[1]
    return ("count" if q in ("calls", "steps", "tokens", "docs", "spans")
            else "bytes" if q == "bytes" else "s")


# ---------------------------------------------------------------------------
# Running hierex: as a subprocess (end-to-end) or in this process (traced)
# ---------------------------------------------------------------------------

class Finished:
    def __init__(self, rc: int, wall: float, rss_mb: float | None):
        self.rc, self.wall, self.rss_mb = rc, wall, rss_mb


def _reap(proc: subprocess.Popen) -> tuple[int, float]:
    """Wait for one child; return its exit code and peak RSS in MB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


class Subprocesses:
    """Each command is `python -m hierex.cli ...` with PYTHONPATH=./src."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def argv(self, args):
        return [sys.executable, "-m", "hierex.cli", *args]

    def run(self, args: list[str], log: str) -> Finished:
        with open(log, "ab") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(self.argv(args), stdout=out, stderr=out, env=self.env)
            rc, rss = _reap(proc)
            return Finished(rc, time.perf_counter() - start, rss)

    def open_stream(self, args: list[str]):
        proc = subprocess.Popen(self.argv(args), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=self.env)
        fds = (proc.stdin.fileno(), proc.stdout.fileno(), proc.stderr.fileno())

        def finish() -> Finished:
            proc.stdin.close()
            for f in (proc.stdout, proc.stderr):
                f.read()
                f.close()
            rc, rss = _reap(proc)
            return Finished(rc, 0.0, rss)
        return fds, finish


class InProcess:
    """Calls hierex.cli.main directly, so wrapped layers see the calls."""

    def __init__(self, cli):
        self.cli = cli

    def _main(self, args, log) -> int:
        try:
            return self.cli.main(list(args))
        except Exception as e:  # a crash is one failed command, not a dead benchmark
            log.write(f"uncaught {type(e).__name__}: {e}\n")
            return -1

    def run(self, args: list[str], log: str) -> Finished:
        with open(log, "a", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            start = time.perf_counter()
            rc = self._main(args, out)
            return Finished(rc, time.perf_counter() - start, None)

    def open_stream(self, args: list[str]):
        in_r, in_w = os.pipe()
        out_r, out_w = os.pipe()
        err_r, err_w = os.pipe()
        fin = open(in_r, encoding="utf-8")
        fout = open(out_w, "w", encoding="utf-8")
        ferr = open(err_w, "w", encoding="utf-8")
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = fin, fout, ferr
        box = {}

        def serve():
            try:
                box["rc"] = self._main(args, ferr)
            finally:
                for f in (fin, fout, ferr):
                    f.close()

        worker = threading.Thread(target=serve)
        worker.start()

        def finish() -> Finished:
            os.close(in_w)
            for fd in (out_r, err_r):
                while os.read(fd, 65536):
                    pass
                os.close(fd)
            worker.join()
            sys.stdin, sys.stdout, sys.stderr = saved
            return Finished(box.get("rc", -1), 0.0, None)
        return (in_w, out_r, err_r), finish


class _Lines:
    def __init__(self, fd: int):
        self.fd, self.buf, self.eof = fd, b"", False

    def pop(self) -> bytes | None:
        line, sep, rest = self.buf.partition(b"\n")
        if not sep:
            return None
        self.buf = rest
        return line

    def fill(self) -> None:
        data = os.read(self.fd, 65536)
        self.eof = not data
        self.buf += data


def stream(runner, args: list[str], lines: list[bytes]):
    """Closed loop, one client: send a record, wait for its reply line (or
    its error line on stderr), then send the next. Returns the parsed
    replies (None for a record that got none), per-record latencies in
    seconds, and the finished process."""
    (in_fd, out_fd, err_fd), finish = runner.open_stream(args)
    out, err = _Lines(out_fd), _Lines(err_fd)
    replies, lat = [], []
    alive = True
    for line in lines:
        if not alive:
            replies.append(None)
            continue
        start = time.perf_counter()
        view = memoryview(line)
        while view:
            view = view[os.write(in_fd, view):]
        deadline = start + REPLY_TIMEOUT_S
        while True:
            got = out.pop()
            if got is not None:
                lat.append(time.perf_counter() - start)
                replies.append(json.loads(got))
                break
            if err.pop() is not None:
                replies.append(None)
                break
            fds = [r.fd for r in (out, err) if not r.eof]
            ready = select.select(fds, [], [], max(0.0, deadline - time.perf_counter()))[0] \
                if fds else []
            if not ready:
                replies.append(None)
                alive = False
                break
            for r in (out, err):
                if r.fd in ready:
                    r.fill()
    return replies, lat, finish()


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def _size(docs):
    return (len(docs), sum(len(d["sentences"]) for d in docs),
            sum(len(s["tokens"]) for d in docs for s in d["sentences"]))


class Bench:
    def __init__(self, name: str, seed: int, run_dir: str):
        self.name, self.seed = name, seed
        self.cfg = WORKLOADS[name]
        self.mode = self.cfg["mode"]
        self.path = lambda f: os.path.join(run_dir, f)
        self.log = self.path("hierex.log")
        self.model = self.path("model.bin")
        self.ops = {p: [0, 0] for p in ("train", "eval", "extract_file", "extract_stream")}
        self.problems: list[str] = []
        self.samples = {k: [] for k in ("train_tokens_per_s", "eval_docs_per_s",
                                        "extract_docs_per_s", "extract_ms_p50", "rss_mb")}
        self.self_tested = False
        self.train_report: dict | None = None

    def fail(self, problems: list[str]) -> None:
        self.problems.extend(problems)

    def train_args(self, model: str):
        return ["train", "--train", self.path("c/train.jsonl"), "--dev", self.path("c/dev.jsonl"),
                "--out-model", model, "--set", f"tagger_mode={self.mode}", *TRAIN_FLAGS]

    def setup(self) -> None:
        sub = Subprocesses()
        r = sub.run(["gen-corpus", "--out", self.path("c"), "--n", str(self.cfg["n"]),
                     "--seed", str(self.seed), "--split", self.cfg["split"]], self.log)
        if r.rc != 0:
            raise SystemExit(f"set-up: hierex gen-corpus exited {r.rc} (see {self.log})")
        self.train_docs = checks.read_jsonl(self.path("c/train.jsonl"))
        self.dev_docs = checks.read_jsonl(self.path("c/dev.jsonl"))
        self.held = checks.read_jsonl(self.path(f"c/{self.cfg['held']}.jsonl"))
        self.held_path = self.path(f"c/{self.cfg['held']}.jsonl")
        # Extract input carries tokens only, never the gold tags or class.
        self.held_ids = [d["id"] for d in self.held]
        self.stream_lines = [(json.dumps({"id": d["id"], "sentences": [
            {"tokens": s["tokens"]} for s in d["sentences"]]}) + "\n").encode()
            for d in self.held]
        with open(self.path("extract_in.jsonl"), "wb") as f:
            f.writelines(self.stream_lines)
        if not self.cfg["train_rounds"]:
            # Two trainings: the best of two is a steadier train_tokens_per_s,
            # and the two checkpoints must be byte-identical.
            self.setup_train_tps = [self.train(sub, self.path("first.bin"), setup=True),
                                    self.train(sub, self.model, setup=True)]
            if None in self.setup_train_tps:
                raise SystemExit(f"set-up: hierex train failed (see {self.log})")
            with open(self.path("first.bin"), "rb") as f1, open(self.model, "rb") as f2:
                if f1.read() != f2.read():
                    self.fail(["two trainings with the same seed wrote different checkpoints"])

    # -- phases -------------------------------------------------------------

    def train(self, runner, model: str, setup=False) -> float | None:
        n_docs, _, n_tok = _size(self.train_docs)
        r = runner.run(self.train_args(model), self.log)
        if not setup:
            self.ops["train"][0] += n_docs * EPOCHS
            self.samples["rss_mb"].append(r.rss_mb)
        if r.rc != 0:
            self.ops["train"][1] += 0 if setup else n_docs * EPOCHS
            self.fail([f"hierex train exited {r.rc}"])
            return None
        self.fail(checks.check_history(checks.read_jsonl(model + ".history.jsonl"), EPOCHS))
        with open(model + ".report.json", encoding="utf-8") as f:
            self.train_report = json.load(f)
        return n_tok * EPOCHS / r.wall

    def round(self, runner) -> float:
        """One round of every phase; returns its wall time."""
        start = time.perf_counter()
        if self.cfg["train_rounds"]:
            self.train_report = None
            tps = self.train(runner, self.model)
            if tps is not None:
                self.samples["train_tokens_per_s"].append(tps)
        n_held = len(self.held)

        rep_path = self.path("eval.json")
        r = runner.run(["eval", "--model", self.model, "--data", self.held_path,
                        "--report", rep_path], self.log)
        self.ops["eval"][0] += n_held
        self.samples["rss_mb"].append(r.rss_mb)
        eval_report = None
        if r.rc == 0:
            self.samples["eval_docs_per_s"].append(n_held / r.wall)
            with open(rep_path, encoding="utf-8") as f:
                eval_report = json.load(f)
        else:
            self.ops["eval"][1] += n_held
            self.fail([f"hierex eval exited {r.rc}"])

        out_path = self.path("extract_out.jsonl")
        if os.path.exists(out_path):
            os.remove(out_path)
        r = runner.run(["extract", "--model", self.model, "--pretokenized",
                        "--input", self.path("extract_in.jsonl"), "--out", out_path], self.log)
        self.samples["rss_mb"].append(r.rss_mb)
        records = checks.read_jsonl(out_path) if os.path.exists(out_path) else []
        self.ops["extract_file"][0] += n_held
        self.ops["extract_file"][1] += n_held - len(records)
        if r.rc == 0 and len(records) == n_held:
            self.samples["extract_docs_per_s"].append(n_held / r.wall)
        else:
            self.fail([f"hierex extract (file) exited {r.rc} with {len(records)} of "
                       f"{n_held} records"])

        replies, lat, fin = stream(runner, ["extract", "--model", self.model, "--pretokenized",
                                            "--input", "-"], self.stream_lines)
        self.samples["rss_mb"].append(fin.rss_mb)
        if lat:
            self.samples["extract_ms_p50"].append(statistics.median(lat) * 1000.0)
        self.ops["extract_stream"][0] += len(replies)
        self.ops["extract_stream"][1] += sum(rep is None for rep in replies)
        if fin.rc != 0:
            self.fail([f"hierex extract (stream) exited {fin.rc}"])
        wall = time.perf_counter() - start

        self.check(records, eval_report, replies)
        return wall

    def check(self, records, eval_report, replies) -> None:
        if len(records) == len(self.held):
            f1, _ = checks.score(records, self.held)
            if not f1 >= F1_BOUND[self.mode]:
                self.fail([f"held-out span-F1 {f1:.4f} below the bound {F1_BOUND[self.mode]}"])
            if eval_report is not None:
                self.fail(checks.check_scores_agree(records, self.held, eval_report,
                                                    "hierex eval report"))
            if self.cfg["train_rounds"] and self.train_report is not None:
                self.fail(checks.check_scores_agree(records, self.held, self.train_report,
                                                    "hierex train report.json"))
        self.fail(checks.check_entities(records, self.held))
        self.fail(checks.check_replies(self.held_ids, replies))
        self.fail(checks.check_stream_matches_file(replies, records))
        if not self.self_tested and eval_report is not None and len(records) == len(self.held):
            self.self_tested = True
            missed = checks.self_test(records, self.held, eval_report, self.held_ids, replies)
            self.fail([f"self-test: no check caught a {m}" for m in missed])

    # -- traced counts ------------------------------------------------------

    def expected_counts(self) -> dict[str, int]:
        """Per round, from the corpus files: what each layer must have done."""
        t_docs, t_sen, t_tok = _size(self.train_docs)
        d_docs, d_sen, d_tok = _size(self.dev_docs)
        h_docs, h_sen, h_tok = _size(self.held)
        e = EPOCHS if self.cfg["train_rounds"] else 0
        dev_evals = e + 1 if e else 0  # one per epoch, plus train's final report
        # Documents passed forward that are decoded, not trained on: the dev
        # evals inside train, then eval, extract from a file and the stream.
        dec_docs = dev_evals * d_docs + 3 * h_docs
        dec_sen = dev_evals * d_sen + 3 * h_sen
        dec_tok = dev_evals * d_tok + 3 * h_tok
        crf = self.mode == "crf"
        return {
            "nn.gru_sequence.sent.steps": 2 * (e * t_tok + dec_tok),
            "nn.gru_sequence.sent.calls": 2 * (e * t_sen + dec_sen),
            "nn.gru_sequence.doc.steps": 2 * (e * t_sen + dec_sen),
            "nn.gru_sequence.doc.calls": 2 * (e * t_docs + dec_docs),
            "nn.gru_sequence_backward.sent.steps": 2 * e * t_tok,
            "nn.gru_sequence_backward.doc.steps": 2 * e * t_sen,
            "crf.crf_nll_and_grads.tokens": e * t_tok if crf else 0,
            "crf.crf_nll_and_grads.calls": e * t_sen if crf else 0,
            "crf.viterbi.tokens": dec_tok if crf else 0,
            "crf.viterbi.calls": dec_sen if crf else 0,
            "train_eval.Adam.step.calls": math.ceil(t_docs / BATCH_DOCS) * e,
            "train_eval.evaluate.docs": dev_evals * d_docs + h_docs,
            "hier_model.loss_document.docs": e * t_docs,
            "hier_model.predict_document.docs": dec_docs,
        }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def fingerprint() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = {ln.split()[-1] for ln in f if "blas" in ln.lower() and ".so" in ln}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine()}


def end_to_end(b: Bench, seconds: float, setup_s: float) -> dict:
    """Whole rounds until `seconds` have passed (at least MIN_ROUNDS). Each
    metric is the best round: the host's speed drifts between states about
    1.6x apart, and hierex's work is deterministic, so the fastest round is
    the steadiest measure of the program (bench/README.md)."""
    runner = Subprocesses()
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        b.round(runner)
        rounds += 1
    s = dict(b.samples)
    if not b.cfg["train_rounds"]:
        s["train_tokens_per_s"] = b.setup_train_tps
    print("samples " + json.dumps({k: [round(x, 3) for x in v] for k, v in s.items()}))
    values = {"setup_s": setup_s, "peak_rss_mb": max(s["rss_mb"]),
              "extract_ms_p50": min(s["extract_ms_p50"] or [math.nan])}
    for k in ("train_tokens_per_s", "eval_docs_per_s", "extract_docs_per_s"):
        values[k] = max(s[k] or [math.nan])
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def traced(b: Bench, seconds: float, trace_path: str) -> dict:
    sys.path.insert(0, SRC)
    from hierex import cli, crf, hier_model, nn, train_eval
    hx = {"cli": cli, "crf": crf, "hier_model": hier_model, "nn": nn, "train_eval": train_eval}
    runner = InProcess(cli)
    expected = b.expected_counts()
    rows: list[dict] = []
    untraced: list[float] = []
    traced_s: list[float] = []
    start = time.perf_counter()
    while True:
        untraced.append(b.round(runner))
        with layer_trace.Tracer(hx) as tracer:
            traced_s.append(b.round(runner))
        row = {m: tracer.value(*m.rsplit(".", 1)) for m in PER_LAYER}
        row["trace.spans"] = len(tracer.spans)
        absent = set(tracer.absent)
        for m, want in expected.items():
            if not any(m.startswith(a + ".") for a in absent) and row[m] != want:
                b.fail([f"trace count {m} = {row[m]:g}, expected {want} from the corpus files"])
        rows.append(row)
        if time.perf_counter() - start >= seconds:
            break
    if tracer.absent:
        print("absent layers " + json.dumps(sorted(set(tracer.absent))))
    # The fastest traced round, against the fastest untraced one: the same
    # best-of rule as the end-to-end metrics.
    i = traced_s.index(min(traced_s))
    best = rows[i]
    best["trace.overhead_s"] = traced_s[i] - min(untraced)
    best["trace.untraced_round_s"] = min(untraced)
    metrics = {m: {"value": best[m], "unit": layer_unit(m)} for m in PER_LAYER}
    with open(trace_path, "w", encoding="utf-8") as f:
        json.dump({"workload": b.name, "seed": b.seed, "metrics": metrics,
                   "last_traced_round": tracer.dump()}, f)
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="corpus seed")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "hierex", "cli.py")):
        sys.stderr.write(f"bench: no hierex sources at {SRC}; run from the repository root\n")
        return 2

    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    os.makedirs(run_dir)
    try:
        b = Bench(args.workload, args.seed, run_dir)
        b.setup()
        setup_s = time.perf_counter() - T0
        if args.trace:
            metrics = traced(b, args.seconds, os.path.join(
                WORK, "results", f"trace-{args.workload}-seed{args.seed}.json"))
        else:
            metrics = end_to_end(b, args.seconds, setup_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print("fingerprint " + json.dumps(fingerprint()))
    print("phases " + json.dumps({p: {"attempted": a, "failed": f} for p, (a, f) in b.ops.items()}))
    for p in b.problems[:20]:
        print(f"CHECK FAILED: {p}")
    if len(b.problems) > 20:
        print(f"CHECK FAILED: ... and {len(b.problems) - 20} more")
    attempted = sum(a for a, _ in b.ops.values())
    failed = sum(f for _, f in b.ops.values())
    correct = not b.problems and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
