"""End-to-end benchmark of the RRRE reproduction.

    python3 perfbench/run.py --workload hot|cold --seed N --seconds 24 --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One run is a user session in four activities, each through
the public entry points with default arguments:

1. set-up: imports, dataset generation, store export, server start;
2. train: ``RRRETrainer(fast_config(epochs=2)).fit`` on yelpchi at scale 3
   (what ``python -m repro export-embeddings`` trains);
3. serve: ``python -m repro serve --store DIR --port 0`` in a child
   process over the store exported from that fit, driven over HTTP by an
   open-loop rate ladder (``loadgen.py``) with a hot or a cold user
   stream;
4. table: one Table III row, ``run_table3`` on yelpchi at scale 0.5,
   run while the server waits between the two halves of the serving.

The workload picks the user stream; the seed picks every generated
input.  ``--seconds`` is the length of the two reported serving steps
(10 and 30 req/s) together.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics (from spans recorded
by ``tracing.py``) with ``--trace 1``.  ``README.md`` lists them.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import urllib.request  # noqa: E402
from pathlib import Path  # noqa: E402

import loadgen  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("hot", "cold")
TRAIN = {"dataset": "yelpchi", "scale": 3.0, "epochs": 2}
TABLE = {"dataset": "yelpchi", "scale": 0.5, "epochs": 3}
SETUP_REPEATS = 3
CHECK_USERS = 50
WARMUP = 1100  # more than the server's 1024 cache entries
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "loadavg": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# The server child
# ---------------------------------------------------------------------------


class Server:
    """``python -m repro serve`` in a child process on an ephemeral port."""

    def __init__(self, store: Path, work: Path, spans: Path = None) -> None:
        args = ["serve", "--store", str(store), "--port", "0"]
        if spans is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(HERE / "serve_child.py"), str(spans), *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.stderr = open(work / "server.stderr", "ab")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self.stderr
        )
        self.port = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Read the announced port, then poll ``/healthz`` until it answers."""
        deadline = time.monotonic() + timeout
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "http://" not in line:
            raise RuntimeError(f"server did not announce its port: {line!r}")
        self.port = int(line.rsplit(":", 1)[1].strip())
        while True:
            try:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{self.port}/healthz", timeout=5
                ) as resp:
                    if resp.status == 200:
                        return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------


class Checker:
    """Validates every served payload against the generated dataset."""

    def __init__(self, dataset, top_k: int) -> None:
        self.item_of_review = dataset.item_ids
        self.num_items = dataset.num_items
        self.top_k = top_k
        self.seen = [set() for _ in range(dataset.num_users)]
        for user, item in zip(dataset.user_ids, dataset.item_ids):
            self.seen[int(user)].add(int(item))
        self.problems = []
        self.version = None  # the version a reload must answer with

    def _citations(self, item: int, explanations) -> str:
        for expl in explanations:
            if int(self.item_of_review[expl["review_index"]]) != item:
                return f"review {expl['review_index']} cited for item {item}"
        return None

    def __call__(self, req):
        """Return an error for a failed request; log wrong answers."""
        body = req.body
        if req.kind == "reload":
            return None if body.get("version") == self.version else f"reload: {body}"
        if req.kind == "explain":
            item = int(req.path.rsplit("=", 1)[1])
            wrong = self._citations(item, body["explanations"])
        else:
            if body.get("degraded"):
                return f"degraded: {body['degraded']}"
            user = body["user_id"]
            items = [rec["item_id"] for rec in body["recommendations"]]
            expected = min(self.top_k, self.num_items - len(self.seen[user]))
            wrong = None
            if len(items) != expected or len(set(items)) != expected:
                wrong = f"user {user}: {len(items)} items, expected {expected}"
            elif self.seen[user] & set(items):
                wrong = f"user {user}: seen items {self.seen[user] & set(items)}"
            for rec in body["recommendations"]:
                wrong = wrong or self._citations(rec["item_id"], rec["explanations"])
        if wrong:
            self.problems.append(f"{req.path}: {wrong}")
        return wrong

    def finite(self, name: str, value: float) -> None:
        if not math.isfinite(value):
            self.problems.append(f"{name} is not finite: {value}")


def check_topk(store_dir: Path, phases, checker: Checker) -> None:
    """Served top-K equals an in-process Retriever over the same store."""
    from repro.serve import EmbeddingStore, Retriever, ServeConfig

    cfg = ServeConfig()
    store = EmbeddingStore.load(store_dir)
    retriever = Retriever(
        store,
        candidate_pool=cfg.candidate_pool,
        explain_pool=cfg.explain_pool,
        min_reliability=cfg.min_reliability,
    )
    served = {}
    for phase in phases:
        for req in phase.requests:
            if req.kind == "recommend" and req.ok and len(served) < CHECK_USERS:
                served.setdefault(req.body["user_id"], req.body["recommendations"])
    for user, recs in served.items():
        (expected,) = retriever.recommend_batch([(user, cfg.top_k, cfg.explain_k)])
        got = [(r["item_id"], [e["review_index"] for e in r["explanations"]]) for r in recs]
        want = [(r["item_id"], [e["review_index"] for e in r["explanations"]]) for r in expected]
        if got != want:
            checker.problems.append(f"user {user}: served {got} != retriever {want}")


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextlib.contextmanager
def client_gc_off():
    """The client's own garbage collector must not pause the client
    threads while they time requests; nothing they allocate forms
    cycles, so reference counting frees it."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def run(args, work: Path, import_s: float, rec) -> dict:
    import repro.core as core
    import repro.data as data
    import repro.eval.experiments as experiments
    import repro.serve as serve

    metrics, servers = {}, []
    seed = args.seed
    traced = rec is not None

    # 1. Set-up -----------------------------------------------------------
    gen_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        dataset = data.load_dataset(TRAIN["dataset"], seed=seed, scale=TRAIN["scale"])
        train, test = data.train_test_split(dataset, seed=seed)
        gen_s.append(time.perf_counter() - start)
    checker = Checker(dataset, serve.ServeConfig().top_k)
    stages, rss = {}, {}

    def stage_end(name: str) -> None:
        stages[name] = time.perf_counter()
        rss[name] = _own_peak_rss_mb()

    stage_end("setup")

    # 2. Train ------------------------------------------------------------
    trainer = core.RRRETrainer(core.fast_config(epochs=TRAIN["epochs"], seed=seed))
    _, fit_s = timed(trainer.fit, dataset, train, test)
    scores = trainer.history[-1].eval_metrics
    checker.finite("test_brmse", scores["brmse"])
    checker.finite("test_auc", scores["auc"])
    stage_end("train")

    # 1. Set-up, continued: two published versions, then the server -------
    store_root = work / "store"
    export_s = [
        timed(serve.export_store, trainer, out_dir=store_root, versioned=True)[1]
        for _ in range(2)
    ]
    del trainer  # the server needs only the store on disk; free the model before the table
    serve.set_current_version(store_root, "v0001")
    start_s = []
    try:
        for i in range(SETUP_REPEATS):
            spans = work / f"serve-spans-{i}.jsonl" if traced else None
            server = Server(store_root, work, spans)
            servers.append(server)
            _, took = timed(server.wait_ready)
            start_s.append(took)
            if i < SETUP_REPEATS - 1:
                server.stop()
        stage_end("server")

        # 3. Serve, the first half of the reported windows ----------------
        # On hot, the reload in the warm-up publishes the second version.
        serve.set_current_version(store_root, "v0002")
        checker.version = "v0002"
        stream = loadgen.UserStream(
            args.workload, dataset.num_users, dataset.num_items, seed
        )
        port, nconn = server.port, os.cpu_count()
        half = loadgen.REPORT_WINDOWS // 2
        with client_gc_off():
            warm = loadgen.warm_up(port, stream, WARMUP, WARMUP // 2, nconn, checker)
            first = loadgen.run_reported(port, stream, nconn, args.seconds, checker, half)
        stage_end("serve1")

        # 4. Table III row, while the server waits: the reported windows
        # before and after it span more of the session, so a slow spell of
        # the host hits a minority of them ------------------------------
        report, table_s = timed(
            experiments.run_table3,
            datasets=(TABLE["dataset"],),
            seeds=(seed,),
            scale=TABLE["scale"],
            epochs=TABLE["epochs"],
        )
        table = report.data["brmse"][TABLE["dataset"]]
        for model, value in table.items():
            checker.finite(f"Table III {model}", value)
        if len(table) != 6:
            checker.problems.append(f"Table III has {len(table)} models, expected 6")
        stage_end("table")

        # 5. Serve, the second half and the rest of the ladder.  Cache
        # entries from the warm-up run out of time-to-live during the table;
        # on hot, a reload back to the first version clears them, and the
        # refill leaves the cache as the warm-up's second half did --------
        serve.set_current_version(store_root, "v0001")
        checker.version = "v0001"
        with client_gc_off():
            warm += loadgen.warm_up(port, stream, WARMUP // 2, 0, nconn, checker)
            second = loadgen.run_reported(
                port, stream, nconn, args.seconds, checker, loadgen.REPORT_WINDOWS - half
            )
            phases = loadgen.run_ladder(
                port, stream, nconn, checker, {r: first[r] + second[r] for r in first}
            )
        server_rss = server.peak_rss_mb()
    finally:
        for s in servers:
            s.stop()
    if args.workload == "cold":
        check_topk(store_root, phases, checker)
    stage_end("serve2")

    marks = [_T0] + list(stages.values())
    print("stage seconds: " + ", ".join(
        f"{name} {end - begin:.1f}" for name, begin, end in zip(stages, marks, marks[1:])
    ))
    print("peak RSS MB after stage: " + ", ".join(f"{k} {v:.0f}" for k, v in rss.items()))

    # End-to-end metrics ---------------------------------------------------
    reported = {p.rate: p for p in phases}
    requests = warm + [r for p in phases for r in p.requests]
    median = statistics.median
    metrics["setup_s"] = import_s + median(gen_s) + median(export_s) + median(start_s)
    metrics["peak_rss_mb"] = rss["serve2"]
    metrics["server_rss_mb"] = server_rss
    metrics["train_reviews_per_s"] = len(train) * TRAIN["epochs"] / fit_s
    metrics["test_brmse"] = scores["brmse"]
    metrics["test_auc"] = scores["auc"]
    metrics["table_s"] = table_s
    metrics["table_brmse_mean"] = statistics.fmean(table.values())
    for rate in loadgen.REPORT_RATES:
        p50, tail = reported[rate].latency()
        metrics[f"lat_p50_ms_r{rate:.0f}"] = p50
        metrics[f"lat_p95_ms_r{rate:.0f}"] = tail
    metrics["max_rate_rps"] = loadgen.max_rate(phases)

    extra = {
        "phases": phases,
        "start_s": median(start_s),
        "spans": work / f"serve-spans-{SETUP_REPEATS - 1}.jsonl",
    }
    return {
        "metrics": metrics,
        "extra": extra,
        "attempted": 1 + len(table) + len(requests),
        "failed": sum(not r.ok for r in requests),
        "problems": checker.problems,
    }


# ---------------------------------------------------------------------------
# Per-layer metrics of the traced run
# ---------------------------------------------------------------------------

LAYER_SPANS = {
    "data.generate_s": "data.generate",
    "data.split_s": "data.split",
    "data.slots_build_s": "data.slots_build",
    "data.batching_s": "data.batching",
    "text.table_build_s": "text.table_build",
    "core.fit_s": "core.fit",
    "core.forward_s": "core.forward",
    "core.encoder_forward_s": "core.encoder_forward",
    "core.entitynet_forward_s": "core.entitynet_forward",
    "core.loss_s": "core.loss",
    "core.predict_s": "core.predict",
    "nn.backward_s": "nn.backward",
    "nn.optim_step_s": "nn.optim_step",
    "nn.clip_s": "nn.clip",
    "nn.conv_forward_s": "nn.conv_forward",
    "nn.gru_forward_s": "nn.gru_forward",
    "plan.compile_s": "plan.compile",
    "baselines.rrre_fit_s": "baselines.rrre_fit",
    "baselines.pmf_fit_s": "baselines.pmf_fit",
    "baselines.deepconn_fit_s": "baselines.deepconn_fit",
    "baselines.narre_fit_s": "baselines.narre_fit",
    "baselines.der_fit_s": "baselines.der_fit",
    "baselines.rrre_minus_fit_s": "baselines.rrre_minus_fit",
    "serve.export_s": "serve.export",
}


def layer_metrics(result: dict, main_spans: list, serve_spans: list) -> dict:
    e2e, extra = result["metrics"], result["extra"]
    totals = tracing.self_times(main_spans)
    m = {name: totals.get(span, 0.0) for name, span in LAYER_SPANS.items()}

    forwards = [s for s in main_spans if s["name"] == "core.forward"]
    encodes = [s for s in main_spans if s["name"] == "core.encoder_forward"]
    rows = sum(s["n"] or 0 for s in encodes)
    m["core.encoder_rows"] = rows
    m["core.dedup_ratio"] = rows / max(1, sum(s["n"] or 0 for s in forwards))
    m["nn.steps"] = sum(1 for s in main_spans if s["name"] == "nn.optim_step")
    # Share of the training fit's wall time inside named layer spans.
    fits = {
        s["id"]: s["end"] - s["start"]
        for s in main_spans if s["name"] == "core.fit" and not s["parent"]
    }
    covered = sum(s["end"] - s["start"] for s in main_spans if s["parent"] in fits)
    m["trace.fit_coverage"] = covered / sum(fits.values())
    m["eval.other_s"] = e2e["table_s"] - sum(
        totals.get(span, 0.0) for name, span in LAYER_SPANS.items()
        if name.startswith("baselines.")
    )

    # Serving, from the server process's spans.
    m["serve.start_s"] = extra["start_s"]
    by_rid = {}
    for s in serve_spans:
        if s["name"] == "serve.service" and s["rid"] is not None:
            by_rid[int(s["rid"])] = 1000.0 * (s["end"] - s["start"])
    service, http, client = [], [], []
    for phase in extra["phases"]:
        if not phase.passed:
            continue
        for req in phase.requests:
            if req.kind == "recommend" and req.ok and req.rid in by_rid:
                service.append(by_rid[req.rid])
                client.append(req.latency_ms)
                http.append(req.latency_ms - by_rid[req.rid])
    failing = [p for p in extra["phases"] if not p.passed][:1]
    at_limit = [
        r.latency_ms - by_rid[r.rid]
        for p in failing for r in p.requests
        if r.kind == "recommend" and r.ok and r.rid in by_rid
    ]
    m["serve.service_ms"] = statistics.median(service) if service else 0.0
    m["serve.http_ms"] = statistics.median(http) if http else 0.0
    m["serve.client_p50_ms"] = statistics.median(client) if client else 0.0
    m["serve.http_ms_at_limit"] = statistics.median(at_limit) if at_limit else 0.0
    gets = [s for s in serve_spans if s["name"] == "serve.cache_get"]
    m["serve.cache_get_ms"] = tracing.p50_ms(serve_spans, "serve.cache_get")
    m["serve.cache_hit_ratio"] = sum(s["n"] or 0 for s in gets) / max(1, len(gets))
    last = extra["phases"][-1].scrape
    m["serve.cache_evictions"] = last["cache"].get("evictions", 0)
    m["serve.batcher_wait_ms"] = tracing.p50_ms(serve_spans, "serve.batcher_wait")
    batches = [s["n"] or 0 for s in serve_spans if s["name"] == "serve.retrieve"]
    m["serve.batch_size_mean"] = statistics.fmean(batches) if batches else 0.0
    for key in ("retrieve", "score", "explain", "reload"):
        m[f"serve.{key}_ms"] = tracing.p50_ms(serve_spans, f"serve.{key}")
    for key in ("scored_pairs", "shed", "degraded"):
        m[f"serve.{key}"] = last[key]

    # The end-to-end metrics as measured under tracing (overhead = the
    # difference from an untraced run on the same seed).
    for key in ("train_reviews_per_s", "table_s", "lat_p50_ms_r10",
                "lat_p50_ms_r30", "max_rate_rps"):
        m[f"trace.{key}"] = e2e[key]
    return m


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so the server child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import repro.core  # noqa: F401
    import repro.data  # noqa: F401
    import repro.eval.experiments  # noqa: F401
    import repro.serve  # noqa: F401

    import_s = time.perf_counter() - _T0
    host = fingerprint()
    print("fingerprint " + json.dumps(host), flush=True)

    rec = None
    if args.trace:
        rec = tracing.Recorder()
        tracing.install_training(rec)

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        result = run(args, work, import_s, rec)
        if args.trace:
            main_spans = tracing.as_dicts(rec.spans)
            serve_spans = tracing.read_spans(result["extra"]["spans"])
            metrics = layer_metrics(result, main_spans, serve_spans)
            trace_out = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            with open(trace_out, "w", encoding="utf-8") as fh:
                fh.write(json.dumps({"fingerprint": host, "args": vars(args)}) + "\n")
                for process, spans in (("bench", main_spans), ("server", serve_spans)):
                    for span in spans:
                        fh.write(json.dumps({"process": process, **span}) + "\n")
            print(f"spans written to {trace_out.relative_to(ROOT)}")
        else:
            metrics = result["metrics"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {}
    for name, value in metrics.items():
        units[name] = _unit(name)
        print(f"{name:28s} {value:14.4f} {units[name]}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    correct = not result["problems"]
    print(f"operations: attempted {result['attempted']}, failed {result['failed']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def _unit(name: str) -> str:
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith(("_rps", "_per_s")):
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("brmse", "auc", "brmse_mean", "_ratio", "_coverage")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
