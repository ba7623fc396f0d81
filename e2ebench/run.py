#!/usr/bin/env python3
"""End-to-end benchmark of the shipped `repro` and `stream-serve` binaries.

    python3 e2ebench/run.py --workload repro-cold|repro-warm|serve-mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root. It builds both binaries and the per-layer
replay program (`e2ebench/layers`) into `$CARGO_TARGET_DIR` (default
`.bench_build`), keeps its scratch files under `.bench_work/`, prints a
readable report and, as its last stdout line, one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. `--trace 0` measures
the end-to-end metrics with all tracing off; `--trace 1` runs the separate
traced pass that yields the per-layer metrics. See e2ebench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import e2e  # noqa: E402

WORKLOADS = ("repro-cold", "repro-warm", "serve-mixed")
JOBS = "2"
# Set-up time is reported as the median of several set-ups per run.
# repro-warm fills a store this many times before it measures:
WARM_FILLS = 3
# The set-ups of repro-cold and serve-mixed take milliseconds, so the host's
# momentary speed decides them; they are repeated this many times before
# every measured repetition, which spreads their samples over the run.
SETUPS_PER_REP = 11
HTTP_TIMEOUT_S = 60
# Design-space queries the traced repro replay solves (the daemon replay
# solves every distinct query of its script).
REPRO_QUERIES = 20


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def say(line):
    print(line, flush=True)


class BenchError(Exception):
    pass


class Bench:
    def __init__(self, args):
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.problems = []
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.target = target if os.path.isabs(target) else os.path.join(ROOT, target)
        self.repro = os.path.join(self.target, "release", "repro")
        self.serve = os.path.join(self.target, "release", "stream-serve")
        self.layers = os.path.join(self.target, "release", "e2e-layers")
        self.work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
        self.counter = 0
        self.children = []
        docs = os.path.join(ROOT, "docs", "repro_output.txt")
        with open(docs, "rb") as f:
            self.expected = f.read()
        self.blocks = e2e.doc_blocks(self.expected.decode())
        self.experiments = list(self.blocks)

    # -------------------------------------------------------------- plumbing

    def path(self, name):
        self.counter += 1
        return os.path.join(self.work, f"{self.counter:03d}-{name}")

    def fresh_dir(self, name):
        d = self.path(name)
        os.makedirs(d)
        return d

    def record(self, problems):
        """Counts one operation, failed when it has any problem."""
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend(problems)

    def spawn(self, argv, out, err):
        p = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        self.children.append(p)
        return p

    def reap(self, p):
        """Waits for `p`; returns (exit code, rusage)."""
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        self.children.remove(p)
        return p.returncode, usage

    def run_timed(self, argv, name):
        """Runs `argv` to completion. Returns wall seconds, CPU seconds, peak
        RSS in MB, exit code, stdout and stderr bytes."""
        out_path, err_path = self.path(name + ".out"), self.path(name + ".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            p = self.spawn(argv, out, err)
            rc, ru = self.reap(p)
            wall = time.perf_counter() - t0
        with open(out_path, "rb") as f:
            stdout = f.read()
        with open(err_path, "rb") as f:
            stderr = f.read()
        return {"wall": wall, "cpu": ru.ru_utime + ru.ru_stime, "rss_mb": ru.ru_maxrss / 1024.0,
                "rc": rc, "stdout": stdout, "stderr": stderr}

    def cleanup(self):
        for p in list(self.children):
            if p.poll() is None:
                p.kill()
            p.wait()
            if p.stderr:
                p.stderr.close()
        self.children.clear()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))  # only if no other run uses it
        except OSError:
            pass

    # ----------------------------------------------------------------- build

    def build(self):
        env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        for argv in (
            ["cargo", "build", "--release", "--offline", "-p", "stream-repro", "-p", "stream-serve"],
            ["cargo", "build", "--release", "--offline", "--manifest-path",
             os.path.join("e2ebench", "layers", "Cargo.toml")],
        ):
            r = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                               stdin=subprocess.DEVNULL)
            if r.returncode != 0:
                raise BenchError(f"`{' '.join(argv)}` failed with code {r.returncode}")

    # ----------------------------------------------------------------- repro

    def repro_all(self, cache_dir=None, warm=False, name="repro"):
        argv = [self.repro, "--jobs", JOBS]
        if cache_dir:
            argv += ["--cache-dir", cache_dir]
        r = self.run_timed(argv + ["all"], name)
        problems = e2e.check_repro(r["rc"], r["stdout"], self.expected, r["stderr"], warm)
        self.record([f"{name}: {p}" for p in problems])
        return r

    def repro_startup(self):
        """Spawn-to-exit of `repro list`: what the program costs to start."""
        want = "".join(f"{e}\n" for e in self.experiments).encode()
        r = self.run_timed([self.repro, "list"], "list")
        problems = [] if r["rc"] == 0 and r["stdout"] == want else ["repro list: wrong output"]
        self.record(problems)
        return r["wall"]

    def measure_loop(self, run_once, setup_once=None):
        """Calls `run_once` until the next call would end after --seconds
        (at least once), each time after SETUPS_PER_REP calls of
        `setup_once` when given. Returns the results of `run_once` and the
        list of `setup_once`'s results."""
        start, results, setups, durations = time.perf_counter(), [], [], []
        while True:
            if setup_once:
                setups += [setup_once() for _ in range(SETUPS_PER_REP)]
            t = time.perf_counter()
            results.append(run_once())
            durations.append(time.perf_counter() - t)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(durations) > self.args.seconds:
                return results, setups

    def repro_cold(self):
        runs, setup = self.measure_loop(self.repro_all, self.repro_startup)
        return self.repro_metrics(runs, setup, "spawn to exit of `repro list`")

    def repro_warm(self):
        fills = []
        for _ in range(WARM_FILLS):
            d = self.fresh_dir("cache")
            fills.append((self.repro_all(cache_dir=d, name="fill")["wall"], d))
        cache = fills[0][1]
        runs, _ = self.measure_loop(lambda: self.repro_all(cache_dir=cache, warm=True))
        return self.repro_metrics(runs, [w for w, _ in fills],
                                  "cold `repro --cache-dir` runs that fill the store")

    def repro_metrics(self, runs, setups, setup_what):
        n, setup_s = len(runs), statistics.median(setups)
        m = {
            "wall_s": statistics.median([r["wall"] for r in runs]),
            "cpu_s": statistics.median([r["cpu"] for r in runs]),
            "peak_rss_mb": statistics.median([r["rss_mb"] for r in runs]),
            "setup_s": setup_s,
        }
        say(f"wall_s {m['wall_s']:.4f} s  (spawn to exit of `repro --jobs 2 all`, median of {n} runs)")
        say(f"cpu_s {m['cpu_s']:.4f} s  (user+sys of that process, median of {n}; "
            f"cpu/wall {m['cpu_s'] / m['wall_s']:.2f} on 2 workers)")
        say(f"peak_rss_mb {m['peak_rss_mb']:.1f} MB  (median of {n} peaks)")
        say(f"setup_s {setup_s:.4f} s  ({setup_what}, median of {len(setups)})")
        return m

    # ----------------------------------------------------------------- serve

    def start_daemon(self, cache_dir):
        """Starts `stream-serve` on a free port; returns (process, port,
        seconds from spawn until /health answered 200)."""
        t0 = time.perf_counter()
        p = self.spawn([self.serve, "--addr", "127.0.0.1:0", "--jobs", JOBS,
                        "--cache-dir", cache_dir], subprocess.DEVNULL, subprocess.PIPE)
        # Blocking line reads: the daemon prints this line once it listens,
        # and closes stderr if it exits first.
        port = None
        for line in p.stderr:
            if b"listening on http://" in line:
                port = int(line.rsplit(b":", 1)[1])
                break
        if port is None:
            raise BenchError("stream-serve did not start")
        while True:
            status, _, _ = http(port, "GET", "/health", "")
            if status == 200:
                return p, port, time.perf_counter() - t0
            if p.poll() is not None or time.perf_counter() - t0 > 30:
                raise BenchError("stream-serve never answered /health")

    def stop_daemon(self, p, port):
        status, _, _ = http(port, "POST", "/v1/shutdown", "")
        if status != 200:
            p.kill()
        rc, ru = self.reap(p)
        p.stderr.close()
        ok = status == 200 and rc == 0
        self.record([] if ok else [f"stream-serve shutdown: status {status}, exit {rc}"])
        return ru

    def serve_pass(self, script, spans=False):
        """One pass of the script against a fresh daemon and cache dir.
        Returns per-request results, the pass wall time, daemon rusage and,
        when `spans`, the clients' span records and the final /v1/stats."""
        p, port, _ = self.start_daemon(self.fresh_dir("serve-cache"))
        results = [None] * len(script)
        t0 = time.perf_counter_ns()
        span_lists = [[] for _ in range(e2e.CLIENTS)]

        def client(k):
            mine = span_lists[k]
            mine.append(["client", time.perf_counter_ns() - t0, 0, -1])
            for i in range(k, len(script), e2e.CLIENTS):
                req = script[i]
                s = time.perf_counter_ns()
                status, body, secs = http(port, req["method"], req["path"], req["body"])
                e = time.perf_counter_ns()
                results[i] = (status, body, secs)
                if spans:
                    mine.append([f"serve.{req['endpoint']}", s - t0, e - t0, 0])
            mine[0][2] = time.perf_counter_ns() - t0

        threads = [threading.Thread(target=client, args=(k,)) for k in range(e2e.CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = (time.perf_counter_ns() - t0) / 1e9
        stats = None
        if spans:
            status, body, _ = http(port, "GET", "/v1/stats", "")
            stats = json.loads(body) if status == 200 else None
        ru = self.stop_daemon(p, port)
        flat = []
        for lst in span_lists:
            base = len(flat)
            flat.extend([n, s, e, -1 if par < 0 else par + base] for n, s, e, par in lst)
        return {"results": results, "wall": wall, "cpu": ru.ru_utime + ru.ru_stime,
                "rss_mb": ru.ru_maxrss / 1024.0, "spans": flat, "stats": stats}

    def check_passes(self, script, passes):
        """Checks every response of every pass against the docs and the
        library oracle (computed now, after the timed window)."""
        oracle = self.oracle(script)
        for ps in passes:
            for req, (status, body, _) in zip(script, ps["results"]):
                problem = e2e.check_response(req, status, body, self.blocks, oracle)
                self.record([problem] if problem else [])

    def oracle(self, script):
        tunes = sorted({tuple(r["tune"]) for r in script if r["endpoint"] == "tune"})
        queries = sorted({r["body"] for r in script if r["endpoint"] == "query"})
        plan = [f"tune {a} {c} {n}" for a, c, n in tunes] + [query_line(q) for q in queries]
        plan_path = self.path("oracle.plan")
        with open(plan_path, "w") as f:
            f.write("\n".join(plan) + "\n")
        r = self.run_timed([self.layers, "oracle", plan_path], "oracle")
        if r["rc"] != 0:
            raise BenchError(f"oracle failed: {r['stderr'].decode(errors='replace')}")
        answers = {}
        for line in r["stdout"].decode().splitlines():
            a = json.loads(line)
            if a["kind"] == "tune":
                answers[("tune", (a["app"], a["clusters"], a["alus_per_cluster"]))] = a
            elif "infeasible" not in a:
                answers[("query", queries[a["index"]])] = a
        return answers

    def serve_mixed(self, script):
        def setup_once():
            p, port, secs = self.start_daemon(self.fresh_dir("serve-cache"))
            self.stop_daemon(p, port)
            return secs

        passes, setup = self.measure_loop(lambda: self.serve_pass(script), setup_once)
        self.check_passes(script, passes)
        per = []
        for ps in passes:
            hits = [r[2] * 1e3 for req, r in zip(script, ps["results"]) if not req["miss"]]
            misses = [r[2] * 1e3 for req, r in zip(script, ps["results"]) if req["miss"]]
            tail_p, tail_v = e2e.tail(misses)
            per.append({"wall": ps["wall"], "cpu": ps["cpu"], "rss": ps["rss_mb"],
                        "rps": len(script) / ps["wall"],
                        "hit_p50": e2e.percentile(hits, 50), "hit_p99": e2e.percentile(hits, 99),
                        "miss_p50": e2e.percentile(misses, 50), "miss_tail": tail_v,
                        "tail_p": tail_p, "hits": len(hits), "misses": len(misses),
                        "hit_share": e2e.hit_time_frac(script, [r[2] for r in ps["results"]])})
        n = len(per)
        med = lambda k: statistics.median([x[k] for x in per])  # noqa: E731
        m = {"wall_s": med("wall"), "cpu_s": med("cpu"), "peak_rss_mb": med("rss"),
             "setup_s": statistics.median(setup)}
        h, ms = per[0]["hits"], per[0]["misses"]
        beyond99 = h - math.ceil(0.99 * h)
        say(f"wall_s {m['wall_s']:.4f} s  (first request to last reply of one script pass, median of {n} passes)")
        say(f"cpu_s {m['cpu_s']:.4f} s  (user+sys of the daemon per pass, median of {n})")
        say(f"peak_rss_mb {m['peak_rss_mb']:.1f} MB  (daemon peak, median of {n})")
        say(f"setup_s {m['setup_s']:.4f} s  (spawn until /health answers 200, median of {len(setup)})")
        say(f"req_per_s {med('rps'):.1f} 1/s  (closed loop, 2 clients, median of {n} passes)")
        say(f"hit_p50_ms {med('hit_p50'):.4f} ms  (p50 of {h} hits per pass, median of {n})")
        say(f"hit_p99_ms {med('hit_p99'):.4f} ms  (p99 of {h} hits per pass, {beyond99} beyond, median of {n})")
        say(f"miss_p50_ms {med('miss_p50'):.2f} ms  (p50 of {ms} misses per pass, median of {n})")
        say(f"miss_tail_ms {med('miss_tail'):.2f} ms  (p{per[0]['tail_p']:.1f} of {ms} misses per pass, "
            f"10 beyond, median of {n})")
        say(f"hit_time_frac {med('hit_share'):.4f} ratio  (hit latency / all request latency summed over "
            f"both clients, median of {n}; the rest is the {ms} misses)")
        return m

    # ---------------------------------------------------------------- traced

    def replay(self, plan_lines, spans):
        plan_path, render_path = self.path("replay.plan"), self.path("replay.render")
        with open(plan_path, "w") as f:
            f.write("\n".join(plan_lines + [f"render {render_path}"]) + "\n")
        r = self.run_timed([self.layers, "replay", plan_path, "--spans", "on" if spans else "off"],
                           "replay")
        if r["rc"] != 0:
            raise BenchError(f"layer replay failed: {r['stderr'].decode(errors='replace')}")
        out = json.loads(r["stdout"].decode().strip().splitlines()[-1])
        with open(render_path, "rb") as f:
            rendered = f.read()
        self.record([f"replayed experiments: {p}" for p in e2e.check_repro(0, rendered, self.expected)])
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.problems.extend(out["errors"])
        return out

    def traced(self, script):
        """The traced pass: the same work through each crate's public entry
        points under benchmark-side spans, once untraced and once traced."""
        w = self.args.workload
        base = [f"exp {e}" for e in self.experiments]
        queries = sorted({r["body"] for r in script if r["endpoint"] == "query"})
        if w == "serve-mixed":
            keys = sorted({tuple(r["tune"]) for r in script if r["endpoint"] == "tune"})
            cells = [f"cell {a} {c} {n}" for a, c, n in keys]
            tunes = [f"tune {a} {c} {n}" for a, c, n in keys]
        else:
            queries = queries[:REPRO_QUERIES]
            cells = [f"cell {a} {c} {n}" for a in e2e.APPS for c, n in e2e.FIG15_SHAPES]
            tunes = [f"tune {a} {c} {n}" for a in e2e.APPS for c, n in e2e.REPRO_TUNE_SHAPES]
        body = cells + tunes + [query_line(q) for q in queries]
        serve = None
        if w == "serve-mixed":
            serve = self.serve_pass(script, spans=True)
            self.check_passes(script, [serve])
        if w == "repro-warm":
            cache = self.fresh_dir("cache")
            self.repro_all(cache_dir=cache, name="fill")

        def store():
            if w == "repro-warm":
                return f"store warm {cache}"
            return f"store cold {self.fresh_dir('replay-store')}"

        off = self.replay(base + [store()] + body, spans=False)
        on = self.replay(base + [store()] + body, spans=True)
        metrics = layer_metrics(on, self.experiments)
        spans = [tuple(s) for s in on["spans"]]
        if serve:
            metrics.update(serve_metrics(script, serve))
            base_idx = len(spans)
            spans += [(n, s, e, p if p < 0 else p + base_idx) for n, s, e, p in serve["spans"]]
        else:
            metrics.update(serve_metrics(script, None))
        metrics["trace.overhead_ratio"] = on["wall_s"] / off["wall_s"]
        metrics["trace.unattributed_frac"] = e2e.unattributed_frac(spans)
        self.check_model(on, "serve" if w == "serve-mixed" else "repro")
        return metrics

    def check_model(self, out, key):
        with open(os.path.join(HERE, "baseline.json")) as f:
            want = json.load(f)["model_anchors"][key]
        got = model_stats(out)
        say("model " + json.dumps(got, sort_keys=True))
        self.record([] if got == want else [f"model statistics differ from model_anchors.{key} in e2ebench/baseline.json"])


def model_stats(out):
    c = out["counts"]
    return {"sim.cycles_sum": c.get("sim.cycles_sum", 0), "sched.ii_sum": c.get("sched.ii_sum", 0),
            "tune.tuned_cycles_sum": c.get("tune.tuned_cycles_sum", 0),
            "fig15_err_pct": out["fig15_err_pct"]}


def query_line(body):
    q = json.loads(body)
    cs = ",".join(map(str, q["clusters"])) if "clusters" in q else "-"
    ns = ",".join(map(str, q["alus_per_cluster"])) if "alus_per_cluster" in q else "-"
    if q.get("constraints"):
        c = q["constraints"][0]
        return f"query {q['minimize']} {cs} {ns} {c['metric']} {c['max']!r}"
    return f"query {q['minimize']} {cs} {ns} - -"


def layer_metrics(out, experiments):
    """Per-layer metrics of one traced replay (see README.md)."""
    c = out["counts"]
    tot = e2e.span_totals([tuple(s) for s in out["spans"]])
    t = lambda name: tot.get(name, (0, 0.0, 0.0))[1]  # noqa: E731
    g = lambda name: c.get(name, 0)  # noqa: E731
    hits, misses = g("grid.cache_hits"), g("grid.cache_misses")
    pruned, cand = g("tune.pruned"), g("tune.candidates")
    busy = g("grid.engine_busy_us") / 1e6
    m = {
        "sched.compiles": g("sched.compiles"),
        "sched.compile_s": t("sched.compile"),
        "sched.compile_max_ms": tot.get("sched.compile", (0, 0.0, 0.0))[2] * 1e3,
        "sched.errors": g("sched.errors"),
        "sched.ii_sum": g("sched.ii_sum"),
        "tune.searches": g("tune.searches"),
        "tune.search_s": t("tune.search"),
        "tune.candidates": cand,
        "tune.pruned": pruned,
        "tune.pruned_frac": pruned / (pruned + cand) if pruned + cand else 0.0,
        "tune.sched_compiles": g("tune.sched_compiles"),
        "tune.rehydrated": g("tune.rehydrated"),
        "tune.rehydrate_s": t("tune.rehydrate"),
        "tune.tuned_cycles_sum": g("tune.tuned_cycles_sum"),
        "grid.cache_hits": hits,
        "grid.cache_misses": misses,
        "grid.hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "grid.engine_busy_s": busy,
        "grid.engine_util": busy / (out["phase_experiments_s"] * g("grid.workers")),
        "store.writes": g("store.writes"),
        "store.write_s": t("store.write"),
        "store.reads": g("store.reads"),
        "store.read_s": t("store.read"),
        "store.read_misses": g("store.read_misses"),
        "store.bytes": g("store.bytes"),
        "apps.programs": g("apps.programs"),
        "apps.program_s": t("apps.program"),
        "apps.instrs": g("apps.instrs"),
        "apps.ns_per_instr": t("apps.program") * 1e9 / max(1, g("apps.instrs")),
        "apps.drop_s": t("apps.drop"),
        "sim.simulations": g("sim.simulations"),
        "sim.simulate_s": t("sim.simulate"),
        "sim.instrs_per_s": g("apps.instrs") / t("sim.simulate") if t("sim.simulate") else 0.0,
        "sim.cycles_sum": g("sim.cycles_sum"),
        "ir.tape_compiles": g("ir.tape_compiles"),
        "ir.tape_compile_s": t("ir.tape_compile"),
        "ir.tape_execs": g("ir.tape_execs"),
        "ir.tape_exec_s": t("ir.tape_exec"),
        "ir.native_compiles": g("ir.native_compiles"),
        "vlsi.evals": g("vlsi.evals"),
        "vlsi.eval_s": t("vlsi.solve"),
        "repro.render_s": t("repro.render"),
    }
    for e in experiments:
        m[f"repro.exp.{e}_s"] = t(f"repro.exp.{e}")
    errs = [abs(float(v)) for v in out["fig15_err_pct"].values()]
    m["model.fig15_mean_abs_err_pct"] = sum(errs) / len(errs)
    m["model.fig15_max_abs_err_pct"] = max(errs)
    return m


SERVE_ENDPOINTS = ("health", "run", "sweep", "query", "tune", "stats", "metrics")


def serve_metrics(script, ps):
    """serve.* metrics from one traced pass (zeros for the repro workloads,
    which send no requests)."""
    m = {}
    for ep in SERVE_ENDPOINTS:
        lat = [] if ps is None else [r[2] * 1e3 for req, r in zip(script, ps["results"])
                                     if req["endpoint"] == ep]
        m[f"serve.{ep}.p50_ms"] = statistics.median(lat) if lat else 0.0
        m[f"serve.{ep}.count"] = len(lat)
    planner = (ps or {}).get("stats") or {}
    m["serve.planner_lookups"] = planner.get("planner", {}).get("lookups", 0)
    m["serve.planner_computed"] = planner.get("planner", {}).get("computed", 0)
    m["serve.first_touch_frac"] = (sum(r["miss"] for r in script) / len(script)) if ps else 0.0
    m["serve.hit_time_frac"] = e2e.hit_time_frac(script, [r[2] for r in ps["results"]]) if ps else 0.0
    return m


def http(port, method, path, body):
    """One request on a fresh connection. Returns (status or None on a
    transport error, body bytes, seconds from connect to the last byte)."""
    payload = body.encode()
    msg = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {len(payload)}\r\n"
           f"Connection: close\r\n\r\n").encode() + payload
    t0 = time.perf_counter()
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=HTTP_TIMEOUT_S) as s:
            s.sendall(msg)
            chunks = []
            while True:
                d = s.recv(65536)
                if not d:
                    break
                chunks.append(d)
    except OSError:
        return None, b"", time.perf_counter() - t0
    secs = time.perf_counter() - t0
    head, _, rest = b"".join(chunks).partition(b"\r\n\r\n")
    try:
        status = int(head.split(b" ", 2)[1])
    except (IndexError, ValueError):
        return None, b"", secs
    return status, rest, secs


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run still stops its children (see Bench.cleanup).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    for need in ("Cargo.toml", "crates", os.path.join("docs", "repro_output.txt")):
        if not os.path.exists(os.path.join(ROOT, need)):
            log(f"{need} is missing: run from a full checkout of the repository")
            return 2
    bench = Bench(args)
    try:
        bench.build()
        os.makedirs(bench.work)
        script = e2e.make_script(args.seed, bench.experiments)
        counts = {ep: sum(r["endpoint"] == ep for r in script) for ep in SERVE_ENDPOINTS}
        misses = sum(r["miss"] for r in script)
        say(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        if args.workload == "serve-mixed":
            say(f"# script {e2e.script_digest(script)}: {len(script)} requests, {misses} misses, "
                f"serve.first_touch_frac={misses / len(script):.4f}")
            say("# requests per endpoint: " + " ".join(f"{k}={v}" for k, v in counts.items()))
        if args.trace:
            metrics = bench.traced(script)
            for k in sorted(metrics):
                say(f"{k} {metrics[k]}")
        elif args.workload == "repro-cold":
            metrics = bench.repro_cold()
        elif args.workload == "repro-warm":
            metrics = bench.repro_warm()
        else:
            metrics = bench.serve_mixed(script)
    except BenchError as e:
        log(str(e))
        return 1
    finally:
        bench.cleanup()
    failed = bench.failed
    for p in bench.problems[:20]:
        log(f"FAILED: {p}")
    say(f"error_frac {failed / max(1, bench.attempted):.6f} ratio  ({failed} failed / {bench.attempted} attempted)")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        catalogue = json.load(f)
    units = {m["name"]: m["unit"] for m in catalogue["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        log(f"metrics not produced: {missing}")
        return 1
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
