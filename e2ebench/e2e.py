"""Pure logic of the end-to-end benchmark: the seeded daemon request script,
percentiles, output checks, and span self-time arithmetic.

Nothing here starts a process or touches the network, so `test_e2e.py` can
pin every rule on synthetic inputs.
"""

import hashlib
import json
import math
import random

APPS = ["RENDER", "DEPTH", "CONV", "QRD", "FFT1K", "FFT4K"]

# Paper (C, N) point the daemon tunes in serve-mixed: Figure 15's
# headline shape, which `repro all` never tunes (it tunes C=8 N=5 and
# C=64 N=8). One point keeps a pass short enough to repeat three times in
# a run.
SERVE_TUNE_SHAPES = [(128, 10)]

# The cells the traced repro replay drives through the layers: Figure 15's
# 6 apps x 8 shapes, and the `tune` experiment's 6 apps x 2 shapes.
FIG15_SHAPES = [(8, 5), (16, 5), (32, 5), (64, 5), (128, 5), (128, 2), (128, 10), (128, 14)]
REPRO_TUNE_SHAPES = [(8, 5), (64, 8)]

METRICS = ["area_per_alu", "energy_per_op", "intercluster_delay"]
CLUSTERS = [8, 16, 32, 64, 128]
ALUS = [2, 5, 10, 14]
# Each metric's minimum over the default (C, N) grid. A constraint bound of
# at least 1.2x this keeps every generated query feasible.
GRID_MINIMA = {
    "area_per_alu": 4225105.6,
    "energy_per_op": 4721313.5,
    "intercluster_delay": 1.0,
}

LAYERS = ("sched", "tune", "grid", "store", "apps", "sim", "ir", "vlsi", "repro", "serve")

# Requests per script. At least ~1000 hits are needed for p99 to have 10
# samples beyond it; 5000 gives about 50, and one pass (about 7 s on the
# 2-core reference host, most of it the fixed misses) still repeats three
# times in a 27 s run.
SCRIPT_LEN = 5000
CLIENTS = 2

# The hit mix. The workload has three groups of repeated requests: tune
# repeats, experiment reads (`/v1/run` and small `/v1/sweep`s) and cheap
# reads (`/v1/query` and the `/v1/stats`, `/metrics` and `/health`
# scrapes). There is no recorded daemon traffic to weight them by, so each
# group gets an equal third, split evenly over the endpoints in it. The
# measured share of pass time the hits take is printed with every run
# (`hit_time_frac`).
HIT_MIX = {
    "tune": 1 / 3,
    "run": 1 / 6, "sweep": 1 / 6,
    "query": 1 / 12, "stats": 1 / 12, "metrics": 1 / 12, "health": 1 / 12,
}

# Rough cold cost in ms of each first touch on the 2-core reference host,
# from the traced run's `repro.exp.<id>` spans and cold `/v1/tune` latency
# at C=128 N=10. The script deals misses to the two clients so their totals balance;
# otherwise the seed decides whether the long misses pile up on one client,
# and the pass time follows the seed rather than the program. Unlisted
# experiments take a few ms.
MISS_COST_MS = {
    ("exp", "tune"): 2400, ("exp", "table5"): 630, ("exp", "fig15"): 610,
    ("exp", "scaled_datasets"): 510, ("exp", "multiproc"): 300, ("exp", "headline"): 230,
    ("exp", "fig14"): 200, ("exp", "fig13"): 200, ("exp", "verify"): 100,
    ("exp", "ablation_swp"): 85,
    ("tune", ("RENDER", 128, 10)): 670, ("tune", ("DEPTH", 128, 10)): 700,
    ("tune", ("CONV", 128, 10)): 150, ("tune", ("QRD", 128, 10)): 370,
    ("tune", ("FFT1K", 128, 10)): 45, ("tune", ("FFT4K", 128, 10)): 20,
}

# A first touch of an experiment goes through a sweep as often as an
# experiment hit does: run and sweep weigh the same in HIT_MIX.
SWEEP_FIRST_TOUCH = HIT_MIX["sweep"] / (HIT_MIX["run"] + HIT_MIX["sweep"])


# ---------------------------------------------------------------- statistics

def percentile(values, p):
    """Nearest-rank p-th percentile, refused unless at least 10 samples lie
    beyond it (fewer would make the value one or two outliers)."""
    n = len(values)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * n))
    beyond = n - rank
    if beyond < 10:
        raise ValueError(f"p{p} of {n} samples has only {beyond} beyond it; need 10")
    return sorted(values)[rank - 1]


def tail(values):
    """The highest percentile with at least 10 samples beyond it: the 11th
    largest value. Returns (percentile, value)."""
    n = len(values)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    rank = n - 10
    return 100.0 * rank / n, sorted(values)[rank - 1]


# ------------------------------------------------------------ request script

def _query_body(rng):
    minimize = rng.choice(METRICS)
    if rng.random() < 0.5:
        cmetric = rng.choice([m for m in METRICS if m != minimize])
        bound = float(f"{GRID_MINIMA[cmetric] * rng.uniform(1.2, 3.0):.4g}")
        body = {"minimize": minimize, "constraints": [{"metric": cmetric, "max": bound}]}
    else:
        cs = sorted(rng.sample(CLUSTERS, rng.randint(1, len(CLUSTERS))))
        ns = sorted(rng.sample(ALUS, rng.randint(1, len(ALUS))))
        body = {"minimize": minimize, "clusters": cs, "alus_per_cluster": ns}
    return body


def _zipf_pick(rng, keys):
    """Picks from `keys` with weight 1/(rank+1): the first keys are the
    popular ones."""
    weights = [1.0 / (i + 1) for i in range(len(keys))]
    return rng.choices(keys, weights=weights, k=1)[0]


def make_script(seed, experiments, length=SCRIPT_LEN):
    """The serve-mixed request script for `seed`.

    Every memoized key (each experiment cell and each app x shape tune point)
    is touched first exactly once, at a position fixed by the key's cost, so
    the misses and their timing are the same for every seed. The seed draws
    everything else: the popularity order of the repeats, the query bodies
    and the scrapes. Whether a miss first touches its cell through
    `/v1/run` or a `/v1/sweep` is seeded too. Requests are dealt round-robin (position i goes to client
    i % 2), and a repeat only targets a key its own client touched earlier:
    with closed-loop clients the first touch has then finished, so a hit
    never waits on a computation in flight.
    """
    rng = random.Random(seed)
    tune_keys = [(a, c, n) for a in APPS for (c, n) in SERVE_TUNE_SHAPES]
    fresh = [("exp", e) for e in experiments] + [("tune", k) for k in tune_keys]
    # Longest-first dealing to the less loaded client; each client then
    # touches its share in that order, evenly spaced over its first 80%.
    fresh.sort(key=lambda k: (-MISS_COST_MS.get(k, 1), str(k)))
    shares, load = [[] for _ in range(CLIENTS)], [0] * CLIENTS
    for key in fresh:
        k = load.index(min(load))
        shares[k].append(key)
        load[k] += MISS_COST_MS.get(key, 1)
    first_at = {}
    for k, share in enumerate(shares):
        turns = int(length * 0.8) // CLIENTS
        first_at.update((k + CLIENTS * (i * turns // len(share)), key) for i, key in enumerate(share))
    # Per-client touched keys, in first-touch order; the popularity order is
    # a seeded permutation so the hot keys differ between seeds.
    touched = [{"exp": [], "tune": []} for _ in range(CLIENTS)]
    popular = [{"exp": [], "tune": []} for _ in range(CLIENTS)]
    script = []
    for pos in range(length):
        client = pos % CLIENTS
        mine = touched[client]
        if pos in first_at:
            kind, key = first_at[pos]
            if kind == "tune":
                script.append(_tune_request(key, True))
            elif mine["exp"] and rng.random() < SWEEP_FIRST_TOUCH:
                extra = rng.sample(mine["exp"], min(len(mine["exp"]), rng.randint(1, 2)))
                script.append(_sweep_request([key] + extra, True))
            else:
                script.append(_run_request(key, True))
            mine[kind].append(key)
            hot = popular[client][kind]
            hot.insert(rng.randint(0, len(hot)), key)
            continue
        ep = rng.choices(list(HIT_MIX), weights=list(HIT_MIX.values()))[0]
        # Early in the script a client may have no key of the drawn kind
        # yet; it sends a query instead.
        if ((ep == "tune" and not popular[client]["tune"])
                or (ep == "run" and not popular[client]["exp"])
                or (ep == "sweep" and len(mine["exp"]) < 2)):
            ep = "query"
        if ep == "tune":
            script.append(_tune_request(_zipf_pick(rng, popular[client]["tune"]), False))
        elif ep == "run":
            script.append(_run_request(_zipf_pick(rng, popular[client]["exp"]), False))
        elif ep == "sweep":
            ids = rng.sample(mine["exp"], rng.randint(2, min(3, len(mine["exp"]))))
            script.append(_sweep_request(ids, False))
        elif ep == "query":
            body = json.dumps(_query_body(rng), sort_keys=True)
            script.append({"endpoint": "query", "method": "POST", "path": "/v1/query",
                           "body": body, "miss": False})
        else:
            path = {"stats": "/v1/stats", "metrics": "/metrics", "health": "/health"}[ep]
            script.append({"endpoint": ep, "method": "GET", "path": path,
                           "body": "", "miss": False})
    return script


def _run_request(exp, miss):
    return {"endpoint": "run", "method": "GET", "path": f"/v1/run/{exp}?format=text",
            "body": "", "miss": miss, "exp": exp}


def _sweep_request(exps, miss):
    return {"endpoint": "sweep", "method": "GET",
            "path": "/v1/sweep?experiments=" + ",".join(exps),
            "body": "", "miss": miss, "exps": list(exps)}


def _tune_request(key, miss):
    app, c, n = key
    return {"endpoint": "tune", "method": "GET",
            "path": f"/v1/tune?app={app}&clusters={c}&alus_per_cluster={n}",
            "body": "", "miss": miss, "tune": [app, c, n]}


def script_digest(script):
    """A stable fingerprint of a script, for tests and the printed report."""
    h = hashlib.sha256()
    for req in script:
        h.update(f"{req['method']} {req['path']} {req['body']} {req['miss']}\n".encode())
    return h.hexdigest()[:16]


# ------------------------------------------------------------- output checks

def doc_blocks(text):
    """Splits `repro all` stdout into per-experiment blocks keyed by id."""
    blocks, current, lines = {}, None, []
    for line in text.splitlines(keepends=True):
        if line.startswith("== "):
            if current is not None:
                blocks[current] = "".join(lines)
            current, lines = line[3:].split()[0], []
        if current is not None:
            lines.append(line)
    if current is not None:
        blocks[current] = "".join(lines)
    return blocks


def render_report(report):
    """The text `repro` prints for one report.v1 JSON object, as
    `Report`'s `Display` renders it: columns right-aligned to their widest
    cell in bytes, two spaces after every cell. Then the blank line that
    separates reports."""
    rows = ([report["headers"]] if report["headers"] else []) + report["rows"]
    widths = {}
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths.get(i, 0), len(cell.encode()))
    lines = [f"== {report['id']} — {report['title']} =="]
    lines += ["".join(cell.rjust(widths[i]) + "  " for i, cell in enumerate(row)) for row in rows]
    lines += [f"  note: {note}" for note in report["notes"]]
    return "\n".join(lines) + "\n\n"


def check_repro(returncode, stdout, expected, stderr=b"", warm=False):
    """Problems with one `repro` run: a non-zero exit, stdout that is not
    byte-identical to the expected reproduction output, or (warm) a run
    that compiled or searched."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if stdout != expected:
        problems.append(f"stdout differs from the reproduction output ({len(stdout)} vs {len(expected)} bytes)")
    if warm:
        err = stderr.decode(errors="replace")
        if "# cache: compiles=0 " not in err:
            problems.append("warm run compiled schedules (no `# cache: compiles=0`)")
        if "# tune: searches=0 " not in err:
            problems.append("warm run searched (no `# tune: searches=0`)")
    return problems


def check_response(req, status, body, blocks, oracle):
    """The problem with one daemon response, or None. `blocks` maps
    experiment id to its `repro` text; `oracle` maps tune keys and query
    bodies to the library's answers."""
    if status is None:
        return f"{req['path']}: transport error"
    if not 200 <= status < 300:
        return f"{req['path']}: status {status}"
    ep = req["endpoint"]
    try:
        if ep == "run":
            if body.decode() != blocks[req["exp"]]:
                return f"{req['path']}: text differs from the reproduction output"
        elif ep == "sweep":
            reports = json.loads(body)["reports"]
            ids = [r["id"] for r in reports]
            if ids != req["exps"]:
                return f"{req['path']}: reports {ids}"
            for r in reports:
                if render_report(r) != blocks[r["id"]]:
                    return f"{req['path']}: report {r['id']} differs from the reproduction output"
        elif ep == "tune":
            got = json.loads(body)
            want = oracle[("tune", tuple(req["tune"]))]
            if (got["default_cycles"], got["tuned_cycles"]) != (want["default_cycles"], want["tuned_cycles"]):
                return f"{req['path']}: cycles differ from tune_app"
        elif ep == "query":
            got = json.loads(body)
            want = oracle[("query", req["body"])]
            shape = (got["shape"]["clusters"], got["shape"]["alus_per_cluster"])
            if (shape, got["value"], got["evaluated"], got["feasible"]) != (
                (want["clusters"], want["alus_per_cluster"]),
                want["value"], want["evaluated"], want["feasible"]):
                return f"{req['path']} {req['body']}: answer differs from SpaceQuery::solve"
        elif ep in ("stats", "health"):
            json.loads(body)
        elif ep == "metrics":
            if b"tune_searches" not in body:
                return "/metrics: no tune_searches series"
    except (KeyError, ValueError, UnicodeDecodeError) as e:
        return f"{req['path']}: unreadable response ({e!r})"
    return None


def hit_time_frac(script, latencies):
    """Share of the clients' request time spent on hits: the sum of hit
    latencies over the sum of all latencies of one pass."""
    total = sum(latencies)
    if total <= 0:
        raise ValueError("no request time")
    return sum(t for req, t in zip(script, latencies) if not req["miss"]) / total


# ----------------------------------------------------------- span arithmetic

def layer_of(name):
    head = name.split(".", 1)[0]
    return head if head in LAYERS else None


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    child spans cover. `spans` is a list of (name, start, end, parent) with
    parent an index into the list, or -1 for a root."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        kids = [(max(start, spans[k][1]), min(end, spans[k][2])) for k in children[i]]
        out.append((end - start) - _covered([(s, e) for s, e in kids if e > s]))
    return out


def unattributed_frac(spans):
    """Share of the roots' wall time not covered by any layer span's self
    time: sum over roots of (root duration - layer self time under it),
    over the sum of root durations."""
    selfs = self_times(spans)
    wall = sum(e - s for (_, s, e, p) in spans if p < 0)
    attributed = sum(selfs[i] for i, sp in enumerate(spans) if layer_of(sp[0]))
    if wall <= 0:
        raise ValueError("no root span with a positive duration")
    return (wall - attributed) / wall


def span_totals(spans):
    """Per span name: (count, total self time in seconds, max duration in
    seconds), for span times in ns."""
    selfs = self_times(spans)
    totals = {}
    for (name, start, end, _), st in zip(spans, selfs):
        c, t, m = totals.get(name, (0, 0.0, 0.0))
        totals[name] = (c + 1, t + st / 1e9, max(m, (end - start) / 1e9))
    return totals
