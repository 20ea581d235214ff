#!/usr/bin/env python3
"""End-to-end benchmark of the cadapt CLI, with a layer-attributed traced run.

    python3 perfbench/run.py --workload smoothed --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run builds `cadapt` and the tracer
`perfbench_trace` out of tree in Release (perfbench/tracer/CMakeLists.txt)
under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later
runs rebuild incrementally. Every input is generated from --seed; every report is
checked against an independent path; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 prints the end-to-end metrics, measured on the `cadapt` binary.
--trace 1 prints the per-layer metrics of perfbench/README.md, measured by
the tracer next to one untraced run for the overhead.

Workloads (perfbench/README.md says why each one exists):
  smoothed    ratio campaign over Theorem 1's random box streams
  structured  worst-case and constant streams, retired by the bulk path
  programs    sorts and matrix kernels on the cache-adaptive machine
  serve       three tenants, closed loop, against a `cadapt serve` daemon
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One process tree at a time uses at most this many threads: `--jobs 4` and
# `workers = 1`, so trial pools never oversubscribe the 4-core host.
JOBS = 4
CMD_TIMEOUT_S = 60           # a CLI call that runs longer has hung
DAEMON_STOP_TIMEOUT_S = 10   # SIGTERM -> exit bound before SIGKILL
SETUP_SAMPLES = 30           # set-up samples per run, at least (median)
SETUP_PER_ROUND = 5          # set-up samples before each campaign/session
SERVE_TENANTS = 3
SERVE_JOBS_PER_TENANT = 34   # >= 100 jobs per session: p90 has 10+ beyond it
SERVE_MANIFESTS = 6
STRUCTURED_DIGEST = HERE / "structured.sha256"

# Metric names and units: the end-to-end ones print with --trace 0, the
# per-layer ones (perfbench/README.md) with --trace 1.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class BenchError(Exception):
    """The benchmark cannot produce a result (build or environment)."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---- manifests (all generated from the workload seed) ----------------------

def smoothed_manifest(seed):
    # Heavy series first: cells run in index order on 4 workers, so the
    # largest cells start early and the light 4:2:1 cells fill the tail;
    # no single cell sets wall_s.
    return f"""name = bench_smoothed
workload = ratio
algos = 8:4:1 7:4:1 4:2:1
profiles = perturb:4@5 shifted shuffled iid:geometric:6 \
iid:uniform-range:1:64 iid:bimodal:2:1024:0.03
k = 2..6
trials = 64
seed = {seed}
"""


def structured_manifest(seed):
    # Seven algorithms give the bulk path many worst-case cells of similar
    # cost, and 4 trials keep the largest point-mass cell (8:4:1, k = 8)
    # near half the wall: the campaign's total work, not one cell, sets it.
    return f"""name = bench_structured
workload = ratio
algos = 8:4:1 7:4:1 6:4:1 5:4:1 4:4:1 4:2:1 3:2:1
profiles = iid:point:16@8 worst
k = 1..12
trials = 4
seed = {seed}
"""


def programs_manifest(seed):
    return f"""name = bench_programs
workload = sort
sorts = mm:128 funnel merge2 adaptive fw:64
profiles = uniform:4:128 sawtooth:128:8 mworst:2:2:512:2
policies = lru arc
keys = 65536
block = 8
trials = 3
seed = {seed}
trace_replay = 1
workers = 1
"""


def serve_job_manifest(seed, i):
    # 30 small cells: 24 take well under a millisecond, so per-cell
    # bookkeeping (aggregation, one durable commit, one streamed line)
    # weighs on every job, and the six k = 5 cells of a few milliseconds
    # keep the pool busy. With only sub-millisecond cells the jobs queue on
    # the daemon's per-cell commit and their latency swung by a third
    # between runs on a 4-core VM.
    return f"""name = bench_serve_{i}
workload = ratio
algos = 8:4:1 7:4:1 4:2:1
profiles = shuffled iid:geometric:6
k = 1..5
trials = 16
seed = {seed * SERVE_MANIFESTS + i}
"""


# ---- processes ---------------------------------------------------------------

_children = set()


def spawn(cmd, cwd, **kwargs):
    proc = subprocess.Popen([str(c) for c in cmd], cwd=cwd, **kwargs)
    _children.add(proc)
    return proc


def watchdog(proc, timeout=CMD_TIMEOUT_S):
    """Kill proc once `timeout` seconds pass; hand the result to reap()."""
    state = {"hung": False, "exited": False, "lock": threading.Lock()}

    def kill():
        with state["lock"]:
            if not state["exited"]:
                state["hung"] = True
                proc.kill()

    state["timer"] = threading.Timer(timeout, kill)
    state["timer"].daemon = True
    state["timer"].start()
    return state


def reap(proc, watch):
    """Wait for proc. Returns (exit code, rusage, hung)."""
    # Wait without reaping first, so the watchdog can never signal a pid
    # that was already reaped and reused.
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    with watch["lock"]:
        watch["exited"] = True
    watch["timer"].cancel()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    _children.discard(proc)
    return proc.returncode, usage, watch["hung"]


def stop_children():
    for proc in list(_children):
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    _children.clear()


def timed(cmd, cwd, stdout=subprocess.DEVNULL):
    """Run one CLI call; wall time, CPU and peak RSS of that process."""
    t0 = time.perf_counter()
    proc = spawn(cmd, cwd, stdout=stdout, stderr=subprocess.PIPE)
    watch = watchdog(proc)
    with proc.stderr:
        err = proc.stderr.read()
    rc, usage, hung = reap(proc, watch)
    return {
        "wall": time.perf_counter() - t0,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "minflt": usage.ru_minflt,
        "ctx": usage.ru_nvcsw + usage.ru_nivcsw,
        "ok": rc == 0 and not hung,
        "err": err.decode(errors="replace")[-2000:],
    }


def build(bdir):
    tree = bdir / "build"
    logfile = bdir / "build.log"
    bdir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (tree / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", HERE / "tracer", "-B", tree,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tree, "-j", str(JOBS)])
    with open(logfile, "ab") as out:
        for step in steps:
            proc = spawn(step, ROOT, stdout=out, stderr=subprocess.STDOUT)
            rc, _, _ = reap(proc, watchdog(proc, timeout=1800))
            if rc != 0:
                raise BenchError(f"build failed: {' '.join(map(str, step))} "
                                 f"(log: {logfile})")
    return tree / "cadapt_tools" / "cadapt", tree / "perfbench_trace"


def stamp(cli):
    """Machine and build identity stamped on every result (compare.py
    refuses to compare results whose machine or build differ)."""
    version = json.loads(subprocess.run([str(cli), "version", "--json"],
                                        check=True, capture_output=True,
                                        text=True).stdout)
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return {"cores": os.cpu_count(), "build_type": version["build_type"],
            "compiler": version["compiler"], "git": version["git"],
            "source_sha256": digest.hexdigest()}


# ---- reports -------------------------------------------------------------------

def report_lines(path):
    """Report events without timing and provenance fields (wall_ms, wall_ns,
    sweep_env)."""
    events = []
    for line in Path(path).read_text().splitlines():
        event = json.loads(line)
        if event["type"] == "sweep_env":
            continue
        event.pop("wall_ms", None)
        event.pop("wall_ns", None)
        events.append(event)
    return events


def cells_of(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if '"sweep_cell"' in line]


def reference_from(path):
    events = report_lines(path)
    cells = {e["index"]: e for e in events if e["type"] == "sweep_cell"}
    return {"others": [e for e in events if e["type"] != "sweep_cell"],
            "cells": cells,
            "trials": sum(c["trials"] for c in cells.values())}


def check_report(path, reference):
    """(trials attempted, trials failed) of one report. A trial fails when it
    failed, stopped incomplete, or sits in a cell whose content differs from
    the reference cell of the same index; a report whose header or fits
    differ fails all its trials."""
    all_failed = reference["trials"], reference["trials"]
    try:
        events = report_lines(path)
    except (OSError, ValueError):
        return all_failed
    cells = {e["index"]: e for e in events if e["type"] == "sweep_cell"}
    others = [e for e in events if e["type"] != "sweep_cell"]
    if others != reference["others"] or cells.keys() != reference["cells"].keys():
        return all_failed
    failed = 0
    for index, ref in reference["cells"].items():
        cell = cells[index]
        failed += (cell["failed"] + cell["incomplete"] if cell == ref
                   else ref["trials"])
    return reference["trials"], failed


def structured_reference(path):
    """The structured streams (worst-case and point mass) are deterministic,
    so every cell and fit line is independent of the seed; the per-box
    reference is infeasible at k = 12, so their digest is the one recorded
    in perfbench/structured.sha256. Only the header's config_hash moves
    with the seed. A reference that misses the digest fails every
    report."""
    ref = reference_from(path)
    body = "\n".join(json.dumps(e) for e in report_lines(path)
                     if e["type"] != "sweep_report")
    recorded = STRUCTURED_DIGEST.read_text().split()[0]
    if hashlib.sha256(body.encode()).hexdigest() != recorded:
        log("structured: report misses the recorded digest")
        ref["others"] = None
    return ref


# ---- sweep workloads ---------------------------------------------------------------

def write(path, text):
    Path(path).write_text(text)
    return path


def sweep_setup(cli, manifest, tmp, i):
    """Seconds from launch until the first cell would start: `cadapt sweep`
    on an empty shard parses the manifest and expands the plan, then runs
    no cell."""
    run = timed([cli, "sweep", manifest, "--shards", "1000000",
                 "--shard-index", "999999", "--jobs", JOBS,
                 "--out", tmp / f"setup{i}.json"], tmp)
    if not run["ok"]:
        raise BenchError("set-up run failed: " + run["err"])
    return run["wall"]


def make_reference(workload, cli, manifest, tmp):
    ref_path = tmp / "reference.json"
    if workload == "smoothed":
        flags = ["--per-box"]
    elif workload == "programs":
        flags = ["--per-access"]
    else:
        flags = []
    run = timed([cli, "sweep", manifest, "--jobs", JOBS, "--workers", 1,
                 "--out", ref_path] + flags, tmp)
    if not run["ok"]:
        raise BenchError("reference run failed: " + run["err"])
    if workload == "structured":
        return structured_reference(ref_path)
    return reference_from(ref_path)


def campaign(cli, manifest, tmp, i):
    out = tmp / f"report{i}.json"
    run = timed([cli, "sweep", manifest, "--jobs", JOBS, "--workers", 1,
                 "--out", out], tmp)
    run["report"] = out
    return run


def run_sweep_workload(workload, seed, seconds, trace, cli, tracer, tmp):
    text = {"smoothed": smoothed_manifest, "structured": structured_manifest,
            "programs": programs_manifest}[workload](seed)
    manifest = write(tmp / f"{workload}.manifest", text)
    reference = make_reference(workload, cli, manifest, tmp)
    attempted = failed = 0

    def checked(run):
        nonlocal attempted, failed
        a, f = check_report(run["report"], reference) if run["ok"] else (
            reference["trials"], reference["trials"])
        attempted += a
        failed += f

    if not trace:
        # Set-up takes milliseconds and the host's speed drifts over
        # seconds, so set-up samples are spread over the run, a few before
        # each campaign, and their median sees the host the campaigns saw.
        setup, runs = [], []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(runs) < 3:
            for _ in range(SETUP_PER_ROUND):
                setup.append(sweep_setup(cli, manifest, tmp, len(setup)))
            run = campaign(cli, manifest, tmp, len(runs))
            checked(run)
            runs.append(run)
        while len(setup) < SETUP_SAMPLES:
            setup.append(sweep_setup(cli, manifest, tmp, len(setup)))
        walls = [r["wall"] for r in runs]
        log(f"{workload}: {len(runs)} campaigns, walls "
            + " ".join(f"{w:.3f}" for w in walls))
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(r["cpu"] for r in runs),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
            # A one-shot sweep streams nothing: its report is the first and
            # only result, so a campaign is one job.
            "job_s_p50": statistics.median(walls),
            "job_s_p90": p90(walls),
            "first_result_s_p50": statistics.median(walls),
        }
        return metrics, attempted, failed

    # Traced: alternate untraced CLI campaigns with tracer campaigns
    # of the same manifest; the traced report must equal the CLI's.
    pairs = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not pairs:
        i = len(pairs)
        untraced = campaign(cli, manifest, tmp, f"u{i}")
        checked(untraced)
        out_dir = tmp / f"traced{i}"
        out_dir.mkdir()
        traced = timed([tracer, "sweep", "--jobs", JOBS, "--out-dir", out_dir,
                        "--metrics", out_dir / "metrics.json",
                        "--spans", out_dir / "spans.jsonl", manifest], tmp)
        traced["report"] = out_dir / "0.json"
        # Both reports are checked against the reference, so a traced
        # report that differs from the CLI's counts as failed.
        checked(traced)
        pairs.append((untraced, traced, out_dir))
    untraced, traced, out_dir = pairs[-1]
    metrics = load_metrics(out_dir / "metrics.json")
    cells = cells_of(traced["report"])
    metrics.update(campaign_metrics(cells, metrics["wall_s"]))
    metrics["obs.trace_overhead_share"] = overhead(pairs)
    metrics["cli.minor_faults"] = untraced["minflt"]
    metrics["cli.ctx_switches"] = untraced["ctx"]
    keep_spans(out_dir / "spans.jsonl", workload, seed)
    return metrics, attempted, failed


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def load_metrics(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return {"wall_s": 0.0}


def campaign_metrics(cells, wall_s):
    walls = [c["wall_ns"] / 1e9 for c in cells]
    return {
        "campaign.critical_cell_s": max(walls, default=0.0),
        "campaign.pool_busy_share":
            sum(walls) / (JOBS * wall_s) if wall_s > 0 else 0.0,
    }


def overhead(pairs):
    untraced = statistics.median(p[0]["wall"] for p in pairs)
    traced = statistics.median(p[1]["wall"] for p in pairs)
    return (traced - untraced) / untraced


def keep_spans(spans, workload, seed):
    dest = results_dir() / f"{workload}-seed{seed}.spans.jsonl"
    if Path(spans).is_file():
        shutil.copyfile(spans, dest)


# ---- serve workload -------------------------------------------------------------------

def hello(sock_path):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.settimeout(5)
        conn.connect(sock_path)
        conn.sendall(b'{"type":"hello"}\n')
        data = b""
        while not data.endswith(b"\n"):
            chunk = conn.recv(4096)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            data += chunk
    return json.loads(data)


def serve_job(cli, sdir, manifest, tenant):
    """Submit one job and fetch its report; None when any step fails."""
    t0 = time.perf_counter()
    submit = spawn([cli, "submit", manifest, "--socket", "sock", "--client",
                    f"tenant{tenant}"], sdir, stdout=subprocess.PIPE,
                   stderr=subprocess.DEVNULL)
    watch = watchdog(submit, timeout=60)
    with submit.stdout:
        accepted = submit.stdout.read()
    rc, submit_usage, hung = reap(submit, watch)
    try:
        job = json.loads(accepted.splitlines()[-1])["job"]
    except (ValueError, KeyError, IndexError):
        return None
    if rc != 0 or hung:
        return None
    results = spawn([cli, "results", "--socket", "sock", "--job", job,
                     "--out", f"{job}.json", "--progress"], sdir,
                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    watch = watchdog(results, timeout=60)
    first = None
    with results.stderr:
        for line in results.stderr:
            if first is None and b'"sweep_cell"' in line:
                first = time.perf_counter()
    rc, results_usage, hung = reap(results, watch)
    done = time.perf_counter()
    if rc != 0 or hung or first is None:
        return None
    return {
        "job_s": done - t0, "first_s": first - t0, "done": done,
        "report": sdir / f"{job}.json",
        "cpu": sum(u.ru_utime + u.ru_stime
                   for u in (submit_usage, results_usage)),
    }


def start_daemon(cmd, sdir):
    """Launch a daemon with a fresh spool and socket in sdir; returns it,
    its socket path, its launch time and the seconds until it answered
    its first hello."""
    sdir.mkdir()
    sock = os.path.relpath(sdir / "sock")
    t0 = time.perf_counter()
    daemon = spawn(cmd, sdir, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    while True:
        try:
            hello(sock)
            return daemon, sock, t0, time.perf_counter() - t0
        except OSError:
            if daemon.poll() is not None or time.perf_counter() - t0 > 30:
                raise BenchError("daemon did not answer hello")
            time.sleep(0.0001)


def stop_daemon(daemon):
    """SIGTERM, then reap within DAEMON_STOP_TIMEOUT_S or kill."""
    daemon.send_signal(signal.SIGTERM)
    return reap(daemon, watchdog(daemon, DAEMON_STOP_TIMEOUT_S))


def serve_setup(cmd, sdir):
    """Seconds until a fresh daemon answers hello, and whether it then
    stopped cleanly on SIGTERM."""
    daemon, _, _, setup = start_daemon(cmd, sdir)
    rc, _, hung = stop_daemon(daemon)
    return setup, rc == 0 and not hung


def serve_session(cmd, cli, sdir, manifests, rtt_samples=0):
    """One daemon from launch to reaped exit, with SERVE_TENANTS closed-loop
    tenants of SERVE_JOBS_PER_TENANT jobs each."""
    daemon, sock, t0, _ = start_daemon(cmd, sdir)
    rtts = []
    for _ in range(rtt_samples):
        t = time.perf_counter()
        hello(sock)
        rtts.append(time.perf_counter() - t)

    jobs = [[] for _ in range(SERVE_TENANTS)]

    def tenant(t):
        # After a failed job the tenant stops and its remaining jobs count
        # as failed: a wedged daemon must not hold the run for 60 s a job.
        ok = True
        for j in range(SERVE_JOBS_PER_TENANT):
            m = (t + j) % len(manifests)
            job = serve_job(cli, sdir, manifests[m], t) if ok else None
            ok = job is not None
            jobs[t].append((m, job))

    threads = [threading.Thread(target=tenant, args=(t,))
               for t in range(SERVE_TENANTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    finished = [j for tenant_jobs in jobs for _, j in tenant_jobs if j]
    last = max((j["done"] for j in finished), default=time.perf_counter())

    rc, usage, hung = stop_daemon(daemon)
    return {
        "wall": last - t0, "jobs": jobs,
        "cpu": usage.ru_utime + usage.ru_stime + sum(j["cpu"] for j in finished),
        "rss_mb": usage.ru_maxrss / 1024.0, "minflt": usage.ru_minflt,
        "ctx": usage.ru_nvcsw + usage.ru_nivcsw,
        "clean_stop": rc == 0 and not hung, "rtt_ms": rtts,
    }


def check_session(session, references):
    """(jobs attempted, jobs failed): a job fails when it could not be
    submitted or fetched, or its report differs from the one-shot sweep of
    its manifest. A daemon that had to be killed fails its whole session."""
    attempted = failed = 0
    for tenant_jobs in session["jobs"]:
        for m, job in tenant_jobs:
            attempted += 1
            if job is None or check_report(job["report"], references[m])[1]:
                failed += 1
    if not session["clean_stop"]:
        failed = attempted
    return attempted, failed


def run_serve_workload(seed, seconds, trace, cli, tracer, tmp):
    manifests = [write(tmp / f"job{i}.manifest", serve_job_manifest(seed, i))
                 for i in range(SERVE_MANIFESTS)]
    references = []
    for i, manifest in enumerate(manifests):
        out = tmp / f"oneshot{i}.json"
        run = timed([cli, "sweep", manifest, "--jobs", JOBS, "--out", out], tmp)
        if not run["ok"]:
            raise BenchError("one-shot sweep failed: " + run["err"])
        references.append(reference_from(out))
    attempted = failed = 0

    def session(cmd, name, **kwargs):
        nonlocal attempted, failed
        result = serve_session(cmd, cli, tmp / name, manifests, **kwargs)
        a, f = check_session(result, references)
        attempted += a
        failed += f
        return result

    serve_cmd = [cli, "serve", "--spool", "spool", "--socket", "sock",
                 "--jobs", JOBS]

    if not trace:
        setup, sessions = [], []

        def sample_setup():
            nonlocal attempted, failed
            seconds_to_hello, clean = serve_setup(
                serve_cmd, tmp / f"setup{len(setup)}")
            setup.append(seconds_to_hello)
            attempted += 1
            failed += 0 if clean else 1
            return clean

        # A daemon that had to be killed ends the run: each further one
        # would cost the full stop timeout again.
        wedged = False
        deadline = time.perf_counter() + seconds
        while not wedged and (time.perf_counter() < deadline
                              or len(sessions) < 2):
            wedged = not all(sample_setup() for _ in range(SETUP_PER_ROUND))
            if not wedged:
                sessions.append(session(serve_cmd, f"s{len(sessions)}"))
                wedged = not sessions[-1]["clean_stop"]
        while not wedged and len(setup) < SETUP_SAMPLES:
            wedged = not sample_setup()
        # Each session is one repetition of the closed-loop experiment; its
        # latency percentiles come from its own 100+ jobs, and the run
        # reports their median over sessions.
        per_session = []
        for s in sessions:
            jobs = [j for t in s["jobs"] for _, j in t if j]
            if len(jobs) < 10:
                continue
            job_s = [j["job_s"] for j in jobs]
            per_session.append({
                "wall_s": s["wall"],
                "job_s_p50": statistics.median(job_s),
                "job_s_p90": p90(job_s),
                "first_result_s_p50": statistics.median(
                    j["first_s"] for j in jobs),
            })
        log("serve: sessions (wall, job p50, job p90) "
            + " ".join(f"({p['wall_s']:.3f}, {p['job_s_p50']:.4f}, "
                       f"{p['job_s_p90']:.4f})" for p in per_session))
        if not per_session:
            return {"setup_s": statistics.median(setup)}, attempted, failed
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(s["wall"] for s in sessions),
            "cpu_s": statistics.median(s["cpu"] for s in sessions),
            "peak_rss_mb": statistics.median(s["rss_mb"] for s in sessions),
            **{name: statistics.median(p[name] for p in per_session)
               for name in ("job_s_p50", "job_s_p90", "first_result_s_p50")},
        }
        return metrics, attempted, failed

    # Traced: one untraced session, then the same load against the daemon
    # hosted by the tracer, then the job manifests through the tracer's
    # one-shot path (its reports must equal the CLI's).
    untraced = session(serve_cmd, "untraced")
    tdir = tmp / "traced"
    traced = session([tracer, "serve", "--spool", "spool", "--socket", "sock",
                      "--jobs", JOBS, "--metrics", "metrics.json",
                      "--spans", "spans.jsonl"], "traced", rtt_samples=20)
    metrics = load_metrics(tdir / "metrics.json")
    cells = [c for t in traced["jobs"] for _, j in t if j
             for c in cells_of(j["report"])]
    metrics.update(campaign_metrics(cells, traced["wall"]))
    metrics["serve.rtt_ms"] = statistics.median(traced["rtt_ms"]) * 1e3
    metrics["obs.trace_overhead_share"] = (
        (traced["wall"] - untraced["wall"]) / untraced["wall"])
    metrics["cli.minor_faults"] = untraced["minflt"]
    metrics["cli.ctx_switches"] = untraced["ctx"]
    keep_spans(tdir / "spans.jsonl", "serve", seed)

    odir = tmp / "oneshot_traced"
    odir.mkdir()
    run = timed([tracer, "sweep", "--jobs", JOBS, "--out-dir", odir,
                 "--metrics", odir / "metrics.json", "--spans",
                 odir / "spans.jsonl"] + manifests, tmp)
    oneshot = load_metrics(odir / "metrics.json")
    for i, ref in enumerate(references):
        attempted += 1
        if not run["ok"] or check_report(odir / f"{i}.json", ref)[1]:
            failed += 1
    for name, value in oneshot.items():
        if name.split(".")[0] in ("profile", "engine", "stats", "report") \
                and not name.endswith("self_share") \
                or name == "campaign.plan_ms":
            metrics[name] = value
    return metrics, attempted, failed


# ---- main ----------------------------------------------------------------------------

def results_dir():
    path = build_root() / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["smoothed", "structured", "programs", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    seed = args.seed % (1 << 32)

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"cadapt sources not found under {ROOT}/src")
    # Everything this run and its children write stays in the checkout,
    # compiler temporaries included.
    tmp_root = build_root() / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp_root)
    cli, tracer = build(build_root())
    env = stamp(cli)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        if args.workload == "serve":
            values, attempted, failed = run_serve_workload(
                seed, args.seconds, args.trace, cli, tracer, tmp)
        else:
            values, attempted, failed = run_sweep_workload(
                args.workload, seed, args.seconds, args.trace, cli, tracer, tmp)
    finally:
        stop_children()
        shutil.rmtree(tmp, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    failed_share = failed / attempted if attempted else 1.0
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"failed_share {failed_share:.6g} share "
          f"({failed} of {attempted} attempted)")
    result = {"correct": attempted > 0 and failed == 0,
              "attempted": max(attempted, 1), "failed": failed,
              "metrics": metrics}
    record = {"stamp": env, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "failed_share": failed_share, "result": result}
    (results_dir() / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # A SIGTERM from outside unwinds through main's finally, which stops
    # every process this run started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except BenchError as error:
        stop_children()
        log(f"perfbench: {error}")
        sys.exit(1)
