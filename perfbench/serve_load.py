"""The ``serve`` workload: the HTTP daemon under an open-loop schedule.

Set-up builds an artifact store of four small 32-bit releases (``gcd``,
``collatz`` and two generated programs), boots ``python -m repro serve``
in its own process with a process executor of ``WORKERS`` workers, and
warms every worker. The measurement walks a fixed ladder of offered
rates. Its first two rungs are the fixed low and high rates, roughly
30% and 70% of the daemon's capacity at seed 1 on a 2-core host; the
rest climb past capacity. Requests are three ``/v1/embed`` to one
``/v1/recognize``; each recognize sends back a copy minted earlier in
the run.

The schedule is open: request k is due at a fixed time whatever
happened before, and its latency runs from when it was due. At most
``CONNECTIONS`` requests are in flight, one per sender thread.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from tracer import Tracer, now
from workloads import Measurement, Tally, percentile

from repro.bytecode_wm import WatermarkKey
from repro.campaign.generator import generate_program
from repro.pipeline import prepare
from repro.serve.store import ArtifactStore
from repro.workloads.simple import collatz_module, gcd_module

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKERS = 2
CONNECTIONS = 2
MARK_BITS = 32
#: p95 latency (from due time) a ladder rung must meet, in seconds.
LATENCY_LIMIT_S = 0.5
#: A rung has no growing backlog when replies complete at least this
#: share of the offered rate.
KEEP_UP = 0.95
#: (offered requests/s, share of the measuring window) per rung. The
#: first two are the fixed low and high rates (30% and 70% of the 38
#: requests/s two back-to-back clients got at seed 1); the top rung
#: overloads the daemon, so its completion rate is the capacity. The
#: gated figure comes from the low rung, so it gets most of the window.
LADDER = ((11.5, 0.625), (27.0, 0.125), (36.0, 0.0625), (42.0, 0.0625),
          (48.0, 0.0625), (54.0, 0.0625))
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0


def _programs():
    gen = [generate_program(s) for s in (1, 2)]
    return [("gcd", gcd_module(), [25, 10]),
            ("collatz", collatz_module(), [27])] + [
        (g.name, g.module(), list(g.inputs)) for g in gen]


@dataclass
class Daemon:
    proc: subprocess.Popen
    port: int
    digests: List[str]
    names: List[str]
    workdir: str
    log: Any


def _post(port: int, path: str, doc: Dict[str, Any]) -> Tuple[int, Dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("POST", path, json.dumps(doc),
                     {"Content-Type": "application/json"})
        resp = conn.getresponse()
        raw = resp.read()
    finally:
        conn.close()
    try:
        body = json.loads(raw)
    except ValueError:
        body = {}
    return resp.status, body


def setup(seed: int) -> Daemon:
    """Store, daemon boot and worker warm-up."""
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="serve-", dir=OUT_DIR)
    store_dir = os.path.join(workdir, "store")
    store = ArtifactStore(store_dir)
    digests, names = [], []
    for name, module, inputs in _programs():
        names.append(name)
        key = WatermarkKey(b"perfbench-serve-" + name.encode(), inputs)
        digests.append(store.put(prepare(module, key, MARK_BITS),
                                 label=name).digest)
    log = open(os.path.join(workdir, "daemon.log"), "w+")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store", store_dir,
         "--port", "0", "--workers", str(WORKERS), "--executor", "process"],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=log)
    daemon = Daemon(proc, 0, digests, names, workdir, log)
    try:
        daemon.port = _await_port(daemon)
        _warm(daemon)
    except BaseException:
        close(daemon)
        raise
    return daemon


def _await_port(daemon: Daemon) -> int:
    deadline = now() + BOOT_TIMEOUT_S
    while now() < deadline:
        if daemon.proc.poll() is not None:
            break
        daemon.log.seek(0)
        for line in daemon.log:
            if " on http://127.0.0.1:" in line:
                return int(line.split(" on http://127.0.0.1:")[1].split()[0])
        time.sleep(0.05)
    raise RuntimeError("serve daemon did not announce its port")


def _warm(daemon: Daemon) -> None:
    """Make every worker load every artifact once (two parallel embeds)."""
    errors: List[str] = []

    def embed(digest: str, n: int) -> None:
        status, body = _post(daemon.port, "/v1/embed", {
            "artifact": digest, "copy_id": f"warm-{n}", "watermark": n + 1})
        if status != 200:
            errors.append(f"warm-up embed {digest[:12]}: {status} {body}")

    for rnd in range(2):
        threads = [threading.Thread(target=embed, args=(d, 2 * i + rnd),
                                    daemon=True)
                   for i, d in enumerate(daemon.digests) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(REQUEST_TIMEOUT_S)
    if errors:
        raise RuntimeError("; ".join(errors))


def _tree_pids(pid: int) -> List[int]:
    """``pid`` and all its live descendants."""
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        try:
            with open(f"/proc/{p}/task/{p}/children") as fh:
                todo.extend(int(c) for c in fh.read().split())
        except OSError:
            pass
    return out


def _peak_rss_mb(pid: int) -> float:
    """Sum of each process's peak resident set over the daemon tree."""
    total = 0
    for p in _tree_pids(pid):
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            pass
    return total / 1024.0


def close(daemon: Daemon) -> None:
    """Stop the daemon and its workers, wait for all of them, clean up."""
    pids = _tree_pids(daemon.proc.pid)[1:]
    if daemon.proc.poll() is None:
        daemon.proc.send_signal(signal.SIGTERM)
        try:
            daemon.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            daemon.proc.kill()
            daemon.proc.wait()
    deadline = now() + 10
    for pid in pids:
        while os.path.exists(f"/proc/{pid}") and now() < deadline:
            time.sleep(0.05)
        if os.path.exists(f"/proc/{pid}"):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
    daemon.log.close()
    shutil.rmtree(daemon.workdir, ignore_errors=True)


@dataclass
class Sent:
    """One request of the schedule and what became of it."""

    k: int
    due: float
    kind: str = "embed"
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    worker_s: Optional[float] = None
    ok: bool = False
    note: str = ""
    misreport: bool = False
    broken: bool = False

    @property
    def latency(self) -> float:
        return self.done - self.due


def _artifact(k: int, count: int) -> int:
    """Artifact index of request k; every artifact gets every fourth slot."""
    return (k + k // count) % count


@dataclass
class Minted:
    """The latest verified copy of each artifact: digest -> (module, mark)."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    copies: Dict[str, Tuple[str, int]] = field(default_factory=dict)


def _run_rung(daemon: Daemon, rate: float, seconds: float, k0: int,
              seed: int, minted: Minted, tally: Tally,
              tracer: Optional[Tracer]) -> List[Sent]:
    """Offer ``rate`` requests/s for ``seconds`` and wait for all replies."""
    count = max(1, round(rate * seconds))
    start = now() + 0.05
    plan = [Sent(k0 + j, start + j / rate) for j in range(count)]
    lock = threading.Lock()
    cursor = iter(plan)

    def one(req: Sent) -> None:
        # Every fourth request is a recognize; the artifacts rotate so
        # each sees the same share of embeds and recognizes.
        rng = random.Random(seed * 1_000_003 + req.k)
        digest = daemon.digests[_artifact(req.k, len(daemon.digests))]
        with minted.lock:
            copy = minted.copies.get(digest)
        if req.k % 4 == 3 and copy is not None:
            req.kind = "recognize"
            module, mark = copy
            doc = {"artifact": digest, "module": module}
        else:
            mark = rng.getrandbits(MARK_BITS)
            doc = {"artifact": digest, "copy_id": f"k{req.k}",
                   "watermark": mark, "seed": rng.getrandbits(16)}
        pause = req.due - now()
        if pause > 0:
            time.sleep(pause)
        req.sent = now()
        try:
            req.status, body = _post(daemon.port, f"/v1/{req.kind}", doc)
        except (OSError, http.client.HTTPException) as exc:
            req.done = now()
            req.note = f"{req.kind} k={req.k}: {exc!r}"
            return
        req.done = now()
        if tracer:
            tracer.spans.append([f"serve.{req.kind}", req.sent, req.done,
                                 -1, req.k, req.status])
        what = f"serve {req.kind} k={req.k} mark {mark:#x}"
        if req.kind == "embed":
            req.worker_s = body.get("wall_seconds")
            recognized = body.get("recognized")
            if body.get("output_ok") is False:
                req.note, req.broken = f"{what}: output differs", True
            elif recognized is not None and recognized != mark:
                req.note = f"{what}: self-check read {recognized!r}"
                req.misreport = True
            elif req.status == 200 and body.get("verified"):
                req.ok = True
                with minted.lock:
                    minted.copies[digest] = (body["module"], mark)
        else:
            value = body.get("value") if body.get("complete") else None
            if value is not None and value != mark:
                req.note = f"{what}: misreported {value!r}"
                req.misreport = True
            elif req.status == 200 and value == mark:
                req.ok = True
        if not req.ok and not req.note:
            req.note = f"{what}: HTTP {req.status}"

    def sender() -> None:
        while True:
            with lock:
                req = next(cursor, None)
            if req is None:
                return
            try:
                one(req)
            except Exception as exc:  # counted as a failed request
                req.ok = False
                req.done = req.done or now()
                req.note = f"{req.kind} k={req.k}: raised {exc!r}"

    threads = [threading.Thread(target=sender, daemon=True)
               for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for req in plan:
        tally.attempted += 1
        if not req.ok:
            tally.fail(req.note, misreport=req.misreport, broken=req.broken)
    return plan


def _achieved_rate(plan: List[Sent]) -> float:
    """Good replies per second between the first and the last reply."""
    done = sorted(r.done for r in plan if r.ok)
    if len(done) < 2 or done[-1] <= done[0]:
        return 0.0
    return (len(done) - 1) / (done[-1] - done[0])


def _passes(plan: List[Sent], rate: float) -> bool:
    """p95 within the limit (failures miss it) and no growing backlog."""
    lat = sorted(r.latency if r.ok else float("inf") for r in plan)
    p95 = lat[min(len(lat) - 1, int(0.95 * len(lat)))]
    return p95 <= LATENCY_LIMIT_S and _achieved_rate(plan) >= KEEP_UP * rate


def measure(daemon: Daemon, seed: int, seconds: float,
            tracer: Optional[Tracer]) -> Measurement:
    tally = Tally()
    minted = Minted()
    start = now()
    rungs: List[List[Sent]] = []
    max_rps = 0.0
    k = 0
    for rate, share in LADDER:
        plan = _run_rung(daemon, rate, seconds * share, k, seed, minted,
                         tally, tracer)
        k += len(plan)
        rungs.append(plan)
        if _passes(plan, rate):
            max_rps = rate
    elapsed = now() - start
    rss = _peak_rss_mb(daemon.proc.pid)

    # The gated cells are the low-rate requests by (artifact, kind).
    samples: Dict[Any, List[float]] = {}
    for r in rungs[0]:
        name = daemon.names[_artifact(r.k, len(daemon.digests))]
        samples.setdefault((name, r.kind), []).append(r.latency)
    m = Measurement(samples, elapsed, tally)
    everything = [r for plan in rungs for r in plan]
    low = [r.latency for r in rungs[0]]
    high = [r.latency for r in rungs[1]]
    m.named.update({
        "serve_low_p50_s": (percentile(low, 50), "s"),
        "serve_low_p95_s": (percentile(low, 95), "s"),
        "serve_high_p50_s": (percentile(high, 50), "s"),
        "serve_high_p95_s": (percentile(high, 95), "s"),
        "serve_max_rps": (max_rps, "1/s"),
        "serve_capacity_rps": (max(_achieved_rate(p) for p in rungs), "1/s"),
        "serve_low_requests": (len(low), "count"),
        "serve_high_requests": (len(high), "count"),
        "peak_rss_mb": (rss, "MB"),
    })

    embeds = [r for r in everything if r.kind == "embed" and r.status]
    worker = [r for r in embeds if r.worker_s is not None]
    recs = [r for r in everything if r.kind == "recognize" and r.status]
    statuses = Counter(r.status for r in everything)

    def med(values: List[float]) -> float:
        return statistics.median(values) if values else 0.0

    m.layer.update({
        "serve.rtt_s.embed": med([r.done - r.sent for r in embeds]),
        "serve.rtt_s.recognize": med([r.done - r.sent for r in recs]),
        "serve.worker_s": med([r.worker_s for r in worker]),
        "serve.outside_worker_s": med(
            [r.done - r.sent - r.worker_s for r in worker]),
        "serve.gen_late_s": percentile(
            [r.sent - r.due for r in everything if r.sent] or [0.0], 95),
        "serve.status_200": statuses[200],
        "serve.status_422": statuses[422],
        "serve.status_429": statuses[429],
        "serve.status_5xx": sum(n for s, n in statuses.items() if s >= 500),
        "serve.status_error": statuses[0],
    })
    return m
