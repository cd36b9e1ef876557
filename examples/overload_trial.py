#!/usr/bin/env python3
"""Open-loop overload ramp against one `swebd` node: goodput past capacity.

Every request is `GET /cgi-bin/burn?ms=10&cost=1&n=<seq>`: it holds a
worker for 10 ms, and the unique `n` keeps the dynamic cache from answering
it inline, so the work waits in the worker pool, where the admission
controller looks. One round:

1. calibrates capacity closed-loop (`--clients` connections, each sending
   its next request when the last one finishes) against a fresh node of
   the side listed last, the baseline;
2. for each load factor (0.5x, 1x, 2x, 3x capacity) and each side, starts
   a fresh node and offers Poisson arrivals at that rate for `--seconds`,
   a new connection per request.

Latency runs from each request's *scheduled* send time, so a client that
falls behind cannot hide the queueing it is there to measure. Goodput is
the 200s answered within the SLO (1 s) per scheduled second. Each step also
reports the p99 of its 200s, the 503 share and how many 503s lacked
`Retry-After`. The client is one thread multiplexing nonblocking sockets
with epoll; `swebd` runs as its own process.

Sides are given as `name=ARGS`, the extra `swebd` flags of that side, and
alternate which goes first from round to round. The shipped node, one
side, with its default shards (they share the node's one worker pool):

    cargo build --release -p sweb-server --bin swebd
    python3 examples/overload_trial.py --swebd target/release/swebd \\
        --side 'shipped=' --rounds 1

The controller's trial ran against a `swebd` built before `--overload`
went, with `--side 'on=--shards 1 --overload on' --side 'off=--shards 1
--overload off' --rounds 10 --seconds 6 --seed 42` (EXPERIMENTS.md).

The per-step rows go to stdout as CSV, then a per-round markdown table
for 2x and 3x, and how many rounds the first side won on goodput.
"""

import argparse
import random
import selectors
import shutil
import socket
import subprocess
import sys
import tempfile
import time

SLO_S = 1.0
FACTORS = (0.5, 1.0, 2.0, 3.0)


class Req:
    __slots__ = ("sock", "sched", "out", "buf")

    def __init__(self, sock, sched, out):
        self.sock, self.sched, self.out, self.buf = sock, sched, out, b""


class Client:
    """One epoll loop; each request is one fresh connection."""

    def __init__(self, port):
        self.addr = ("127.0.0.1", port)
        self.sel = selectors.DefaultSelector()
        self.seq = 0
        self.results = []  # (sched, latency_s, status, has_retry_after)

    def open(self, sched):
        self.seq += 1
        out = (
            "GET /cgi-bin/burn?ms=10&cost=1&n=%d HTTP/1.0\r\nHost: trial\r\n\r\n" % self.seq
        ).encode()
        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        s.setblocking(False)
        err = s.connect_ex(self.addr)
        if err not in (0, 115):  # EINPROGRESS
            s.close()
            self.results.append((sched, time.monotonic() - sched, "err", False))
            return
        self.sel.register(s, selectors.EVENT_WRITE, Req(s, sched, out))

    def pending(self):
        return len(self.sel.get_map())

    def poll(self, timeout):
        """Advance every socket that is ready; returns finished requests."""
        done = []
        for key, ev in self.sel.select(timeout):
            r = key.data
            try:
                if ev & selectors.EVENT_WRITE:
                    n = r.sock.send(r.out)
                    r.out = r.out[n:]
                    if not r.out:
                        self.sel.modify(r.sock, selectors.EVENT_READ, r)
                    continue
                chunk = r.sock.recv(65536)
                if chunk:
                    r.buf += chunk
                    continue
                done.append(self.finish(r, classify(r.buf)))
            except (ConnectionError, OSError):
                done.append(self.finish(r, ("err", False)))
        return done

    def finish(self, r, outcome):
        self.sel.unregister(r.sock)
        r.sock.close()
        row = (r.sched, time.monotonic() - r.sched, outcome[0], outcome[1])
        self.results.append(row)
        return row

    def abandon(self):
        for key in list(self.sel.get_map().values()):
            self.finish(key.data, ("timeout", False))


def classify(buf):
    head, _, body = buf.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    parts = lines[0].split(b" ")
    if len(parts) < 2:
        return ("err", False)
    status = parts[1].decode()
    retry = any(l.lower().startswith(b"retry-after:") for l in lines[1:])
    if status == "200" and not body.startswith(b"burn: cost=1 ms=10 "):
        return ("badbody", retry)
    return (status, retry)


def start_node(swebd, docroot, port, extra):
    cmd = [swebd, "--nodes", "1", "--docroot", docroot, "--port-base", str(port)] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    for line in proc.stdout:
        if "loadd mesh" in line:
            break
    else:
        raise SystemExit("swebd exited before serving: %s" % " ".join(cmd))
    return proc


def stop_node(proc):
    proc.kill()
    proc.wait()


def calibrate(port, clients, seconds):
    c = Client(port)
    start = time.monotonic()
    for _ in range(clients):
        c.open(time.monotonic())
    ok = 0
    while time.monotonic() - start < seconds:
        for row in c.poll(0.05):
            ok += row[2] == "200"
            c.open(time.monotonic())
    elapsed = time.monotonic() - start
    c.abandon()
    return ok / elapsed


def ramp_step(port, rate, seconds, rng):
    c = Client(port)
    t0 = time.monotonic() + 0.05
    sched, arrivals = t0, []
    while sched < t0 + seconds:
        arrivals.append(sched)
        sched += rng.expovariate(rate)
    i = 0
    while i < len(arrivals):
        now = time.monotonic()
        while i < len(arrivals) and arrivals[i] <= now:
            c.open(arrivals[i])
            i += 1
        nxt = arrivals[i] - time.monotonic() if i < len(arrivals) else 0
        c.poll(max(0.0, min(nxt, 0.01)))
    drain_until = time.monotonic() + 5.0
    while c.pending() and time.monotonic() < drain_until:
        c.poll(0.05)
    c.abandon()
    return score(c.results, seconds)


def score(rows, seconds):
    ok = sorted(lat for _, lat, st, _ in rows if st == "200")
    n503 = [ra for _, _, st, ra in rows if st == "503"]
    other = sum(1 for _, _, st, _ in rows if st not in ("200", "503"))
    return {
        "offered": len(rows),
        "goodput": sum(1 for lat in ok if lat <= SLO_S) / seconds,
        "p99_ms": 1000 * ok[min(len(ok) - 1, int(0.99 * len(ok)))] if ok else float("nan"),
        "share_503": len(n503) / max(1, len(rows)),
        "503_no_retry_after": sum(1 for ra in n503 if not ra),
        "other": other,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--swebd", required=True)
    ap.add_argument("--side", action="append", required=True, help="name=extra swebd flags")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=6.0)
    ap.add_argument("--calibrate-seconds", type=float, default=3.0)
    ap.add_argument("--clients", type=int, default=8)
    ap.add_argument("--port-base", type=int, default=21000)
    ap.add_argument("--seed", type=int, default=1)
    a = ap.parse_args()
    sides = [(s.split("=", 1)[0], s.split("=", 1)[1].split()) for s in a.side]
    docroot = tempfile.mkdtemp(prefix="sweb-overload-trial-")
    port = a.port_base
    table = []
    print("round,side,factor,rate,offered,goodput,p99_ms,share_503,503_no_retry_after,other")
    for rnd in range(a.rounds):
        # Capacity: closed loop against the side listed last, the baseline.
        proc = start_node(a.swebd, docroot, port, sides[-1][1])
        port += 1
        cap = calibrate(port - 1, a.clients, a.calibrate_seconds)
        stop_node(proc)
        order = sides if rnd % 2 == 0 else sides[::-1]
        rows = {}
        for f in FACTORS:
            for name, extra in order:
                proc = start_node(a.swebd, docroot, port, extra)
                port += 1
                rng = random.Random(a.seed * 1000 + rnd * 10 + int(f * 2))
                r = ramp_step(port - 1, f * cap, a.seconds, rng)
                stop_node(proc)
                rows[(name, f)] = r
                print(
                    "%d,%s,%.1f,%.0f,%d,%.1f,%.1f,%.3f,%d,%d"
                    % (rnd, name, f, f * cap, r["offered"], r["goodput"], r["p99_ms"],
                       r["share_503"], r["503_no_retry_after"], r["other"]),
                    flush=True,
                )
        table.append((rnd, cap, rows))
    shutil.rmtree(docroot)
    names = [n for n, _ in sides]
    print()
    head = "| round | capacity (rps) |"
    for f in FACTORS[2:]:
        for n in names:
            head += " %s×: %s goodput / p99 / 503 share |" % (f, n)
    print(head)
    print("|" + "---|" * (2 + 2 * len(names)))
    for rnd, cap, rows in table:
        line = "| %d | %.0f |" % (rnd, cap)
        for f in FACTORS[2:]:
            for n in names:
                r = rows[(n, f)]
                line += " %.0f / %.0f ms / %.2f |" % (r["goodput"], r["p99_ms"], r["share_503"])
        print(line)
    a_name, b_name = names[0], names[-1]
    for f in FACTORS[2:] if len(names) > 1 else ():
        wins = sum(1 for _, _, rows in table if rows[(a_name, f)]["goodput"] > rows[(b_name, f)]["goodput"])
        print("%s beats %s on goodput at %s×: %d of %d rounds" % (a_name, b_name, f, wins, len(table)))


if __name__ == "__main__":
    sys.exit(main())
