"""Helpers of the citation-server benchmark (see README.md): the seeded
request generator, the nearest-rank percentile, the STATS diff and the
load generator.  tests/test_benchlib.py covers them."""

import bisect
import collections
import gc
import json
import math
import random
import re
import selectors
import socket
import time

# ------------------------------------------------------------------ workloads

# One family's landing page, keyed by a bound FID ({f}).
LANDING_SHAPES = (
    "L1(FName,Desc) :- Family({f},FName,Desc)",
    "L2(FName,Text) :- Family({f},FName,Desc), FamilyIntro({f},Text)",
    "L3(Text) :- FamilyIntro({f},Text)",
    "L4(Desc,Text) :- Family({f},FName,Desc), FamilyIntro({f},Text)",
)

# Bulk citations: the paper's query Q, then whole-relation joins.
SCAN_QUERIES = (
    "Q(FName) :- Family(FID,FName,Desc), FamilyIntro(FID,Text)",
    "S1(FName,PName) :- Family(FID,FName,Desc), Committee(FID,PName)",
    "S2(FName,TName) :- Family(FID,FName,Desc), TargetFamily(TID,FID), "
    "Target(TID,TName,TType)",
    "S3(FID,FName,Desc) :- Family(FID,FName,Desc)",
)

# A family's subfamily closure, answered through the program's export.
CLOSURE_SHAPE = "C1(Child,CName) :- Sub({f},Child), Family(Child,CName,Desc)"

# The curate server's --program: the recursive subfamily closure,
# exported as a per-family citation view cited by the family's committee.
CURATE_PROGRAM = """\
Sub(P,C) :- Subfamily(P,C);
Sub(P,C) :- Subfamily(P,M), Sub(M,C);
export lambda P. VSub(P,C,CName) :- Sub(P,C), Family(C,CName,Desc);
cite lambda P. CVSub(P,PName) :- Committee(P,PName)
"""

STEMS = ("Calcitonin", "Dopamine", "Histamine", "Serotonin", "Orexin")
PEOPLE = ("Debbie Hay", "David Poyner", "Walter Born", "Kim Neve", "Paul Chazot")

# families: database size.  program: the curate shape (recursive
# program, data dir, curator and reader connections).  warm: untimed
# requests before the closed loop.  closed_rps: requests per second of
# --seconds in the closed loop, which gets a fifth of them (near the
# seed's capacity; landing's is three times it, for a longer phase).
# rate: the open loop's fixed rate in requests per second, well below
# the seed's capacity.  window: requests each connection keeps in flight
# in closed loops.
Spec = collections.namedtuple(
    "Spec", "families program warm closed_rps rate window")

WORKLOADS = {
    "landing": Spec(20000, False, 400, 2500, 150, 8),
    "scan": Spec(1000, False, 8, 200, 50, 4),
    "curate": Spec(1000, True, 200, 190, 20, 4),
}

# Curate's reader requests come in shuffled rounds of this mix, and every
# tenth curate request is a commit: fixed counts rather than coin flips,
# so two seeds differ in keys and data but not in how much of each kind
# of work they do.
READ_ROUND = ("cite",) * 9 + ("closure",) * 2 + ("recent", "old") * 3 + ("verify",) * 3

# The kinds whose open-loop latency makes the cite percentiles.
CITE_KINDS = ("cite", "batch", "cite_at")

Request = collections.namedtuple("Request", "phase conn kind arg texts")


def ops(r):
    """Operations in a request: each query of a CITE_BATCH counts."""
    return len(r.texts) if r.kind == "batch" else 1


def to_line(r):
    """The requests.tsv line pbtool replay reads."""
    return "\t".join((r.phase, str(r.conn), r.kind, r.arg) + tuple(r.texts))


class Zipf:
    """Zipf(s) over the keys 1..n; the ranks are shuffled over the keys
    so the hot keys are spread through the key space."""

    def __init__(self, n, s, rng):
        total, self.cum = 0.0, []
        for rank in range(1, n + 1):
            total += rank ** -s
            self.cum.append(total)
        self.keys = list(range(1, n + 1))
        rng.shuffle(self.keys)

    def draw(self, rng):
        return self.keys[bisect.bisect_left(self.cum, rng.random() * self.cum[-1])]


def phase_sizes(spec, seconds):
    """(warm-up, closed, open) request counts: a fifth of `seconds` at
    closed_rps for the closed loop, four fifths at the fixed rate for the
    open loop."""
    return (spec.warm, max(1, round(spec.closed_rps * seconds / 5)),
            max(1, round(spec.rate * seconds * 4 / 5)))


def generate(workload, seed, seconds, committee=()):
    """The workload's request sequence; the same arguments give the same
    sequence.  `committee` lists the (FID, PName) rows curate may delete.
    Every request draws its own key and is bound to one connection, so the
    two connections never replay each other's keys."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    sizes = phase_sizes(spec, seconds)
    if spec.program:
        return _curate(rng, spec, sizes, committee)
    zipf = Zipf(spec.families, 1.0, rng)
    out = []
    for phase, n in zip("wco", sizes):
        for _ in range(n):
            conn = len(out) % 2
            if workload == "scan":
                out.append(Request(phase, conn, "cite", "-", (rng.choice(SCAN_QUERIES),)))
            elif len(out) % 20 in (9, 18):  # a tenth, on both connections
                keys = tuple(_landing(rng, zipf) for _ in range(rng.randint(8, 16)))
                out.append(Request(phase, conn, "batch", "-", keys))
            else:
                out.append(Request(phase, conn, "cite", "-", (_landing(rng, zipf),)))
    return out


def _landing(rng, zipf):
    return rng.choice(LANDING_SHAPES).format(f=zipf.draw(rng))


def _curate(rng, spec, sizes, committee):
    n = spec.families
    zipf = Zipf(n, 1.0, rng)
    parents = Zipf(n // 5, 1.0, rng)
    # The paper's Q and the two hottest landing keys, cited at versions.
    tracked = (SCAN_QUERIES[0],) + tuple(LANDING_SHAPES[0].format(f=f) for f in zipf.keys[:2])
    deletable = sorted(committee)
    rng.shuffle(deletable)
    # A first stamped answer, so every VERIFY has a digest to check.
    out = [Request("p", 1, "cite_at", "r0", (tracked[1],))]
    fid = n
    reads, cited_at = [], 0
    for phase, count in zip("wco", sizes):
        for _ in range(count):
            if len(out) % 10 == 0:
                changes = []
                for _ in range(rng.randint(1, 3)):
                    fid += 1
                    changes.append(f"+Family({fid},{rng.choice(STEMS)} receptors {fid},"
                                   f"Description of family {fid})")
                    changes += [f"+Committee({fid},{p})"
                                for p in rng.sample(PEOPLE, rng.randint(1, 2))]
                    if rng.random() < 0.8:
                        changes.append(f"+FamilyIntro({fid},Introduction to family {fid})")
                    changes.append(f"+Subfamily({rng.randint(1, n)},{fid})")
                # Inserts are fresh families and deletes distinct rows of
                # the generated database, so deltas commute: the server may
                # run a connection's pipelined commits in any order.
                if deletable and rng.random() < 0.2:
                    changes.append("-Committee(%d,%s)" % deletable.pop())
                out.append(Request(phase, 0, "commit", "-", (";".join(changes),)))
                continue
            if not reads:
                reads = list(READ_ROUND)
                rng.shuffle(reads)
            kind = reads.pop()
            if kind == "cite":
                out.append(Request(phase, 1, "cite", "-", (_landing(rng, zipf),)))
            elif kind == "closure":
                q = CLOSURE_SHAPE.format(f=parents.draw(rng))
                out.append(Request(phase, 1, "cite", "-", (q,)))
            elif kind == "verify":
                out.append(Request(phase, 1, "verify", "-", ()))
            else:
                sel = f"r{rng.randrange(8)}" if kind == "recent" else f"o{rng.random():.6f}"
                cited_at += 1
                q = rng.choice(tracked) if cited_at % 5 == 0 else _landing(rng, zipf)
                out.append(Request(phase, 1, "cite_at", sel, (q,)))
    return out


def resolve_version(sel, head):
    """The version a CITE_AT selector names at `head`; mirrors
    resolve_version in tool/pbtool.ml.  "rK" is K versions below the
    head, "oU" the fraction U of the way through the versions at least
    eight below it."""
    n = sel[1:]
    if sel[0] == "r":
        return max(0, head - int(n))
    top = max(0, head - 8)
    return min(top, int(float(n) * (top + 1)))


def wire(r, head=0, cited=None):
    """The request's wire text, without the final newline; mirrors wire in
    tool/pbtool.ml.  `head` is the newest acknowledged version and `cited`
    the (version, digest) stamp of the latest CITE_AT answer."""
    if r.kind == "cite":
        return "CITE " + r.texts[0]
    if r.kind == "batch":
        return "CITE_BATCH %d\n%s" % (len(r.texts), "\n".join(r.texts))
    if r.kind == "cite_at":
        return "V2 CITE_AT %d %s" % (resolve_version(r.arg, head), r.texts[0])
    if r.kind == "verify":
        return "V2 VERIFY %d %s" % cited
    if r.kind == "commit":
        return "V2 COMMIT_DELTA " + r.texts[0]
    if r.kind == "stats":
        return "STATS"
    raise ValueError(f"unknown request kind {r.kind!r}")


# ---------------------------------------------------------------- statistics

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile with fewer than MIN_BEYOND samples beyond it."""


def percentile(samples, p):
    """Nearest-rank p-th percentile (p an integer), refused unless at
    least MIN_BEYOND samples lie beyond it."""
    n = len(samples)
    rank = max(1, math.ceil(p * n / 100))
    if n == 0 or n - rank < MIN_BEYOND:
        raise TooFewSamples(f"p{p} of {n} samples leaves {max(0, n - rank)} beyond it, "
                            f"fewer than {MIN_BEYOND}")
    return sorted(samples)[rank - 1]


def parse_stats(line):
    """The (counters, timers) of a STATS reply: {name: count} and
    {name: (ms, calls)}."""
    stats = json.loads(line)["stats"]
    return (dict(stats["counters"]),
            {k: (float(v["ms"]), int(v["calls"])) for k, v in stats["timers"].items()})


def stats_diff(before, after):
    """`after` minus `before`.  The server registers a counter or timer on
    first use, so one missing from `before` counts from zero."""
    (bc, bt), (ac, at) = before, after
    counters = {k: v - bc.get(k, 0) for k, v in ac.items()}
    timers = {}
    for k, (ms, calls) in at.items():
        ms0, calls0 = bt.get(k, (0.0, 0))
        timers[k] = (ms - ms0, calls - calls0)
    return counters, timers


# ------------------------------------------------------------ load generator

# The stamp a CITE_AT reply ends with (its citations come before it).
STAMP = re.compile(rb'"version":(\d+),(?:"timestamp":-?\d+,)?"digest":"([^"]*)"')


class Pending:
    """One request on the wire and, once answered, its reply lines."""

    __slots__ = ("index", "req", "text", "expect", "lines", "due", "sent",
                 "done", "ok", "stamp")

    def __init__(self, index, req, text, due):
        self.index, self.req, self.text = index, req, text
        self.expect = ops(req)
        self.lines = []
        self.sent = time.perf_counter()
        self.due = self.sent if due is None else due
        self.done = None
        self.ok = False
        self.stamp = None


class _Conn:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.settimeout(None)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()
        self.inflight = collections.deque()


class LoadGen:
    """The load generator: one thread driving two TCP connections, so it
    never competes with the server for its runtime lock.  Replies are
    matched to requests by order on each connection (the protocol answers
    in request order).  `completed` collects every answered request and
    `commits` maps each acknowledged version to its delta."""

    def __init__(self, port, budget_s):
        self.conns = [_Conn(port), _Conn(port)]
        self.sel = selectors.DefaultSelector()
        for c in self.conns:
            self.sel.register(c.sock, selectors.EVENT_READ, c)
        self.deadline = time.perf_counter() + budget_s
        self.head = 0
        self.cited = None
        self.commits = {}
        self.completed = []
        self._stats = None
        # a collector pause would read as server latency
        gc.disable()

    def close(self):
        gc.enable()
        self.sel.close()
        for c in self.conns:
            c.sock.close()

    def closed(self, reqs, window):
        """Closed loop over (index, request) pairs: each connection keeps
        `window` of its requests in flight."""
        queues = [collections.deque(x for x in reqs if x[1].conn == i) for i in range(2)]
        while True:
            for c, q in zip(self.conns, queues):
                while q and len(c.inflight) < window:
                    self._send(*q.popleft(), None)
            if not any(c.inflight for c in self.conns):
                return
            self._poll(1.0)

    def open(self, reqs, rate):
        """Open loop: request i is due i / rate seconds after the start and
        is sent then, whatever is still in flight."""
        start = time.perf_counter() + 0.01
        i = 0
        while i < len(reqs) or any(c.inflight for c in self.conns):
            now = time.perf_counter()
            while i < len(reqs) and start + i / rate <= now:
                self._send(*reqs[i], start + i / rate)
                i += 1
            wait = start + i / rate - time.perf_counter() if i < len(reqs) else 1.0
            self._poll(max(0.0, wait))

    def stats(self):
        """One STATS round trip on an idle connection: the reply line."""
        self._send(-1, Request("-", 0, "stats", "-", ()), None)
        while self._stats is None:
            self._poll(1.0)
        line, self._stats = self._stats, None
        return line

    def _send(self, index, req, due):
        c = self.conns[req.conn]
        text = wire(req, self.head, self.cited)
        c.inflight.append(Pending(index, req, text, due))
        c.sock.sendall(text.encode() + b"\n")

    def _poll(self, timeout):
        if time.perf_counter() > self.deadline:
            raise RuntimeError("the load phases overran their time budget")
        for key, _ in self.sel.select(timeout):
            c = key.data
            data = c.sock.recv(1 << 20)
            now = time.perf_counter()
            if not data:
                raise RuntimeError("the server closed a connection")
            c.buf += data
            start = 0
            while (end := c.buf.find(b"\n", start)) >= 0:
                if not c.inflight:
                    raise RuntimeError("a reply arrived for no request")
                p = c.inflight[0]
                p.lines.append(bytes(c.buf[start:end]))
                start = end + 1
                if len(p.lines) == p.expect:
                    c.inflight.popleft()
                    p.done = now
                    self._complete(p)
            del c.buf[:start]

    def _complete(self, p):
        p.ok = all(line[:1] == b"{" for line in p.lines)
        kind = p.req.kind
        if kind == "stats":
            self._stats = p.lines[0]
            return
        if p.ok and kind == "commit":
            v = json.loads(p.lines[0])["version"]
            self.commits[v] = p.req.texts[0]
            self.head = max(self.head, v)
        elif p.ok and kind == "cite_at":
            line = p.lines[0]
            m = STAMP.search(line, max(0, len(line) - 512))
            if m is None:
                p.ok = False
            else:
                p.stamp = self.cited = (int(m.group(1)), m.group(2).decode())
        self.completed.append(p)
