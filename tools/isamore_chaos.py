#!/usr/bin/env python3
"""Chaos/soak harness for isamore_serve.

Generates a mixed request corpus -- valid analyses, malformed JSON,
fault-injected runs, deadline-exceeding runs, and queue-saturating
bursts -- feeds it to a single isamore_serve process, and asserts the
daemon's robustness contract:

  * zero crashes: the daemon exits 0 after EOF, never signals;
  * zero hangs: everything completes under a global timeout;
  * zero silent drops: every request line gets exactly one response
    line, matched by id, with a structured status;
  * taxonomy: malformed lines answer bad_request, unknown workloads
    answer invalid, injected faults answer degraded/ok (never crash),
    shed requests answer overloaded;
  * stdout hygiene: every stdout byte belongs to a strict JSON line;
  * byte identity: ok responses for unconstrained requests carry the
    byte-exact single-shot CLI document (checked against the committed
    goldens when --golden-dir is given, after dropping the wall-clock
    "seconds" lines, same as the golden tests);
  * thread-width identity: a slice of analyze requests pins the pool
    width ("threads": 1/2/4, interleaved in the same daemon run, cache
    off so each one actually executes); every width must reproduce the
    same golden bytes -- the pipeline's thread-count determinism
    contract (the sharded AU sweep reading a shared, serial e-graph)
    exercised through a live daemon under load;
  * read-only corpus (--corpus <path>): the chaos session serves with a
    shared warm-start corpus mounted --corpus-readonly (primed by a
    short writable warm-up session when the file does not exist yet).
    Warm-started responses must still match the goldens byte-exact even
    while malformed lines, injected faults, and overload bursts land on
    the other lanes, and the corpus file bytes must be untouched after
    shutdown -- readonly means readonly;
  * request-id echo: every response carries `req` == "r-<stdin line>",
    each line number appears exactly once, and the bad_request reqs are
    exactly the malformed corpus positions;
  * event log: the daemon runs with --events; every stderr line opening
    with "{" must parse as JSON carrying event/req/ns (plus the
    per-kind fields), and every response's req must show exactly one
    terminal event (done/reject/shed) consistent with its status;
  * flight recorder: the daemon runs with --flight-dir; the set of
    flight_<req>.json dumps equals the set of non-ok responses exactly
    (no SLO is armed, so ok responses never dump), and each dump is
    Perfetto-loadable JSON whose server.request span names the req;
  * live ops: a `metrics` and a `corpus` op at the head of the corpus
    (the queue is empty, so they cannot be shed) must answer ok with
    the full JSON metrics document + Prometheus exposition and the
    corpus attachment status; a few mid-soak metrics scrapes are
    validated whenever they are not shed.

Usage:
  isamore_chaos.py --serve build/tools/isamore_serve [--requests 500]
                   [--golden-dir tests/isamore/golden] [--seed 7]
                   [--timeout 600] [--lanes 4] [--queue 16]
                   [--corpus /tmp/chaos_corpus.bin]
                   [--workloads matmul,stencil,qprod,2dconv]

Exit code 0 when every assertion holds, 1 otherwise.
"""

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time

# Faults with a process-lifetime "fire once" site would poison later
# requests; every site here is armed per-request through the server's
# fault scope, so each spec is self-contained.
FAULT_SPECS = [
    "rii.phase=trip@1",
    "rii.phase=trip@2",
    "au.pair=trip@1+",
    "eqsat.search=trip@1",
    "select.round=trip@1",
]

MODES = ["default", "astsize", "noeqsat"]


def strip_wall_clock(text):
    return "\n".join(
        line for line in text.splitlines() if '"seconds":' not in line
    )


def build_corpus(args, rng):
    """Return a list of (line, expectation) pairs.

    expectation is a dict: kind tags what the response must look like.
    """
    workloads = args.workloads.split(",")
    corpus = []
    n = args.requests
    n_malformed = max(1, n * 20 // 100)
    n_fault = max(1, n * 10 // 100)
    n_deadline = max(1, n * 10 // 100)
    n_threads = max(3, n * 10 // 100)
    n_valid = n - n_malformed - n_fault - n_deadline - n_threads

    malformed_lines = [
        "not json at all",
        "{",
        "[1, 2",
        '{"workload": }',
        '{"workload": "matmul"} trailing',
        '{"workload": 42}',
        '{"workload": "matmul", "mystery": true}',
        '{"workload": "matmul", "deadlineMs": -5}',
        '{"op": "launch_missiles"}',
        '{"workload": "matmul", "maxUnits": 1.5}',
        '"just a string"',
        '{"workload": "matmul", "extendedRules": "yes"}',
        "\x00\x01\x02",
        '{"id": [1], "workload": "matmul"}',
    ]

    uid = 0

    def next_id(prefix):
        nonlocal uid
        uid += 1
        return "%s-%d" % (prefix, uid)

    for _ in range(n_valid):
        rid = next_id("ok")
        workload = rng.choice(workloads)
        req = {"id": rid, "workload": workload}
        mode = rng.choice(MODES)
        if mode != "default":
            req["mode"] = mode
        corpus.append(
            (
                json.dumps(req),
                {
                    "id": rid,
                    "kind": "valid",
                    "workload": workload,
                    "mode": mode,
                },
            )
        )

    for _ in range(n_malformed):
        line = rng.choice(malformed_lines)
        # No reliable id inside a malformed line: matched by order of the
        # bad_request responses instead.
        corpus.append((line, {"kind": "malformed"}))

    for _ in range(n_fault):
        rid = next_id("fault")
        req = {
            "id": rid,
            "workload": rng.choice(workloads),
            "inject": rng.choice(FAULT_SPECS),
        }
        corpus.append((json.dumps(req), {"id": rid, "kind": "fault"}))

    for _ in range(n_deadline):
        rid = next_id("deadline")
        req = {
            "id": rid,
            "workload": rng.choice(workloads),
            "deadlineMs": rng.choice([1, 2, 5]),
        }
        corpus.append((json.dumps(req), {"id": rid, "kind": "deadline"}))

    # Thread-width identity phase: default-mode analyses pinned to pool
    # widths 1/2/4, cycled so every width appears, cache off so each
    # request runs the pipeline rather than replaying a stored response.
    for k in range(n_threads):
        rid = next_id("threads")
        threads = (1, 2, 4)[k % 3]
        workload = rng.choice(workloads)
        req = {
            "id": rid,
            "workload": workload,
            "threads": threads,
            "cache": False,
        }
        corpus.append(
            (
                json.dumps(req),
                {
                    "id": rid,
                    "kind": "threads",
                    "workload": workload,
                    "threads": threads,
                },
            )
        )

    rng.shuffle(corpus)

    # Live-observability ops: metrics + corpus status probes at the head
    # (the queue is empty there, so they can never be shed -- their
    # answers are hard assertions) and a few mid-soak metrics scrapes
    # that may legally be shed under burst (validated only when not).
    for _ in range(3):
        rid = next_id("scrape")
        corpus.insert(
            rng.randrange(len(corpus) + 1),
            (
                json.dumps({"id": rid, "op": "metrics"}),
                {"id": rid, "kind": "metrics_soft"},
            ),
        )
    corpus.insert(
        0,
        (
            json.dumps({"id": "op-corpus", "op": "corpus"}),
            {"id": "op-corpus", "kind": "corpus_op"},
        ),
    )
    corpus.insert(
        0,
        (
            json.dumps({"id": "op-metrics", "op": "metrics"}),
            {"id": "op-metrics", "kind": "metrics_op"},
        ),
    )
    return corpus


def run_session(args, corpus):
    """Drive one isamore_serve process over the corpus.

    Requests are written in phases: a steady phase with small pauses and
    burst phases that slam the queue faster than the lanes drain it (to
    exercise overload shedding).  stdout is consumed on a reader thread
    so the daemon can never block on a full pipe.
    """
    cmd = [
        args.serve,
        "--lanes",
        str(args.lanes),
        "--queue",
        str(args.queue),
        "--purge-every",
        "32",
        "--quiet",
        "--events",
        "--flight-dir",
        args.flight_dir,
    ]
    if args.corpus:
        cmd += ["--corpus", args.corpus, "--corpus-readonly"]
    proc = subprocess.Popen(
        cmd,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )

    stdout_chunks = []
    stderr_chunks = []

    def drain(stream, into):
        while True:
            chunk = stream.read(65536)
            if not chunk:
                return
            into.append(chunk)

    readers = [
        threading.Thread(target=drain, args=(proc.stdout, stdout_chunks)),
        threading.Thread(target=drain, args=(proc.stderr, stderr_chunks)),
    ]
    for t in readers:
        t.start()

    deadline = time.monotonic() + args.timeout

    def over_deadline():
        return time.monotonic() > deadline

    try:
        # Burst phases: every burst_period requests, dump a burst_size
        # window as fast as the pipe accepts; otherwise trickle.
        burst_period = 50
        burst_size = max(args.queue * 2, 20)
        i = 0
        while i < len(corpus):
            if over_deadline():
                raise TimeoutError("feeding the corpus")
            in_burst = (i // burst_period) % 2 == 1
            window = burst_size if in_burst else 1
            for line, _ in corpus[i : i + window]:
                payload = (line + "\n").encode("utf-8", "surrogateescape")
                proc.stdin.write(payload)
            proc.stdin.flush()
            i += window
            if not in_burst:
                time.sleep(0.002)
        proc.stdin.close()
        remaining = max(1.0, deadline - time.monotonic())
        proc.wait(timeout=remaining)
    except (TimeoutError, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait()
        for t in readers:
            t.join()
        return None, b"", b"".join(stderr_chunks)
    for t in readers:
        t.join()
    return proc.returncode, b"".join(stdout_chunks), b"".join(stderr_chunks)


def prime_corpus(args):
    """Populate the corpus file with one writable warm-up session.

    One clean analyze per workload through a dedicated daemon whose
    shutdown checkpoint writes the file; the chaos session then mounts
    it read-only.  A pre-existing file is reused as-is.
    """
    if os.path.exists(args.corpus):
        return True
    lines = [
        json.dumps({"id": "prime-%d" % i, "workload": w})
        for i, w in enumerate(args.workloads.split(","))
    ]
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    proc = subprocess.run(
        [args.serve, "--quiet", "--corpus", args.corpus],
        input=payload,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=args.timeout,
    )
    if proc.returncode != 0 or not os.path.exists(args.corpus):
        sys.stderr.write(proc.stderr.decode("utf-8", "replace")[-2000:])
        print(
            "corpus prime failed (exit %s, file %s)"
            % (proc.returncode, os.path.exists(args.corpus)),
            flush=True,
        )
        return False
    return True


def load_goldens(args):
    goldens = {}
    if not args.golden_dir:
        return goldens
    for name in os.listdir(args.golden_dir):
        if name.endswith(".json"):
            path = os.path.join(args.golden_dir, name)
            with open(path, "r") as f:
                goldens[name[: -len(".json")]] = strip_wall_clock(f.read())
    return goldens


EVENT_TERMINAL = ("done", "reject", "shed")
EVENT_FIELDS = {
    "accept": ("op", "parseUs"),
    "dispatch": ("lane", "queueWaitUs"),
    "done": ("status", "code", "cached", "elapsedMs", "spans"),
    "reject": ("status",),
    "shed": ("status",),
}


def validate_observability(args, corpus, responses, by_id, stderr, failures):
    """PR-10 contract: request-id echo, event log, flight dumps, ops."""
    # Request-id echo.  The daemon assigns "r-<stdin line>" and the
    # harness never sends blank lines, so req == corpus position + 1.
    expected_req = {
        "r-%d" % (i + 1): exp for i, (_, exp) in enumerate(corpus)
    }
    seen_req = {}
    for doc in responses:
        req = doc.get("req")
        if not isinstance(req, str):
            failures.append(
                "REQ ECHO: response without req (id %r)" % (doc.get("id"),)
            )
            continue
        seen_req[req] = seen_req.get(req, 0) + 1
        exp = expected_req.get(req)
        if exp is None:
            failures.append("REQ ECHO: unknown req %s" % req)
            continue
        if (exp["kind"] == "malformed") != (doc["status"] == "bad_request"):
            failures.append(
                "REQ ECHO: %s answered %s but corpus line %s was %s"
                % (req, doc["status"], req[2:], exp["kind"])
            )
        if "id" in exp and doc.get("id") != exp["id"]:
            failures.append(
                "REQ ECHO: %s answered id %r, corpus line had %r"
                % (req, doc.get("id"), exp["id"])
            )
    dupes = sorted(r for r, c in seen_req.items() if c > 1)
    if dupes:
        failures.append("REQ ECHO: duplicated reqs: %s" % dupes[:5])
    missing = sorted(set(expected_req) - set(seen_req))
    if missing:
        failures.append(
            "REQ ECHO: %d request lines never echoed (e.g. %s)"
            % (len(missing), missing[:5])
        )

    # Event-log schema.  Events are the stderr lines opening with "{"
    # (notices open with "[isamore_serve]" or "corpus:").
    events_by_req = {}
    for lineno, raw in enumerate(stderr.splitlines(), 1):
        text = raw.decode("utf-8", "replace")
        if not text.startswith("{"):
            continue
        try:
            ev = json.loads(text)
        except ValueError:
            failures.append(
                "EVENT LOG: stderr line %d is not JSON: %r"
                % (lineno, text[:80])
            )
            continue
        kind = ev.get("event")
        if kind not in EVENT_FIELDS:
            failures.append(
                "EVENT LOG: line %d has unknown event %r" % (lineno, kind)
            )
            continue
        if not isinstance(ev.get("req"), str) or not isinstance(
            ev.get("ns"), int
        ):
            failures.append(
                "EVENT LOG: %s event lacks req/ns: %r" % (kind, text[:80])
            )
            continue
        absent = [f for f in EVENT_FIELDS[kind] if f not in ev]
        if absent:
            failures.append(
                "EVENT LOG: %s event lacks %s: %r"
                % (kind, absent, text[:80])
            )
            continue
        events_by_req.setdefault(ev["req"], []).append(kind)

    for doc in responses:
        req = doc.get("req")
        if not isinstance(req, str):
            continue
        kinds = events_by_req.get(req, [])
        terminal = [k for k in kinds if k in EVENT_TERMINAL]
        status = doc["status"]
        want = (
            "reject"
            if status == "bad_request"
            else "shed" if status == "overloaded" else "done"
        )
        if terminal != [want]:
            failures.append(
                "EVENT LOG: %s ended %s but its terminal events are %s"
                % (req, status, terminal)
            )
            continue
        if want != "reject" and "accept" not in kinds:
            failures.append("EVENT LOG: %s was never accepted" % req)
        if want == "done" and "dispatch" not in kinds:
            failures.append("EVENT LOG: %s was never dispatched" % req)

    # Flight recorder: exactly the non-ok responses dump (no SLO armed,
    # so an ok response must never leave a file).
    non_ok = {
        doc["req"]
        for doc in responses
        if doc["status"] != "ok" and isinstance(doc.get("req"), str)
    }
    try:
        dumped = set(os.listdir(args.flight_dir))
    except OSError:
        dumped = set()
    expected_files = {"flight_%s.json" % r for r in non_ok}
    missing_dumps = sorted(expected_files - dumped)
    if missing_dumps:
        failures.append(
            "FLIGHT: %d non-ok responses left no dump (e.g. %s)"
            % (len(missing_dumps), missing_dumps[:5])
        )
    stray = sorted(dumped - expected_files)
    if stray:
        failures.append(
            "FLIGHT: %d dumps without a non-ok response (e.g. %s)"
            % (len(stray), stray[:5])
        )
    for name in sorted(dumped & expected_files):
        req = name[len("flight_") : -len(".json")]
        try:
            with open(os.path.join(args.flight_dir, name)) as f:
                trace = json.load(f)
        except (OSError, ValueError):
            failures.append("FLIGHT: %s is not readable JSON" % name)
            continue
        spans = trace.get("traceEvents")
        if not isinstance(spans, list) or not spans:
            failures.append("FLIGHT: %s has no traceEvents" % name)
            continue
        roots = [s for s in spans if s.get("name") == "server.request"]
        if not roots or roots[0].get("args", {}).get("req") != req:
            failures.append(
                "FLIGHT: %s lacks a server.request span naming %s"
                % (name, req)
            )

    # Live ops.
    for _, exp in corpus:
        kind = exp["kind"]
        if kind not in ("metrics_op", "corpus_op", "metrics_soft"):
            continue
        doc = by_id.get(exp["id"])
        if doc is None:
            failures.append("OPS: no response for %s" % exp["id"])
            continue
        status = doc["status"]
        if kind == "metrics_soft" and status == "overloaded":
            continue  # legal under burst
        if status != "ok":
            failures.append("OPS: %s answered %s" % (exp["id"], status))
            continue
        if kind in ("metrics_op", "metrics_soft"):
            metrics = doc.get("metrics")
            if not isinstance(metrics, dict) or not all(
                k in metrics for k in ("server", "latency", "registry")
            ):
                failures.append(
                    "OPS: %s metrics payload incomplete" % exp["id"]
                )
            if "# TYPE isamore_server_served counter" not in doc.get(
                "exposition", ""
            ):
                failures.append(
                    "OPS: %s exposition lacks its TYPE lines" % exp["id"]
                )
        else:
            status_doc = doc.get("corpus")
            attached = bool(args.corpus)
            if (
                not isinstance(status_doc, dict)
                or status_doc.get("attached") is not attached
            ):
                failures.append(
                    "OPS: corpus op reported %r (want attached=%s)"
                    % (status_doc, attached)
                )
            elif attached and "sections" not in status_doc:
                failures.append("OPS: corpus status lacks sections")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--serve", required=True,
                        help="path to the isamore_serve binary")
    parser.add_argument("--requests", type=int, default=500)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="global wall-clock budget (hang detector)")
    parser.add_argument("--lanes", type=int, default=4)
    parser.add_argument("--queue", type=int, default=16)
    parser.add_argument("--golden-dir", default="",
                        help="dir of committed goldens for byte-identity")
    parser.add_argument("--corpus", default="",
                        help="serve with this warm-start corpus mounted "
                             "read-only (primed if missing)")
    parser.add_argument("--workloads",
                        default="matmul,stencil,qprod,2dconv")
    args = parser.parse_args()

    # The flight-recorder dir lives for the whole session (daemon run +
    # dump validation) and is always cleaned up, pass or fail.
    args.flight_dir = tempfile.mkdtemp(prefix="isamore_flight_")
    try:
        return run_chaos(args)
    finally:
        shutil.rmtree(args.flight_dir, ignore_errors=True)


def run_chaos(args):
    corpus_before = b""
    if args.corpus:
        if not prime_corpus(args):
            return 1
        with open(args.corpus, "rb") as f:
            corpus_before = f.read()
        print("corpus: read-only phase with %s (%d bytes)"
              % (args.corpus, len(corpus_before)), flush=True)

    rng = random.Random(args.seed)
    corpus = build_corpus(args, rng)
    by_kind = {}
    for _, exp in corpus:
        by_kind[exp["kind"]] = by_kind.get(exp["kind"], 0) + 1
    print("corpus: %d requests %s" % (len(corpus), by_kind), flush=True)

    returncode, stdout, stderr = run_session(args, corpus)

    failures = []

    if returncode is None:
        failures.append(
            "HANG: global timeout (%gs) exceeded; daemon killed"
            % args.timeout
        )
    elif returncode != 0:
        failures.append(
            "CRASH: daemon exited %d (negative = signal)" % returncode
        )
        sys.stderr.write(stderr.decode("utf-8", "replace")[-4000:])

    # Stdout hygiene: every line must be a standalone JSON object.
    responses = []
    for lineno, raw in enumerate(stdout.splitlines(), 1):
        text = raw.decode("utf-8", "replace")
        try:
            doc = json.loads(text)
        except ValueError:
            failures.append(
                "STDOUT HYGIENE: line %d is not JSON: %r"
                % (lineno, text[:80])
            )
            continue
        if not isinstance(doc, dict) or "status" not in doc:
            failures.append(
                "PROTOCOL: line %d has no status: %r" % (lineno, text[:80])
            )
            continue
        responses.append(doc)

    if returncode == 0 and len(responses) != len(corpus):
        failures.append(
            "SILENT DROP: %d requests but %d responses"
            % (len(corpus), len(responses))
        )

    by_id = {}
    statuses = {}
    for doc in responses:
        statuses[doc["status"]] = statuses.get(doc["status"], 0) + 1
        rid = doc.get("id")
        if isinstance(rid, str):
            by_id[rid] = doc
    print("statuses: %s" % statuses, flush=True)

    goldens = load_goldens(args)
    identical = 0
    width_identical = {1: 0, 2: 0, 4: 0}
    for _, exp in corpus:
        kind = exp["kind"]
        doc = by_id.get(exp.get("id", ""))
        if kind == "malformed":
            continue  # counted in aggregate below
        if doc is None:
            if returncode == 0:
                failures.append("MISSING: no response for id %s" % exp["id"])
            continue
        status = doc["status"]
        if kind == "valid":
            if status == "overloaded":
                continue  # legal under burst; sheds are explicit
            if status not in ("ok", "degraded"):
                failures.append(
                    "TAXONOMY: valid %s answered %s: %s"
                    % (exp["id"], status, doc.get("error", ""))
                )
                continue
            if (
                status == "ok"
                and exp["mode"] == "default"
                and exp["workload"] in goldens
            ):
                got = strip_wall_clock(doc.get("result", ""))
                if got != goldens[exp["workload"]]:
                    failures.append(
                        "BYTE IDENTITY: %s (%s) differs from golden"
                        % (exp["id"], exp["workload"])
                    )
                else:
                    identical += 1
        elif kind == "threads":
            if status == "overloaded":
                continue  # legal under burst; sheds are explicit
            if status != "ok":
                failures.append(
                    "TAXONOMY: threads %s answered %s: %s"
                    % (exp["id"], status, doc.get("error", ""))
                )
                continue
            if doc.get("cached"):
                failures.append(
                    "CACHE: threads %s served from the response cache"
                    % exp["id"]
                )
                continue
            if exp["workload"] in goldens:
                got = strip_wall_clock(doc.get("result", ""))
                if got != goldens[exp["workload"]]:
                    failures.append(
                        "BYTE IDENTITY: %s (%s at %d threads) differs "
                        "from golden"
                        % (exp["id"], exp["workload"], exp["threads"])
                    )
                else:
                    width_identical[exp["threads"]] += 1
        elif kind == "fault":
            # An injected fault degrades or is survived -- any structured
            # per-request status except internal is within contract.
            if status not in ("ok", "degraded", "overloaded", "invalid"):
                failures.append(
                    "TAXONOMY: fault %s answered %s" % (exp["id"], status)
                )
        elif kind == "deadline":
            if status not in ("ok", "degraded", "overloaded"):
                failures.append(
                    "TAXONOMY: deadline %s answered %s" % (exp["id"], status)
                )

    if args.corpus:
        if b"corpus: loaded" not in stderr:
            failures.append(
                "CORPUS: daemon never reported loading %s" % args.corpus
            )
        try:
            with open(args.corpus, "rb") as f:
                corpus_after = f.read()
        except OSError:
            corpus_after = None
        if corpus_after != corpus_before:
            failures.append(
                "CORPUS READONLY: %s changed under --corpus-readonly"
                % args.corpus
            )

    n_malformed = sum(
        1 for _, exp in corpus if exp["kind"] == "malformed"
    )
    n_bad = statuses.get("bad_request", 0)
    if returncode == 0 and n_bad != n_malformed:
        failures.append(
            "TAXONOMY: %d malformed lines but %d bad_request responses"
            % (n_malformed, n_bad)
        )

    if returncode == 0:
        validate_observability(
            args, corpus, responses, by_id, stderr, failures
        )

    if goldens:
        print("byte-identical ok responses vs goldens: %d" % identical,
              flush=True)
        if identical == 0 and returncode == 0:
            failures.append(
                "BYTE IDENTITY: no ok response was checked against a "
                "golden (wrong --golden-dir or workloads?)"
            )
        print(
            "byte-identical per pool width: %s"
            % {k: v for k, v in sorted(width_identical.items())},
            flush=True,
        )
        # A mismatching width already failed above per request; this
        # coverage check catches the harness itself going blind.  A
        # single width can legitimately lose all its requests to
        # overload shedding under burst, so that only warns.
        if returncode == 0 and all(
            v == 0 for v in width_identical.values()
        ):
            failures.append(
                "BYTE IDENTITY: no pool width was ever verified against "
                "a golden (all thread-pinned requests shed or failed?)"
            )
        elif any(v == 0 for v in width_identical.values()):
            print(
                "warning: a pool width was fully shed under burst: %s"
                % width_identical,
                flush=True,
            )

    if failures:
        print("\nFAIL (%d):" % len(failures))
        for f in failures[:50]:
            print("  " + f)
        return 1
    print("PASS: %d requests, zero crashes, zero hangs, every request "
          "answered" % len(corpus))
    return 0


if __name__ == "__main__":
    sys.exit(main())
