#!/usr/bin/env python3
"""End-to-end benchmark of ossm's three user paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds ossm_cli and perfbench_probe from
source into .bench_build/, generates the workload's inputs from --seed into
.bench_work/, and then:

  --trace 0  times, from outside and with the program's tracing off, fresh
             `ossm_cli build` (Random-Greedy, Random-RC), `ossm_cli mine`
             (Apriori, Eclat, DepthProject) and `ossm_cli serve` processes
             driven over loopback TCP. One untimed warm-up round, then whole
             rounds of every operation, interleaved, until --seconds have
             passed; each figure is the best or the median over the rounds
             (see BEST).
  --trace 1  the per-layer run: perfbench_probe calls each layer's public
             functions on the same inputs, one served round is read back
             through STATS, and the program's own tracing is timed against
             the untraced mine.

Every output is checked against the benchmark's own oracle (oracle.py).
The last stdout line is one JSON object: correct, attempted, failed and
metrics.
"""

import argparse
import json
import math
import os
import random
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import oracle  # noqa: E402

BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
# What `nproc` reports: the CPUs this process may run on.
NPROC = len(os.sched_getaffinity(0))
# Build and mine run on one thread. On a shared host a parallel phase waits
# for its slowest thread, so at OSSM_THREADS=nproc every spell of load on
# any one CPU showed in the wall time: across runs of the same code the
# threaded paths spread by a third while single-threaded DepthProject and
# Random-RC stayed steady.
WORK_THREADS = 1
# No single process or query of a run takes more than a second or two; one
# that takes this long has hung and counts as failed.
OP_TIMEOUT = 30

# Every workload runs all three user paths; the workload fixes the inputs.
# collection: arguments of gen.seasonal_collection. mix: closed/open query
# counts, tier shares (reject, singleton, repeated, novel), repeat pool.
BASE = {
    "collection": dict(transactions=16000, items=160, seasons=8,
                       hot_per_season=12, global_items=5,
                       patterns_per_season=3, txn_hot=4,
                       off_season_rate=0.01, noise_per_txn=2),
    "page": 100,
    "segments": 16,
    "threshold": 0.005,
    "mix": dict(closed=90000, open=4000,
                shares=(0.10, 0.05, 0.10, 0.75), repeat_pool=500),
}


def variant(collection=None, **overrides):
    config = {k: (dict(v) if isinstance(v, dict) else v)
              for k, v in BASE.items()}
    config["collection"].update(collection or {})
    config.update(overrides)
    return config


WORKLOADS = {
    # Sharp seasons on 160 pages: pairs across seasons share no segment, so
    # Eq. (1) rejects them before counting.
    "mine-seasonal": variant(),
    # Thousands of 8-transaction pages and drifting seasons: all ossub work.
    # The hybrids' Random phase folds shuffled pages down to 200 segments,
    # so the map keeps no seasons and Eq. (1) rejects next to nothing: the
    # workload where the bound's mechanism is bypassed.
    "build-pages": variant(
        collection=dict(transactions=24000, off_season_rate=0.02), page=8),
    # A longer collection served with a mix that is mostly novel exact-tier
    # itemsets, so the bitmap tier and the cache churn carry the load. At
    # most 200 pages, so the hybrid segments pages directly and keeps the
    # seasons.
    "serve-mixed": variant(
        collection=dict(transactions=32000), page=200,
        mix=dict(closed=85000, open=4000,
                 shares=(0.05, 0.05, 0.10, 0.80), repeat_pool=2000)),
}


# How a run's samples become its figure: the fastest build and mine and the
# highest closed-loop throughput of the run's rounds; the median for the
# rest. A single-threaded build or mine of the same input took, in CPU time
# equal to its wall time, either about its uncontended time or up to half
# as long again, in spells of seconds to minutes as the shared host's load
# came and went; serving throughput moved the same way. The median over a
# run followed the share of loaded spells, while the best round kept to the
# uncontended speed.
BEST = {"mine_apriori_s": min, "mine_eclat_s": min,
        "mine_depthproject_s": min, "build_greedy_s": min, "build_rc_s": min,
        "serve_qps": max}


def declared_metrics(kind):
    """{name: unit} of the end_to_end or per_layer metrics BENCHMARK.json
    declares; a run reports exactly these."""
    with open("BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class Failure(Exception):
    """An operation or a correctness check failed."""


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def child_env(threads, tracing=None):
    """Environment for the program: no inherited OSSM_* setting, a fixed
    OSSM_THREADS, and tracing off unless asked for."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("OSSM_")}
    env["OSSM_THREADS"] = str(threads)
    if tracing:
        env["OSSM_METRICS"] = tracing
    return env


def build_program():
    if not os.path.isdir("src") or not os.path.isdir("tools"):
        raise SystemExit("perfbench: run from the repository root "
                         "(src/ and tools/ not found)")
    cmake_dir = os.path.join(BUILD_DIR, "cmake")
    quiet = dict(stdout=sys.stderr, stderr=sys.stderr)
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    subprocess.run(["cmake", "--build", cmake_dir, "-j", str(NPROC),
                    "--target", "ossm_cli", "perfbench_probe"],
                   check=True, **quiet)
    return (os.path.join(cmake_dir, "ossm_tools", "ossm_cli"),
            os.path.join(cmake_dir, "perfbench_probe"))


def run_timed(probe, argv, env, stats_path):
    """Runs one fresh process to completion under the probe's launcher;
    returns (wall seconds, peak RSS in MB, minor faults, stdout). The
    launcher and its child share a new process group, so a hung child is
    killed with it."""
    proc = subprocess.Popen([probe, "spawn", stats_path] + argv, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=OP_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise Failure(f"{' '.join(argv[:3])} timed out")
    if proc.returncode != 0:
        raise Failure(f"{' '.join(argv[:3])} exited {proc.returncode}")
    with open(stats_path) as f:
        wall, rss_kb, faults, _ = f.read().split()
    return float(wall), int(rss_kb) / 1024, int(faults), out


def ask(port, line):
    """Sends one request line to the server; returns its answer line."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=OP_TIMEOUT) as s:
        f = s.makefile("rw")
        f.write(line + "\n")
        f.flush()
        answer = f.readline()
    if not answer.endswith("\n"):
        raise Failure(f"no answer to {line.split()[0]}")
    return answer


def read_banner(proc):
    """The server's first stdout line: (port, minsup)."""
    ready, _, _ = select.select([proc.stdout], [], [], OP_TIMEOUT)
    banner = proc.stdout.readline() if ready else ""
    if " on 127.0.0.1:" not in banner:
        raise Failure(f"server did not start: {banner!r}")
    port = int(banner.split(" on 127.0.0.1:")[1].split()[0])
    return port, int(banner.split("minsup ")[1].split(",")[0])


def stop_server(proc):
    """SIGTERM, then waits for the drain (SIGKILL after OP_TIMEOUT);
    returns (exit code, rusage)."""
    proc.send_signal(signal.SIGTERM)
    deadline = time.monotonic() + OP_TIMEOUT
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return proc.returncode, usage


def peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise Failure("no VmHWM for the server")


class Bench:
    def __init__(self, name, seed, cli, probe, work):
        self.config = WORKLOADS[name]
        self.seed = seed
        self.cli = cli
        self.probe = probe
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.samples = {}

    def path(self, name):
        return os.path.join(self.work, name)

    # ---- inputs ----

    def make_inputs(self):
        c = self.config
        txns, self.layout = gen.seasonal_collection(self.seed,
                                                    **c["collection"])
        gen.write_fimi(self.path("data.txt"), txns)
        self.oracle = oracle.Oracle(txns, c["collection"]["items"])
        self.minsup = max(1, math.ceil(c["threshold"] * len(txns)))
        m = c["mix"]
        self.setup_query, queries = gen.query_mix(
            self.seed, self.layout, m["closed"], m["open"], m["shares"],
            m["repeat_pool"])
        # Beyond the server's default cache capacity (1 << 16 entries), so
        # the exact tier keeps being reached and the cache keeps evicting.
        distinct = {q for q in queries[:m["closed"]] if len(q) > 1}
        if len(distinct) <= 1 << 16:
            raise ValueError("mix too small to overflow the serving cache")
        supports = {}
        with open(self.path("mix.txt"), "w") as f:
            for q in queries:
                if q not in supports:
                    supports[q] = self.oracle.support(q)
                f.write(f"{supports[q]} {' '.join(map(str, q))}\n")
        self.setup_oracle = self.oracle.support(self.setup_query)

    # ---- operations ----

    def run(self, argv, env):
        self.attempted += 1
        try:
            return run_timed(self.probe, argv, env, self.path("spawn.txt"))
        except Failure:
            self.failed += 1
            raise

    def build(self, algorithm, out):
        c = self.config
        wall, _, faults, _ = self.run(
            [self.cli, "build", f"--data={self.path('data.txt')}",
             f"--out={out}", f"--algorithm={algorithm}",
             f"--segments={c['segments']}", f"--page={c['page']}"],
            child_env(WORK_THREADS))
        return wall, faults

    def mine(self, miner, with_map=True, tracing=None):
        c = self.config
        argv = [self.cli, "mine", f"--data={self.path('data.txt')}",
                f"--miner={miner}", f"--threshold={c['threshold']}",
                "--top=100000000"]
        if with_map:
            argv.append(f"--ossm={self.path('greedy.ossm')}")
        wall, rss, faults, text = self.run(argv,
                                           child_env(WORK_THREADS, tracing))
        try:
            return wall, rss, faults, oracle.parse_mine_output(text)
        except (ValueError, IndexError) as error:
            raise Failure(f"unreadable {miner} output: {error}")

    def serve_round(self, stats=False):
        """Spawns a server, times its set-up to the first exact answer,
        drives the mix through the load generator, and stops it. The server
        process is one operation (start, set-up answer, clean stop); each
        mix query is one more."""
        c = self.config
        m = c["mix"]
        self.attempted += 1
        start = time.perf_counter()
        proc = subprocess.Popen(
            [self.cli, "serve", f"--data={self.path('data.txt')}",
             f"--ossm={self.path('greedy.ossm')}",
             f"--threshold={c['threshold']}", "--port=0"],
            env=child_env(max(1, NPROC - 1)), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        server_ok = False
        try:
            try:
                port, minsup = read_banner(proc)
                answer = ask(port, "Q " + " ".join(map(str, self.setup_query)))
            except (Failure, OSError) as error:
                raise Failure(f"server set-up: {error}")
            setup = time.perf_counter() - start
            server_ok = True
            if minsup != self.minsup:
                raise Failure(f"server minsup {minsup} != {self.minsup}")
            if answer.split() != ["OK", str(self.setup_oracle), "exact"]:
                raise Failure(f"set-up query answered {answer.strip()}")
            queries = m["closed"] + m["open"]
            self.attempted += queries
            try:
                _, _, _, text = run_timed(
                    self.probe, [self.probe, "loadgen", f"--port={port}",
                     f"--mix={self.path('mix.txt')}", f"--minsup={minsup}",
                     f"--closed={m['closed']}", f"--open={m['open']}"],
                    os.environ, self.path("spawn.txt"))
            except Failure:
                self.failed += queries
                raise
            load = json.loads(text.splitlines()[-1])
            self.failed += load["errors"] + queries - load["answered"]
            if load["mismatches"]:
                raise Failure(f"served answers disagree with the oracle: "
                              f"{load['first_problem']}")
            if load["answered"] != queries:
                raise Failure("load generator lost answers")
            if stats:
                try:
                    line = ask(port, "STATS")
                except OSError as error:
                    raise Failure(f"STATS: {error}")
                load["stats"] = dict(kv.split("=") for kv in line.split()[1:])
            rss = peak_rss_mb(proc.pid)
        finally:
            code, usage = stop_server(proc)
            if not server_ok:
                self.failed += 1
        if code != 0:
            self.failed += 1
            raise Failure("server did not drain cleanly")
        return setup, rss, usage.ru_minflt, load

    # ---- rounds ----

    def record(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def round(self, warm):
        """One round of every operation, in a fixed interleaved order."""
        faults = 0
        # RC is single-threaded, so which CPU it lands on shows in its time;
        # it is sampled twice.
        for algorithm, metric, out in (
                ("random-greedy", "build_greedy_s", "greedy.ossm"),
                ("random-rc", "build_rc_s", "rc.ossm"),
                ("random-rc", "build_rc_s", "rc.ossm")):
            target = self.path(out if warm else "check.ossm")
            wall, minflt = self.build(algorithm, target)
            faults += minflt
            if not warm:
                self.same_file(target, self.path(out))
                self.record(metric, wall)
        # Eclat runs for tens of milliseconds, so it is sampled twice.
        for miner in ("apriori", "eclat", "depthproject", "eclat"):
            wall, rss, minflt, result = self.mine(miner)
            faults += minflt
            if warm:
                self.check_mined(miner, result)
            elif result != self.reference:
                raise Failure(f"{miner} output changed between rounds")
            else:
                self.record(f"mine_{miner}_s", wall)
                if miner == "apriori":
                    self.record("mine_rss_mb", rss)
        setup, rss, minflt, load = self.serve_round()
        faults += minflt
        if not warm:
            self.record("setup_s", setup)
            for qps in load["closed_qps"]:
                self.record("serve_qps", qps)
            self.record("serve_p50_ms", load["open_p50_ms"])
            self.record("serve_rss_mb", rss)
        return faults, load

    def same_file(self, a, b):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            if fa.read() != fb.read():
                raise Failure("a rebuilt map differs from the first build")

    # ---- checks ----

    def check_mined(self, miner, result):
        total, found = result
        if miner == "apriori":
            problems = oracle.check_mining(self.oracle, self.minsup, total,
                                           found)
            if problems:
                raise Failure(f"apriori: {problems[0]}")
            unmapped = self.mine("apriori", with_map=False)[-1]
            if unmapped != result:
                raise Failure("mining without the map reports other itemsets")
            self.reference = result
        elif result != self.reference:
            raise Failure(f"{miner} and apriori report different itemsets")

    def check_maps(self):
        rng = random.Random(self.seed)
        items = self.config["collection"]["items"]
        samples = [tuple(sorted(rng.sample(range(items), rng.randint(2, 4))))
                   for _ in range(300)]
        hot = self.layout["hot"]
        samples += [tuple(sorted(rng.sample(h, 3))) for h in hot]
        for out in ("greedy.ossm", "rc.ossm"):
            try:
                rows = oracle.read_map(self.path(out))
            except ValueError as error:
                raise Failure(str(error))
            problems = oracle.check_map(self.oracle, rows,
                                        self.config["segments"], samples)
            if problems:
                raise Failure(f"{out}: {problems[0]}")

    # ---- modes ----

    def measure(self, seconds):
        self.round(warm=True)
        self.check_maps()
        deadline = time.monotonic() + seconds
        rounds = 0
        while rounds == 0 or time.monotonic() < deadline:
            self.round(warm=False)
            rounds += 1
        log(f"{rounds} timed rounds")
        for name, values in self.samples.items():
            q = statistics.quantiles(values, n=4) if len(values) > 1 \
                else values * 3
            log(f"  {name}: min {min(values):.6g}, median {q[1]:.6g}, "
                f"max {max(values):.6g}, IQR/median "
                f"{(q[2] - q[0]) / q[1]:.3f}")
        metrics = {name: BEST.get(name, statistics.median)(v)
                   for name, v in self.samples.items()}
        return report(metrics, "end_to_end")

    def trace(self):
        faults, _ = self.round(warm=True)
        self.check_maps()
        c = self.config
        _, _, _, text = self.run(
            [self.probe, "layers", f"--data={self.path('data.txt')}",
             f"--map={self.path('greedy.ossm')}",
             f"--threshold={c['threshold']}", f"--mix={self.path('mix.txt')}",
             f"--minsup={self.minsup}", f"--closed={c['mix']['closed']}",
             f"--segments={c['segments']}", f"--page={c['page']}"],
            child_env(WORK_THREADS))
        metrics = json.loads(text.splitlines()[-1])
        load = self.serve_round(stats=True)[-1]
        stats = {k: int(v) for k, v in load["stats"].items()}
        metrics["serve.queue_wait_p50_us"] = stats["queue_wait_p50_us"]
        metrics["serve.loadgen_late_p99_us"] = 1e3 * load["late_p99_ms"]
        metrics["serve.batch_mean"] = stats["queries"] / max(
            1, stats["batches"])
        metrics["proc.minor_faults"] = faults
        # The program's own tracing (OSSM_METRICS) against the untraced
        # mine, interleaved.
        plain, traced = [], []
        for _ in range(5):
            plain.append(self.mine("apriori")[0])
            traced.append(self.mine("apriori", tracing="json")[0])
        metrics["trace.overhead_ratio"] = (statistics.median(traced) /
                                           statistics.median(plain))
        return report(metrics, "per_layer")


def report(metrics, kind):
    declared = declared_metrics(kind)
    missing = set(declared) - set(metrics)
    if missing:
        raise Failure(f"no value for {sorted(missing)}")
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in declared.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli, probe = build_program()
    start = time.monotonic()
    work = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    bench = Bench(args.workload, args.seed, cli, probe, work)
    try:
        bench.make_inputs()
        log(f"inputs ready in {time.monotonic() - start:.2f} s")
        metrics = bench.trace() if args.trace else bench.measure(args.seconds)
        correct = True
    except Failure as failure:
        log(f"FAILED: {failure}")
        metrics, correct = {}, False
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
