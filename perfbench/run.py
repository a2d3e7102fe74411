#!/usr/bin/env python3
"""The chipletqc benchmark: four workloads users of this reproduction run,
measured end to end (``--trace 0``) or layer by layer (``--trace 1``).

Run it from the root of a checkout:

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 8 --trace 0

It builds the engine CLI and ``perfbench-helper`` (``perfbench/helper``)
into ``$CARGO_TARGET_DIR`` (default ``.bench_build``), runs one workload
in a fresh directory under it, checks every output, removes the
directory and every process it started, and prints two JSON lines: the
run's details (host facts, work counters, failures), then the result.
The one-shot workloads run at the engine's quick scale; ``--scale paper``
runs them at paper scale instead, which is too slow to measure steadily
in one run. See ``perfbench/README.md`` for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

# Workloads, metric names and units, as BENCHMARK.json (beside
# perfbench/) declares them.
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")) as f:
    _SPEC = json.load(f)
WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# Paper-scale fabrication campaigns of the figure suite: one per chiplet
# design and one per monolithic system size.
PAPER_CAMPAIGNS = (9, 49)

# Measured segments per run of the daemon workloads, each on freshly
# set-up daemons; the median set-up time is reported.
SERVE_SEGMENTS = 4
MESH_SEGMENTS = 4

# Set-up runs of a one-shot workload at quick scale; the median set-up
# time is reported. At paper scale, where one run takes 11-16 s, set-up
# runs once.
SETUP_RUNS = 9

SWEEP = "examples/sweeps/chiplet_grid.sweep"
WAIT_S = 60


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(1, min(len(ordered), math.ceil(q * len(ordered)))) - 1]


class Run:
    """One workload run: its directory, binaries and child processes."""

    def __init__(self, args):
        self.args = args
        self.target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.engine = os.path.join(self.target, "release", "chipletqc-engine")
        self.helper = os.path.join(self.target, "release", "perfbench-helper")
        self.dir = os.path.relpath(
            os.path.join(self.target, "perfbench-runs", "%s-%d" % (args.workload, os.getpid()))
        )
        self.daemons = []
        self.children = []
        self.peak_rss_mb = 0.0
        self.counters = {}
        self.failures = {}

    # -- processes -----------------------------------------------------

    def build(self):
        if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates/engine")):
            raise BenchError("not a chipletqc checkout: run from the repository root")
        env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        for cmd in (
            ["cargo", "build", "--release", "--offline", "--quiet", "-p", "chipletqc-engine"],
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", "perfbench/helper/Cargo.toml"],
        ):
            if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
                raise BenchError("build failed: %s" % " ".join(cmd))

    def store_bytes(self, store):
        """Bytes of the readable entries of a result store, from the
        engine's own `store stats`."""
        proc = subprocess.run([self.engine, "store", "stats", "--cache-dir", store],
                              stdout=subprocess.PIPE, text=True)
        totals = [line.split() for line in proc.stdout.splitlines()
                  if line.split()[:1] == ["total"]]
        if proc.returncode != 0 or len(totals) != 1:
            raise BenchError("store stats failed on %s" % store)
        return int(totals[0][2])

    def helper_json(self, *argv):
        """Runs a helper subcommand; returns its last stdout line as JSON."""
        proc = subprocess.run([self.helper] + list(argv), stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise BenchError("perfbench-helper %s failed" % argv[0])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def timed_child(self, argv, name):
        """Runs one engine process to completion:
        (wall s, cpu s, mean RSS MB, bytes it read through read calls)."""
        with open(os.path.join(self.dir, name + ".log"), "w") as out:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT)
            self.children.append(proc)
            sampler = RssSampler([proc.pid])
            # Wait without reaping, so the exited process's I/O counters
            # can still be read.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - started
            read_bytes = proc_io(proc.pid)["rchar"]
            _, status, usage = os.wait4(proc.pid, 0)
            self.children.remove(proc)
            rss = sampler.stop()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise BenchError("%s exited with %d (see %s.log)" % (argv[1:3], proc.returncode, name))
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        return wall, usage.ru_utime + usage.ru_stime, rss, read_bytes

    def start_daemon(self, name, argv):
        """Starts `serve`, waits for its listening line; returns (proc, tcp addr)."""
        path = os.path.join(self.dir, name + ".log")
        out = open(path, "w")
        proc = subprocess.Popen([self.engine, "serve"] + argv, stdout=out, stderr=subprocess.STDOUT)
        out.close()
        self.daemons.append(proc)
        deadline = time.monotonic() + WAIT_S
        while time.monotonic() < deadline:
            with open(path) as f:
                for line in f:
                    if "listening on tcp " in line:
                        return proc, line.split("listening on tcp ")[1].split()[0]
            if proc.poll() is not None:
                break
            time.sleep(0.002)
        raise BenchError("daemon %s did not start (see %s)" % (name, path))

    def stop_daemon(self, proc):
        """SIGTERM (the daemon drains), SIGKILL after a grace period.
        Returns the daemon's lifetime CPU seconds from wait4."""
        if proc not in self.daemons:
            return 0.0
        self.daemons.remove(proc)
        if proc.returncode is not None:
            return 0.0
        proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 10
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if not pid and time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
                return usage.ru_utime + usage.ru_stime
            time.sleep(0.01)

    def stop_all(self):
        """Kills one-shot children and stops daemons, waiting for each."""
        for proc in self.children:
            proc.kill()
            proc.wait()
        for proc in list(self.daemons):
            try:
                self.stop_daemon(proc)
            except ChildProcessError:
                pass

    @staticmethod
    def cpu_s(proc):
        with open("/proc/%d/stat" % proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def fail(self, kind, count=1):
        self.failures[kind] = self.failures.get(kind, 0) + count

    # -- one-shot workloads ---------------------------------------------

    def digest(self, out_dir):
        """Digest of the artifacts plus the counter-stripped report."""
        stripped = subprocess.run(
            [self.helper, "strip", os.path.join(out_dir, "run_report.json")],
            stdout=subprocess.PIPE,
        )
        if stripped.returncode != 0:
            return None
        h = hashlib.sha256(stripped.stdout)
        names = sorted(
            os.path.relpath(os.path.join(top, name), out_dir)
            for top, _, files in os.walk(out_dir) for name in files
        )
        for name in names:
            if name != "run_report.json":
                h.update(name.encode() + b"\0")
                with open(os.path.join(out_dir, name), "rb") as f:
                    h.update(f.read())
        return h.hexdigest()

    @staticmethod
    def report(out_dir):
        with open(os.path.join(out_dir, "run_report.json")) as f:
            return json.load(f)

    def one_shot_workload(self, extra, expect_campaigns, warm_store):
        """Set-up runs the workload up to SETUP_RUNS times, each with a fresh
        store when it uses one (the cold runs that warm it), and takes the
        first run's digest as the reference; every set-up and measured
        run must reproduce it. The measured runs use the last store."""
        quick = ["--quick"] if self.args.scale == "quick" else []
        base = [self.engine, "--workers", "2"] + quick + extra

        setups, reference = [], None
        for i in range(SETUP_RUNS if quick else 1):
            started = time.perf_counter()
            store = os.path.join(self.dir, "store%d" % i)
            cache = ["--cache-dir", store] if warm_store else []
            ref_dir = os.path.join(self.dir, "setup%d" % i)
            self.timed_child(base + cache + ["--out", ref_dir], "setup%d" % i)
            digest = self.digest(ref_dir)
            setups.append(time.perf_counter() - started)
            fab = self.report(ref_dir)["fabrication"]
            campaigns = (fab["chiplet_campaigns"], fab["mono_campaigns"])
            if i == 0:
                reference, first_campaigns = digest, campaigns
                self.counters["reference_campaigns"] = list(campaigns)
            if (digest is None or digest != reference or campaigns != first_campaigns
                    or (expect_campaigns and campaigns != PAPER_CAMPAIGNS)):
                self.fail("reference")
            shutil.rmtree(ref_dir)
        if warm_store:
            self.counters["store_bytes_written"] = self.store_bytes(store)

        walls, cpus, rss, reads, measured = [], [], [], [], []
        window = time.perf_counter()
        while not walls or time.perf_counter() - window < self.args.seconds:
            out_dir = os.path.join(self.dir, "run%d" % len(walls))
            wall, cpu, mean_rss, read_bytes = self.timed_child(
                base + cache + ["--out", out_dir], "run%d" % len(walls))
            reads.append(read_bytes)
            walls.append(wall)
            cpus.append(cpu)
            rss.append(mean_rss)
            fab = self.report(out_dir)["fabrication"]
            ran = (fab["chiplet_campaigns"], fab["mono_campaigns"])
            measured.append(list(ran))
            if self.digest(out_dir) != reference:
                self.fail("mismatch")
            elif ran != ((0, 0) if warm_store else first_campaigns):
                self.fail("campaigns")
            shutil.rmtree(out_dir)
        self.counters["campaigns"] = measured[0]
        # On the warm sweep these are the store's entries, read back.
        self.counters["engine_read_bytes"] = reads[0]
        return len(walls), {
            "setup_s": statistics.median(setups),
            "op_p50_ms": statistics.median(walls) * 1e3,
            "op_p90_ms": nearest_rank(walls, 0.9) * 1e3,
            "ops_per_s": len(walls) / sum(walls),
            "cpu_ms_per_op": statistics.median(cpus) * 1e3,
            "rss_mean_mb": statistics.median(rss),
        }

    def paper_suite(self):
        return self.one_shot_workload([], self.args.scale == "paper", warm_store=False)

    def linkratio_sweep(self):
        text = "name = linkratio; kind = fig10; scale = %s; link_ratio = 1, 2.5" % self.args.scale
        return self.one_shot_workload(
            ["--sweep-text", text], self.args.scale == "paper", warm_store=True
        )

    # -- daemon workloads -------------------------------------------------

    def segments(self, start, subcommand, count):
        """Sets up and measures `count` times, a share of the window each,
        on fresh daemons, so the daemons' poll phases average out.
        Returns (ops, end-to-end metrics, last helper output, last set-up)."""
        count = 1 if self.args.trace else count
        setups, latencies, rss, cpu, ops, window = [], [], [], 0.0, 0, 0.0
        for i in range(count):
            started = time.perf_counter()
            procs, argv, where = start(os.path.join(self.dir, "segment%d" % i))
            setups.append(time.perf_counter() - started)
            cpu_before = sum(self.cpu_s(p) for p in procs)
            status_before = self.status(argv) if self.args.trace else None
            sampler = RssSampler([p.pid for p in procs])
            out = self.helper_json(subcommand, *argv, "--segment", str(i),
                                   "--seconds", str(self.args.seconds / count),
                                   *(["--trace"] if self.args.trace else []))
            rss.append(sampler.stop())
            if self.args.trace:
                out["store"] = store_layers(status_before, self.status(argv))
            # The daemons' CPU from the window's start to their exit, so
            # write-behind work a request left running is counted too.
            cpu += sum(self.stop_daemon(p) for p in procs) - cpu_before
            latencies += out["latencies_ms"]
            ops += out["ops"]
            window += out["window_s"]
            self.counters.update(out.get("counters", {}))
            for kind, failed in out["failures"].items():
                if failed:
                    self.fail(kind, failed)
        metrics = {
            "setup_s": statistics.median(setups),
            "op_p50_ms": statistics.median(latencies),
            "op_p90_ms": nearest_rank(latencies, 0.9),
            "ops_per_s": ops / window,
            "cpu_ms_per_op": cpu * 1e3 / ops,
            "rss_mean_mb": statistics.median(rss),
        }
        return ops, metrics, out, where

    def token(self, where):
        path = os.path.join(where, "token")
        with open(path, "w") as f:
            f.write("perfbench-%d\n" % os.getpid())
        return path

    def status(self, argv):
        """The serve daemon's telemetry snapshot (empty for mesh workers)."""
        if "--socket" not in argv:
            return {}
        socket = argv[argv.index("--socket") + 1]
        proc = subprocess.run([self.engine, "status", "--socket", socket],
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise BenchError("status request failed")
        return json.loads(proc.stdout)["telemetry"]

    def serve_mixed(self):
        def start(where):
            os.makedirs(where)
            socket = os.path.join(where, "d.sock")
            token = self.token(where)
            proc, addr = self.start_daemon(os.path.basename(where), [
                "--socket", socket, "--listen", "127.0.0.1:0", "--token-file", token,
                "--cache-dir", os.path.join(where, "store"), "--workers", "2",
            ])
            argv = ["--socket", socket, "--addr", addr, "--token-file", token,
                    "--seed", str(self.args.seed)]
            self.helper_json("serve-warm", *argv)
            if self.args.trace:
                self.stored_before_window = self.store_bytes(os.path.join(where, "store"))
            return [proc], argv, where

        ops, metrics, out, where = self.segments(start, "serve-run", SERVE_SEGMENTS)
        if self.args.trace:
            stored = self.store_bytes(os.path.join(where, "store"))
            self.layers = dict(out["layers"], **out["store"])
            self.layers["store.bytes_written"] = stored - self.stored_before_window
        return ops, metrics

    def mesh_sweep(self):
        def start(where):
            os.makedirs(where)
            token = self.token(where)
            procs, addrs = [], []
            for w in range(2):
                proc, addr = self.start_daemon("%s-worker%d" % (os.path.basename(where), w), [
                    "--listen", "127.0.0.1:0", "--token-file", token, "--mesh-worker",
                    "--workers", "1",
                ])
                procs.append(proc)
                addrs.append(addr)
            argv = ["--workers", ",".join(addrs), "--token-file", token, "--sweep", SWEEP,
                    "--seed", str(self.args.seed)]
            self.helper_json("mesh-warm", *argv)
            return procs, argv, where

        ops, metrics, out, _ = self.segments(start, "mesh-run", MESH_SEGMENTS)
        self.counters.update({
            "units_per_run": out["units"] // max(1, out["ops"]),
            "retries": out["retries"],
        })
        if self.args.trace:
            self.layers = out["layers"]
        return ops, metrics

    # -- traced replays of the one-shot workloads --------------------------

    def replay(self):
        if self.args.workload == "paper_suite":
            out = self.helper_json("replay-paper", "--scale", self.args.scale,
                                   "--seed", str(self.args.seed))
        else:
            out = self.helper_json("replay-linkratio", "--scale", self.args.scale,
                                   "--dir", self.dir)
        if not out["correct"]:
            self.fail("replay")
        layers = out["layers"]
        self.counters.update({
            "chiplet_campaigns": layers["lab.chiplet_campaigns"],
            "mono_campaigns": layers["lab.mono_campaigns"],
        })
        if self.args.scale == "paper":
            expected = PAPER_CAMPAIGNS if self.args.workload == "paper_suite" else (0, 0)
            if (layers["lab.chiplet_campaigns"], layers["lab.mono_campaigns"]) != expected:
                self.fail("campaigns")
        self.layers = layers
        return 1

    # -- the run ------------------------------------------------------------

    def execute(self):
        os.makedirs(self.dir)
        self.layers = {}
        if self.args.trace and self.args.workload in ("paper_suite", "linkratio_sweep"):
            attempted, metrics = self.replay(), {}
        else:
            attempted, metrics = getattr(self, self.args.workload)()
        # Latencies the run takes but does not gate: on a shared 2-vCPU
        # host, CPU steal moves them between runs of the same code by
        # more than any bound (see perfbench/README.md).
        ungated = {name: value for name, value in metrics.items() if name not in END_TO_END}
        if self.args.trace:
            for key in ("transpile.calls", "transpile.swaps", "store.bytes_read", "mesh.units"):
                if key in self.layers:
                    self.counters[key] = self.layers[key]
            metrics = {name: float(self.layers.get(name, 0)) for name in PER_LAYER}
            units = PER_LAYER
        else:
            units = END_TO_END
        failed = min(attempted, sum(self.failures.values()))
        detail = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "scale": self.args.scale,
            "host": {"nproc": len(os.sched_getaffinity(0)), "profile": "release",
                     "platform": sys.platform},
            "counters": self.counters,
            "failures": self.failures,
            "failed_ratio": failed / attempted,
            "peak_rss_mb": self.peak_rss_mb,
            "ungated": ungated,
            "spans": self.layers.get("spans", ""),
        }
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }
        return detail, result


class RssSampler:
    """Samples the summed resident memory of `pids` every 20 ms on a
    thread; `stop` returns the mean in MB. A mean over the run is steady
    where the peak is not: the suite's peak depends on which scenarios
    happen to overlap and reads about 430 or 680 MB from run to run."""

    def __init__(self, pids):
        self.pids = pids
        self.samples = []
        self.done = threading.Event()
        self.thread = threading.Thread(target=self.sample, daemon=True)
        self.thread.start()

    def sample(self):
        while True:
            total = 0
            for pid in self.pids:
                try:
                    with open("/proc/%d/status" % pid) as f:
                        total += next(int(line.split()[1]) for line in f
                                      if line.startswith("VmRSS:"))
                except (OSError, StopIteration):
                    pass
            if total:
                self.samples.append(total / 1024.0)
            if self.done.wait(0.02):
                return

    def stop(self):
        self.done.set()
        self.thread.join()
        return statistics.fmean(self.samples) if self.samples else 0.0


def proc_io(pid):
    """The I/O counters of /proc/PID/io, by name."""
    with open("/proc/%d/io" % pid) as f:
        return {key: int(value) for key, value in (line.split(": ") for line in f)}


def store_layers(before, after):
    """Daemon store figures over the measured window, from its telemetry."""
    def hist(snapshot, name):
        return snapshot.get("histograms", {}).get(name, {}).get("sum_us", 0)

    def count(snapshot, name):
        return snapshot.get("counters", {}).get(name, 0)

    return {
        "store.put_s": (hist(after, "store.put.local") - hist(before, "store.put.local")) / 1e6,
        "store.get_s": (hist(after, "store.get.local") - hist(before, "store.get.local")) / 1e6,
        "store.misses": count(after, "store.misses") - count(before, "store.misses"),
        "store.hits": count(after, "store.hits") - count(before, "store.hits"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("quick", "paper"), default="quick")
    args = parser.parse_args()

    def on_signal(signum, _frame):
        raise BenchError("interrupted by signal %d" % signum)

    signal.signal(signal.SIGTERM, on_signal)
    run = Run(args)
    try:
        run.build()
        detail, result = run.execute()
    except (BenchError, OSError, ValueError, KeyError) as error:
        log("perfbench: %s" % error)
        return 1
    finally:
        run.stop_all()
        shutil.rmtree(run.dir, ignore_errors=True)
    print(json.dumps(detail))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
