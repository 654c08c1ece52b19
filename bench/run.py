"""End-to-end benchmark of the abelianj command line.

    python3 bench/run.py --workload {fuzz,kahler,check} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --smoke

Run from the root of a checkout; abelianj is imported from its `src/`.
One run sets up its workload (import, input files from the seed, one
untimed warm-up op), then runs whole rounds of the same ops through
`abelianj.cli.main` for about S seconds, then checks every output.  The
last line of stdout is one JSON object: `correct`, `attempted`, `failed`
and the metrics (end-to-end with --trace 0, per-layer with --trace 1).
Inputs, op outputs and results go to bench/out/<workload>/.  See
bench/README.md for the workloads and metrics.
"""
import time

_T_START = time.perf_counter()

import argparse                      # noqa: E402
import contextlib                    # noqa: E402
import hashlib                       # noqa: E402
import io                            # noqa: E402
import json                          # noqa: E402
import os                            # noqa: E402
import resource                      # noqa: E402
import shutil                        # noqa: E402
import statistics                    # noqa: E402
import subprocess                    # noqa: E402
import sys                           # noqa: E402
import traceback                     # noqa: E402

import speed                                 # noqa: E402
from tracing import Tracer, metric_specs     # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(SRC, "abelianj", "fixtures")
OUT = os.path.join(BENCH_DIR, "out")

# setup_s is the median of this run's own set-up and this many more, each
# in a fresh process
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60
# op run by --smoke, per workload: a mid fuzz op, a generated dim-8 Kähler
# input, the dim-8 sparse check
SMOKE_OP = {"fuzz": 0, "kahler": 2, "check": 6}


def _import_abelianj():
    sys.path.insert(0, SRC)
    try:
        import abelianj.cli
    except ImportError as exc:
        sys.exit("bench: cannot import abelianj from %s: %s" % (SRC, exc))
    where = os.path.abspath(abelianj.cli.__file__)
    if not where.startswith(SRC + os.sep):
        sys.exit("bench: abelianj was imported from %s, not from %s" % (where, SRC))
    return abelianj.cli


def setup(workload, seed, workdir, meter):
    """Import, write the inputs, run the warm-up op; returns (cli, ops,
    set-up seconds since process start, scaled like the op times and
    without the benchmark's own pick of inputs)."""
    mark = meter.mark()
    cli = _import_abelianj()
    import workloads
    pick, build = workloads.WORKLOADS[workload]
    pick_mark = meter.mark()
    picks = pick(seed)
    pick_s = meter.since(pick_mark)[0]
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ops, warmup = build(picks, workdir, FIXTURES)
    run_op(cli, warmup, meter)
    dt, scale = meter.since(mark)
    return cli, ops, (dt - pick_s + mark[2] - _T_START) * scale


def run_op(cli, op, meter):
    """Run one op; returns (seconds, speed scale, exit code or None,
    stdout, stderr, error)."""
    if op.report and os.path.exists(op.report):
        os.remove(op.report)
    out, err = io.StringIO(), io.StringIO()
    error = None
    mark = meter.mark()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except (Exception, SystemExit):
        rc, error = None, traceback.format_exc(limit=4)
    dt, scale = meter.since(mark)
    return dt, scale, rc, out.getvalue(), err.getvalue(), error


class Ledger:
    """Op times and outputs of a run; each distinct output is kept once."""

    def __init__(self, ops):
        self.ops = ops
        self.raw_times = []
        self.times = []             # scaled to the host's quiet speed
        self.keys = []              # (op index, output digest) per op run
        self.outputs = {}           # (op index, digest) -> (rc, stdout, stderr, report, error)
        self.rounds = []            # summed scaled op time per round

    def run_round(self, cli, meter):
        total = 0.0
        for idx, op in enumerate(self.ops):
            dt, scale, rc, out, err, error = run_op(cli, op, meter)
            report = None
            if op.report and os.path.exists(op.report):
                with open(op.report, "r", encoding="utf-8") as fh:
                    report = fh.read()
            digest = hashlib.sha256(repr((rc, out, report, error)).encode()).hexdigest()
            self.outputs.setdefault((idx, digest), (rc, out, err, report, error))
            scaled = dt * scale
            self.raw_times.append(dt)
            self.times.append(scaled)
            self.keys.append((idx, digest))
            total += scaled
        self.rounds.append(total)

    def run_for(self, cli, meter, seconds):
        """Whole rounds, stopping when one more would end past `seconds`
        by more than half a round."""
        start = time.perf_counter()
        while True:
            self.run_round(cli, meter)
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / len(self.rounds) >= seconds:
                return

    def verify(self):
        """Verdict per distinct output: None when right, else (kind, reason)
        with kind "error" (raised or nonzero exit) or "wrong"."""
        import verify       # imports sympy, so only after the timed ops
        verdicts = {}
        for (idx, digest), (rc, out, err, report, error) in self.outputs.items():
            if error is not None:
                verdicts[(idx, digest)] = ("error", error)
            elif rc != 0:
                verdicts[(idx, digest)] = ("error", "exit %s: %s" % (rc, err.strip()))
            else:
                check = self.ops[idx].check
                try:
                    reason = getattr(verify, check[0])(out, report, *check[1:])
                except Exception:
                    reason = "check raised: " + traceback.format_exc(limit=4)
                verdicts[(idx, digest)] = None if reason is None else ("wrong", reason)
        return verdicts

    def summary(self, verdicts):
        bad = [verdicts[k] for k in self.keys if verdicts[k] is not None]
        return {"correct": not any(v[0] == "wrong" for v in bad),
                "attempted": len(self.keys), "failed": len(bad)}

    def op_records(self, verdicts):
        recs = []
        for idx, op in enumerate(self.ops):
            runs = [i for i, k in enumerate(self.keys) if k[0] == idx]
            recs.append({"name": op.name, "argv": list(op.argv),
                         "seconds": [self.times[i] for i in runs],
                         "raw_seconds": [self.raw_times[i] for i in runs],
                         "verdicts": [verdicts[self.keys[i]] for i in runs]})
        return recs


def probe_setup(workload, seed):
    """Set-up times of SETUP_PROBES fresh processes."""
    out = []
    for k in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--probe-setup", str(k)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit("bench: set-up probe failed: %s" % proc.stderr.strip())
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _write(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def main_run(args):
    workdir = os.path.join(OUT, args.workload)
    results = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace}
    tracer = Tracer()
    with speed.SpeedMeter() as meter:
        cli, ops, setup_s = setup(args.workload, args.seed,
                                  os.path.join(workdir, "io"), meter)
        ledger = Ledger(ops)
        if args.trace:
            ledger.run_round(cli, meter)
            tracer.install()
            try:
                ledger.run_for(cli, meter, args.seconds)
            finally:
                tracer.uninstall()
        else:
            ledger.run_for(cli, meter, args.seconds)
    if args.trace:
        untraced, traced = ledger.rounds[0], ledger.rounds[1:]
        metrics = tracer.metrics(len(traced) * len(ops))
        _write(os.path.join(workdir, "trace.json"), {
            "workload": args.workload, "seed": args.seed,
            "untraced_round_s": untraced, "traced_round_s": traced,
            "overhead": statistics.mean(traced) / untraced,
            "traced_ops": len(traced) * len(ops), "metrics": metrics})
        report = {name: _metric(metrics[name], unit) for name, unit, _ in metric_specs()}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups = [setup_s] + probe_setup(args.workload, args.seed)
        report = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "ops_per_s": _metric(len(ledger.times) / sum(ledger.times), "1/s"),
            "op_p50_s": _metric(statistics.median(ledger.times), "s"),
            "peak_rss_mb": _metric(rss_mb, "MB"),
        }
        results["setup_samples_s"] = setups
    verdicts = ledger.verify()
    line = dict(ledger.summary(verdicts), metrics=report)
    results.update(line, rounds=ledger.rounds, ops=ledger.op_records(verdicts))
    _write(os.path.join(workdir, "results.json"), results)
    print(json.dumps(line))


def main_smoke():
    """One op per workload, traced, with every check."""
    attempted = failed = 0
    correct = True
    for workload, idx in SMOKE_OP.items():
        tracer = Tracer()
        with speed.SpeedMeter() as meter:
            cli, ops, _ = setup(workload, 0, os.path.join(OUT, "smoke", workload), meter)
            ledger = Ledger([ops[idx]])
            tracer.install()
            try:
                ledger.run_round(cli, meter)
            finally:
                tracer.uninstall()
        summary = ledger.summary(ledger.verify())
        calls = tracer.metrics(1)["cli.main.calls"]
        print("%s: %s in %.2f s, %s, cli.main calls %g"
              % (workload, ops[idx].name, ledger.times[0], summary, calls))
        attempted += summary["attempted"]
        failed += summary["failed"] + (calls != 1)
        correct = correct and summary["correct"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {}}))
    return 0 if correct and not failed else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("fuzz", "kahler", "check"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run one op per workload with every check")
    ap.add_argument("--probe-setup", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.smoke:
        return main_smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.probe_setup is not None:
        with speed.SpeedMeter() as meter:
            setup_s = setup(args.workload, args.seed,
                            os.path.join(OUT, args.workload, "probe%d" % args.probe_setup),
                            meter)[2]
        print(json.dumps({"setup_s": setup_s}))
        return 0
    main_run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
