#!/usr/bin/env python3
"""Build and run the repository benchmark; compare two sets of results.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      Builds perfbench/bench.exe with dune, runs one workload in a fresh
      process and prints its report. The last stdout line is the result
      object. A record (result, detail, host and noise) is kept under
      perfbench/out/records/.
  python3 perfbench/run.py selftest
      Harness self-checks, the metric catalog against BENCHMARK.json, and
      a tiny smoke run of every workload, traced and untraced.
  python3 perfbench/run.py spread DIR
      Median and quartile spread of every metric over the records in DIR.
  python3 perfbench/run.py compare DIR_A DIR_B
      One row per workload and metric: each side's median and quartiles,
      the ratio B/A and a verdict (improved, unchanged, worse, unresolved).

Run from the repository root. Everything is read and written inside it.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.join(ROOT, "perfbench")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
RECORDS = os.path.join(HERE, "out", "records")
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
            stdout=sys.stderr, env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0 or not os.path.exists(EXE):
        fail(f"build failed (dune exit {r.returncode})")


def child(args, timeout=CHILD_TIMEOUT_S):
    """Run bench.exe; stderr passes through. Killed and reaped on timeout."""
    p = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        fail(f"bench.exe {' '.join(args)} timed out after {timeout} s")
    return p.returncode, out


def cpu_steal():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def loadavg():
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def tool(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=20).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def host_record(steal0, load0):
    return {
        "nproc": os.cpu_count(),
        "ocaml": tool(["ocamlfind", "ocamlopt", "-version"]) or "unknown",
        "flambda": tool(["ocamlfind", "ocamlopt", "-config-var", "flambda"]) == "true",
        "git_rev": (tool(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else "") or "unknown",
        "loadavg_before": load0,
        "loadavg_after": loadavg(),
        "steal_jiffies": cpu_steal() - steal0,
    }


def parse_result(line):
    try:
        res = json.loads(line)
    except ValueError:
        return None
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return res


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(argv):
    opts = dict(zip(argv[0::2], argv[1::2]))
    for k in ("--workload", "--seed", "--seconds", "--trace"):
        if k not in opts:
            fail(f"missing {k}")
    build()
    steal0, load0 = cpu_steal(), loadavg()
    code, out = child(argv)
    host = host_record(steal0, load0)
    lines = out.rstrip("\n").split("\n")
    res = parse_result(lines[-1]) if lines else None
    if code != 0 or res is None:
        sys.stdout.write(out)
        fail(f"bench.exe exited {code} without a result")
    detail = next((json.loads(l[len("detail: "):]) for l in lines if l.startswith("detail: ")), {})
    os.makedirs(RECORDS, exist_ok=True)
    name = f"{opts['--workload']}-s{opts['--seed']}-t{opts['--trace']}.json"
    with open(os.path.join(RECORDS, name), "w") as f:
        json.dump({"workload": opts["--workload"], "seed": int(opts["--seed"]),
                   "trace": opts["--trace"] == "1", "result": res, "detail": detail,
                   "host": host}, f, indent=1)
    for l in lines[:-1]:
        print(l)
    print("host: " + json.dumps(host))
    print(lines[-1])


def selftest():
    build()
    ok = True

    def check(name, cond):
        nonlocal ok
        print(("ok   " if cond else "FAIL ") + name)
        ok = ok and cond

    code, out = child(["selftest"])
    sys.stdout.write(out)
    check("bench.exe selftest", code == 0)
    spec = benchmark_spec()
    code, out = child(["metrics"])
    catalog = {"workload": [], "end_to_end": [], "per_layer": []}
    for l in out.split("\n"):
        if l:
            kind, *rest = l.split()
            catalog[kind].append(tuple(rest) if len(rest) > 1 else rest[0])
    for kind in ("end_to_end", "per_layer"):
        listed = [(m["name"], m["unit"]) for m in spec[kind]]
        check(f"every {kind} metric emitted is in BENCHMARK.json with its unit",
              sorted(catalog[kind]) == sorted(listed))
    check("every workload in BENCHMARK.json is one the harness runs",
          {w["name"] for w in spec["workloads"]} <= set(catalog["workload"]))
    for w in catalog["workload"]:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = child(["--workload", w, "--seed", "3", "--seconds", "0",
                               "--trace", trace, "--tiny"])
            lines = out.rstrip("\n").split("\n")
            res = parse_result(lines[-1]) if code == 0 else None
            check(f"{w} tiny smoke run, trace {trace}: failed_frac = 0",
                  res is not None and res["correct"] and res["failed"] == 0)
            check(f"{w} tiny smoke run, trace {trace}: emits exactly the {kind} metrics",
                  res is not None and sorted(res["metrics"]) == sorted(m["name"] for m in spec[kind]))
    if not ok:
        sys.exit(1)


def load_records(d):
    """(workload, metric) -> {seed: value}, end-to-end from untraced runs,
    per-layer from traced ones."""
    table = {}
    for name in sorted(os.listdir(d)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(d, name)) as f:
            rec = json.load(f)
        for metric, v in rec["result"]["metrics"].items():
            table.setdefault((rec["workload"], metric), {})[rec["seed"]] = v["value"]
    return table


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(d):
    for (w, metric), vals in sorted(load_records(d).items()):
        q1, med, q3 = quartiles(list(vals.values()))
        rel = (q3 - q1) / med if med else 0.0
        print(f"{w:13} {metric:34} n={len(vals):2} median={med:.6g} iqr/median={rel:.4f}")


def verdict(a, b, bound, better, paired):
    """A gain needs 9/10 paired wins and a median
    shift larger than A's own quartile spread; a loss is a median worse
    by more than the bound; a spread wider than the bound is unresolved
    unless every B run beats every A run."""
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    gain = sign * (ma - mb)  # > 0: B is better
    wins = sum(1 for x, y in paired if sign * (x - y) > 0)
    all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    noisy = ma and ((qa3 - qa1) / ma > bound or (qb3 - qb1) / ma > bound)
    if noisy and not all_better:
        return "unresolved"
    if gain > (qa3 - qa1) and paired and wins >= 0.9 * len(paired):
        return "improved"
    if -gain > bound * abs(ma):
        return "worse"
    return "unchanged"


def compare(da, db):
    spec = benchmark_spec()
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    ta, tb = load_records(da), load_records(db)
    print(f"{'workload':13} {'metric':34} {'A median [q1,q3]':>32} {'B median [q1,q3]':>32} "
          f"{'B/A':>7}  verdict")
    for key in sorted(set(ta) & set(tb)):
        w, metric = key
        a, b = ta[key], tb[key]
        pa, pb = quartiles(list(a.values())), quartiles(list(b.values()))
        ratio = pb[1] / pa[1] if pa[1] else float("nan")
        m = meta.get(metric, {})
        if "bound" in m:
            paired = [(a[s], b[s]) for s in sorted(set(a) & set(b))]
            v = verdict(list(a.values()), list(b.values()), m["bound"], m["better"], paired)
        else:
            v = "(per-layer, no bound)"
        fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g},{q[2]:.5g}]"
        print(f"{w:13} {metric:34} {fmt(pa):>32} {fmt(pb):>32} {ratio:7.3f}  {v}")


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["selftest"]:
        selftest()
    elif argv[:1] == ["spread"] and len(argv) == 2:
        spread(argv[1])
    elif argv[:1] == ["compare"] and len(argv) == 3:
        compare(argv[1], argv[2])
    elif argv and argv[0].startswith("--"):
        run(argv)
    else:
        fail(__doc__)


if __name__ == "__main__":
    main()
