#!/usr/bin/env python3
"""Alternated benchmark pairs: this change against its parent.

Builds two copies of the repository under `target/bench_pairs/`, each from
`git archive` of a commit: the parent, and the change. The change is the
working tree as it stands (tracked files, plus untracked ones that are not
ignored), recorded as a commit object made without touching the index or
the tree (HEAD itself when nothing differs), so the ledger names the exact
sources it measured. Both build the same way, each in its own directory, as
the `BENCHMARK.json` command does. Then it runs that command for N pairs at
the benchmark's `run_seconds`, one fresh seed per pair, alternating which
side runs first, and writes `BENCH_<issue>.json`:

    python3 scripts/bench_pairs.py run --issue <n> --parent HEAD --pairs 10 \
        --claim <workload>:<metric>

The verdict follows the benchmark's rules. Per workload and gated metric:

- a claimed gain needs the change better on at least 9 of 10 pairs (the
  same share of other counts) and a median that moved beyond the parent's
  quartile distance (q3 - q1) in the better direction;
- any metric whose change median is worse than the parent's by more than
  its bound (`end_to_end[].bound`) is a regression;
- so is any increase in failed operations, and a run that exits nonzero
  stops the script;
- a metric whose runs on either side spread (max - min) wider than its
  bound, relative to the parent's median, is "unresolved" rather than
  unchanged, unless every change run reads better than every parent run.

`index` prints the chain-linked trajectory: per workload and gated metric,
the product of the stored change/parent median ratios over every
`BENCH_*.json` in issue order. Each link was measured within one campaign,
so links compare where absolute medians taken on different days do not.

`layers` adds the traced pass's per-layer medians to a written file (a few
alternated runs per side, from the same two commits: the end-to-end pass
prints only the gated metrics). `check` validates existing files (CI runs
it on every `BENCH_*.json`): the schema, the run length and command against
`BENCHMARK.json`, and every stored summary and verdict recomputed from the
stored runs.
"""

import argparse
import glob
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, "target", "bench_pairs")
WIN_SHARE = 0.9


def git(*args, env=None):
    out = subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True, text=True, env=env)
    return out.stdout.strip()


def load_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def snapshot_worktree():
    """A commit holding the working tree's files (tracked, plus untracked
    ones that are not ignored), written through a scratch index so neither
    the index nor the tree is touched; HEAD when the two hold the same
    tree."""
    head = git("rev-parse", "HEAD")
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        tree = git("write-tree", env=env)
    if tree == git("rev-parse", "HEAD^{tree}"):
        return head
    return git("commit-tree", tree, "-p", head, "-m", "bench_pairs: measured working tree")


def extract_rev(rev, dest):
    """Write the files of commit `rev` into `dest`, keeping a previous
    build's `benchmark/target`. The files are stamped with the time of
    extraction, not the commit's (`tar -m`): cargo decides what to rebuild
    by modification time, and an older commit extracted over a newer
    build would otherwise be taken as already built."""
    reset_sources(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev], check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-m", "-C", dest], input=archive.stdout, check=True)


def reset_sources(dest):
    """Empty `dest` except its benchmark build directory."""
    os.makedirs(dest, exist_ok=True)
    for name in os.listdir(dest):
        if name == "benchmark":
            bench = os.path.join(dest, name)
            for inner in os.listdir(bench):
                if inner != "target":
                    remove(os.path.join(bench, inner))
        else:
            remove(os.path.join(dest, name))


def remove(path):
    if os.path.isdir(path) and not os.path.islink(path):
        shutil.rmtree(path)
    else:
        os.remove(path)


def build(dest):
    subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--offline", "--manifest-path", "benchmark/Cargo.toml"],
        cwd=dest,
        check=True,
    )


def run_once(dest, command, workload, seed, seconds, trace):
    """One pass (`trace` 0: end to end, 1: traced); returns (result object,
    context object). A run that exits nonzero or prints no result stops
    the script: it is a failed run, not a sample."""
    cmd = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=dest, capture_output=True, text=True)
    lines = [l for l in out.stdout.splitlines() if l.startswith("{")]
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} in {dest}: exit {out.returncode}, {len(lines)} result lines\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    context = json.loads(lines[-2]).get("context", {}) if len(lines) > 1 else {}
    return result, context


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metric, parent_runs, change_runs):
    """The per-metric record of `BENCH_<issue>.json`, verdict included."""
    higher = metric["better"] == "higher"
    p1, pm, p3 = quartiles(parent_runs)
    c1, cm, c3 = quartiles(change_runs)
    won = sum(1 for p, c in zip(parent_runs, change_runs) if (c > p if higher else c < p))
    ratio = cm / pm if pm else None
    gain = (cm - pm) if higher else (pm - cm)
    worse_by = -gain / pm if pm else 0.0
    spread = max(max(runs) - min(runs) for runs in (parent_runs, change_runs))
    if worse_by > metric["bound"]:
        verdict = "regression"
    elif won >= WIN_SHARE * len(parent_runs) and gain > p3 - p1:
        verdict = "gain"
    elif pm and spread / pm > metric["bound"] and not (
        min(change_runs) > max(parent_runs) if higher else max(change_runs) < min(parent_runs)
    ):
        verdict = "unresolved"
    elif gain < 0 and -gain > p3 - p1:
        verdict = "worse, inside bound"
    else:
        verdict = "unchanged"
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": {"median": pm, "q1": p1, "q3": p3, "runs": parent_runs},
        "change": {"median": cm, "q1": c1, "q3": c3, "runs": change_runs},
        "pairs_won": won,
        "ratio": ratio,
        "verdict": verdict,
    }


def prepare_sides(parent_rev, rev):
    """Extract and build both sides from their commits. Returns the
    directory of each side."""
    sides = {"parent": os.path.join(WORK, "parent"), "change": os.path.join(WORK, "change")}
    for (side, dest), commit in zip(sides.items(), (parent_rev, rev)):
        extract_rev(commit, dest)
        print(f"building {side} ({commit[:12]}) in {dest}", file=sys.stderr)
        build(dest)
    return sides


def cmd_run(args):
    spec = load_benchmark_spec()
    command = spec["command"]
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    gated = spec["end_to_end"]
    parent_rev = git("rev-parse", args.parent)
    rev = snapshot_worktree()
    sides = prepare_sides(parent_rev, rev)

    seed0 = args.seed0 if args.seed0 is not None else int.from_bytes(os.urandom(3), "little") + 1000
    seeds = [seed0 + i for i in range(args.pairs)]
    raw = {w: {"parent": [], "change": []} for w in workloads}
    nproc = os.cpu_count()
    for i, seed in enumerate(seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                t0 = time.time()
                result, context = run_once(sides[side], command, w, seed, seconds, trace=0)
                nproc = context.get("nproc", nproc)
                raw[w][side].append(result)
                value = result["metrics"].get("commits_per_s", {}).get("value")
                print(
                    f"pair {i + 1}/{args.pairs} seed {seed} {w} {side}: commits_per_s {value} "
                    f"failed {result['failed']} ({time.time() - t0:.0f} s)",
                    file=sys.stderr,
                )

    report = {
        "issue": args.issue,
        "rev": rev,
        "parent_rev": parent_rev,
        "nproc": nproc,
        "seconds": seconds,
        "pairs": args.pairs,
        "seeds": seeds,
        "command": command,
        "claims": [dict(zip(("workload", "metric"), c.split(":", 1))) for c in args.claim],
        "workloads": {},
    }
    for w in workloads:
        entry = {
            "failed": {
                side: sum(r["failed"] for r in raw[w][side]) for side in ("parent", "change")
            },
            "metrics": {},
        }
        for m in gated:
            runs = {side: [r["metrics"][m["name"]]["value"] for r in raw[w][side]] for side in raw[w]}
            entry["metrics"][m["name"]] = summarize(m, runs["parent"], runs["change"])
        report["workloads"][w] = entry

    write_report(report, os.path.join(ROOT, f"BENCH_{args.issue}.json"))
    return print_verdict(report)


def cmd_layers(args):
    """Add the traced pass's per-layer medians to an existing report:
    `--runs` alternated traced passes per workload and side, on the
    report's first seeds, at its run length, built from the report's two
    commits."""
    with open(args.file) as f:
        report = json.load(f)
    spec = load_benchmark_spec()
    errs = validate(report, spec)
    if errs:
        sys.exit("\n".join(errs))
    sides = prepare_sides(report["parent_rev"], report["rev"])
    seeds = report["seeds"][: args.runs]
    for w, entry in report["workloads"].items():
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                result, _ = run_once(sides[side], report["command"], w, seed, report["seconds"], trace=1)
                runs[side].append(result["metrics"])
                print(f"traced {i + 1}/{len(seeds)} seed {seed} {w} {side}", file=sys.stderr)
        entry["layers"] = {}
        for layer in spec["per_layer"]:
            name = layer["name"]
            values = {side: [m[name]["value"] for m in runs[side] if name in m] for side in runs}
            if values["parent"] and values["change"]:
                entry["layers"][name] = {
                    "unit": layer["unit"],
                    "better": layer["better"],
                    "parent": statistics.median(values["parent"]),
                    "change": statistics.median(values["change"]),
                }
    report["layer_runs"] = len(seeds)
    write_report(report, args.file)
    print_layers(report)
    return 0


def write_report(report, out):
    text = json.dumps(report, indent=1)
    # One line per list of plain values (runs, seeds, the command).
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    with open(out, "w") as f:
        f.write(text + "\n")
    print(f"wrote {out}", file=sys.stderr)


def print_layers(report):
    for w, entry in report["workloads"].items():
        for name, l in entry.get("layers", {}).items():
            print(f"{w:<15} {name:<40} parent {l['parent']:>14.3f}  change {l['change']:>14.3f}  {l['unit']}")


def print_verdict(report):
    """Print one row per workload and gated metric, then the overall
    verdict. Returns the exit code: 1 on a regression or a claim not met."""
    claims = {(c["workload"], c["metric"]) for c in report["claims"]}
    pairs = report["pairs"]
    ok = True
    print(f"rev {report['rev']} against {report['parent_rev']}, {pairs} pairs, nproc {report['nproc']}")
    for w, entry in report["workloads"].items():
        failed = entry["failed"]
        if failed["change"] > failed["parent"]:
            print(f"{w}: failed operations rose {failed['parent']} -> {failed['change']}")
            ok = False
        for name, m in entry["metrics"].items():
            claimed = (w, name) in claims
            row = (
                f"{w:<15} {name:<14} parent {m['parent']['median']:>12.1f} "
                f"[{m['parent']['q1']:.1f}, {m['parent']['q3']:.1f}]  change {m['change']['median']:>12.1f}  "
                f"x{m['ratio'] or 0:.3f}  won {m['pairs_won']}/{pairs}  {m['verdict']}"
            )
            if claimed:
                row += "  (claimed)"
                ok &= m["verdict"] == "gain"
            ok &= m["verdict"] != "regression"
            print(row)
    print("verdict:", "pass" if ok else "FAIL")
    return 0 if ok else 1


TOP_KEYS = {"issue", "rev", "parent_rev", "nproc", "seconds", "pairs", "seeds", "command", "claims", "workloads"}


def validate(report, spec):
    """Every problem with one report, as strings: its schema, its run
    length and command against `spec`, and each metric's stored summary
    against one recomputed from its stored runs."""
    errs = []
    if not isinstance(report, dict):
        return ["not an object"]
    missing = TOP_KEYS - report.keys()
    if missing:
        return [f"missing keys {sorted(missing)}"]
    pairs = report["pairs"]
    if not isinstance(pairs, int) or pairs < 1:
        errs.append("pairs must be a positive integer")
        pairs = 0
    if not (isinstance(report["seeds"], list) and len(report["seeds"]) == pairs):
        errs.append("seeds must list one seed per pair")
    for key in ("rev", "parent_rev"):
        if not isinstance(report[key], str) or not re.fullmatch(r"[0-9a-f]{40}", report[key]):
            errs.append(f"{key} must be a full commit id")
    if not isinstance(report["nproc"], int) or report["nproc"] < 1:
        errs.append("nproc must be a positive integer")
    if report["seconds"] != spec["run_seconds"]:
        errs.append(f"seconds {report['seconds']} is not BENCHMARK.json's run_seconds {spec['run_seconds']}")
    if report["command"] != spec["command"]:
        errs.append("command is not BENCHMARK.json's command")
    for c in report["claims"]:
        if set(c) != {"workload", "metric"}:
            errs.append(f"claim {c} must name a workload and a metric")
        elif c["metric"] not in report["workloads"].get(c["workload"], {}).get("metrics", {}):
            errs.append(f"claim {c} names no measured metric")
    names = [w["name"] for w in spec["workloads"]]
    if sorted(report["workloads"]) != sorted(names):
        errs.append(f"workloads {sorted(report['workloads'])} are not BENCHMARK.json's {sorted(names)}")
    gated = {m["name"]: m for m in spec["end_to_end"]}
    for w, entry in report["workloads"].items():
        if not {"failed", "metrics"} <= entry.keys():
            errs.append(f"{w}: needs failed and metrics")
            continue
        for name, l in entry.get("layers", {}).items():
            if not all(isinstance(l.get(side), (int, float)) for side in ("parent", "change")):
                errs.append(f"{w}.{name}: a layer needs numeric parent and change medians")
        if sorted(entry["metrics"]) != sorted(gated):
            errs.append(f"{w}: metrics {sorted(entry['metrics'])} are not BENCHMARK.json's {sorted(gated)}")
        for name, m in entry["metrics"].items():
            where = f"{w}.{name}"
            try:
                runs = [m[side]["runs"] for side in ("parent", "change")]
            except (KeyError, TypeError):
                errs.append(f"{where}: needs parent and change runs")
                continue
            if any(len(r) != pairs for r in runs):
                errs.append(f"{where}: {[len(r) for r in runs]} runs for {pairs} pairs")
                continue
            if name not in gated:
                continue
            expected = summarize(gated[name], *runs)
            for key, want in expected.items():
                if m.get(key) != want:
                    errs.append(f"{where}.{key}: stored {m.get(key)!r}, recomputed {want!r}")
    return errs


def cmd_check(args):
    spec = load_benchmark_spec()
    bad = False
    for path in args.files:
        with open(path) as f:
            errs = validate(json.load(f), spec)
        for e in errs:
            print(f"{path}: {e}")
        bad |= bool(errs)
        if not errs:
            print(f"{path}: ok")
    return 1 if bad else 0


def cmd_index(args):
    """Print, per workload and gated metric, the product of the stored
    ratios over every ledger in issue order, and the issues multiplied (a
    ledger whose ratio is missing, from a zero parent median, is left
    out of that product and named)."""
    spec = load_benchmark_spec()
    reports = []
    for path in glob.glob(os.path.join(ROOT, "BENCH_*.json")):
        with open(path) as f:
            reports.append(json.load(f))
    reports.sort(key=lambda r: r["issue"])
    print(f"chain-linked index over issues {[r['issue'] for r in reports]}")
    for w in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            product, used, missing = 1.0, [], []
            for r in reports:
                ratio = r["workloads"].get(w, {}).get("metrics", {}).get(m["name"], {}).get("ratio")
                if ratio is None:
                    missing.append(r["issue"])
                else:
                    product *= ratio
                    used.append(r["issue"])
            row = f"{w:<15} {m['name']:<14} x{product:.3f}  ({m['better']} is better)  issues {used}"
            if missing:
                row += f"  no ratio in {missing}"
            print(row)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="build both sides, run the pairs, write BENCH_<issue>.json")
    run.add_argument("--issue", type=int, required=True)
    run.add_argument("--parent", default="HEAD", help="parent revision (default HEAD: the working tree's base)")
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--seed0", type=int, help="first seed (default: a fresh random one)")
    run.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    check = sub.add_parser("check", help="validate BENCH_*.json files against BENCHMARK.json and their runs")
    check.add_argument("files", nargs="+")
    sub.add_parser("index", help="print the chain-linked index: the product of every ledger's ratios")
    layers = sub.add_parser("layers", help="add traced per-layer medians to one BENCH_*.json")
    layers.add_argument("file")
    layers.add_argument("--runs", type=int, default=3, help="traced passes per workload and side")
    args = ap.parse_args()
    return {"run": cmd_run, "check": cmd_check, "index": cmd_index, "layers": cmd_layers}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
