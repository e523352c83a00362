"""Collect benchmark runs and compare two result sets.

    # ten runs, one per seed, of this checkout; one JSON line per run
    python3 perfbench/compare.py collect --workload np200 --seeds 1-10 --out a.jsonl

    # steadiness: spread (IQR / median) of every end-to-end metric against its
    # bound; with a second set, also its median against the first one's
    python3 perfbench/compare.py steady a.jsonl [b.jsonl]

    # parent against change: pairs alternate which checkout runs first
    python3 perfbench/compare.py pairs --parent ../parent --change . --workload np200 \\
        --pairs 10 --out pairs.jsonl
    python3 perfbench/compare.py report pairs.jsonl

Both checkouts must hold the same perfbench/ and BENCHMARK.json, so the
parent is measured with identical benchmark code and settings.  Verdicts
follow the benchmark's rules: a gain needs the change to win at least nine
tenths of the pairs (ties count for neither) and the medians to differ by
more than the parent's quartile distance; a regression is a median worse by
more than the metric's bound; when the parent's own spread exceeds the bound
the metric is unresolved unless every change run beats every parent run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(checkout, workload, seed, seconds, trace):
    """One benchmark run in `checkout`; returns (result, manifest), with the
    printed `outputs_identical` added to the manifest."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run failed in {checkout} ({workload}, seed {seed}):\n{proc.stderr[-2000:]}")
    manifest = next(json.loads(l[len("manifest: "):]) for l in lines if l.startswith("manifest: "))
    manifest["outputs_identical"] = next(
        l.split("=", 1)[1].strip() for l in lines if l.startswith("outputs_identical = ")
    )
    return json.loads(lines[-1]), manifest


def _append(path, record):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")


def _load(paths):
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            records += [json.loads(line) for line in fh if line.strip()]
    return records


def _values(records, workload, metric):
    return [r["result"]["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and metric in r["result"]["metrics"]]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _better(a, b, better):
    """+1 if a is better than b, -1 if worse, 0 on a tie."""
    if a == b:
        return 0
    return 1 if (a > b) == (better == "higher") else -1


def verdict(parent, change, wins, pairs, metric):
    """improved / unchanged / worse / unresolved for one metric."""
    bound, better = metric["bound"], metric["better"]
    p1, pm, p3 = _quartiles(parent)
    cm = statistics.median(change)
    gain = (cm - pm) if better == "higher" else (pm - cm)
    if pairs and wins >= 0.9 * pairs and gain > p3 - p1:
        return "improved"
    all_better = all(_better(c, p, better) > 0 for c in change for p in parent)
    if (p3 - p1) > bound * abs(pm):
        return "unchanged" if all_better else "unresolved"
    return "worse" if -gain > bound * abs(pm) else "unchanged"


def cmd_collect(args):
    spec = _spec()
    seconds = args.seconds or spec["run_seconds"]
    for seed in _seeds(args.seeds):
        result, manifest = run_once(args.checkout, args.workload, seed, seconds, args.trace)
        _append(args.out, {"side": args.side, "workload": args.workload, "seed": seed,
                           "pair": None, "result": result, "manifest": manifest})
        print(f"{args.workload} seed {seed}: correct={result['correct']} "
              f"identical={manifest['outputs_identical']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    return 0


def cmd_pairs(args):
    seconds = args.seconds or _spec()["run_seconds"]
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = [("parent", args.parent), ("change", args.change)]
        if i % 2:
            order.reverse()
        for side, checkout in order:
            result, manifest = run_once(checkout, args.workload, seed, seconds, 0)
            _append(args.out, {"side": side, "workload": args.workload, "seed": seed, "pair": i,
                               "first": order[0][0], "result": result, "manifest": manifest})
        print(f"pair {i} done ({order[0][0]} first)", flush=True)
    return 0


def cmd_report(args):
    records = _load(args.files)
    spec = _spec()
    workloads = sorted({r["workload"] for r in records})
    print("workload\tmetric\tparent q1/median/q3\tchange q1/median/q3\twins\tverdict")
    for workload in workloads:
        mine = [r for r in records if r["workload"] == workload]
        by_pair = {}
        for r in mine:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = _values([r for r in mine if r["side"] == "parent"], workload, name)
            change = _values([r for r in mine if r["side"] == "change"], workload, name)
            if not parent or not change:
                continue
            pairs = [(p["parent"], p["change"]) for p in by_pair.values() if len(p) == 2]
            wins = sum(
                _better(c["result"]["metrics"][name]["value"], p["result"]["metrics"][name]["value"],
                        metric["better"]) > 0
                for p, c in pairs
            )
            pq, cq = _quartiles(parent), _quartiles(change)
            print(f"{workload}\t{name}\t" + "/".join(f"{v:.5g}" for v in pq) + "\t"
                  + "/".join(f"{v:.5g}" for v in cq) + f"\t{wins}/{len(pairs)}\t"
                  + verdict(parent, change, wins, len(pairs), metric))
        failed = sum(r["result"]["failed"] for r in mine if r["side"] == "change")
        print(f"{workload}\tfailed trials on the change side: {failed}")
    return 0


def cmd_steady(args):
    """Each spread within its bound (setup_s exempt); aim for a third of it.
    With a second set, no median worse than the first by more than the bound."""
    spec = _spec()
    first = _load([args.first])
    second = _load([args.second]) if args.second else []
    ok = True
    print("workload\tmetric\tn\tmedian\tspread\tbound\tstatus")
    for workload in sorted({r["workload"] for r in first}):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = _values(first, workload, name)
            if not values:
                continue
            q1, med, q3 = _quartiles(values)
            spread = (q3 - q1) / abs(med)
            status = "steady" if spread < bound / 3 else "within bound" if spread <= bound else "TOO WIDE"
            if status == "TOO WIDE" and name != "setup_s":
                ok = False
            again = _values(second, workload, name)
            if again:
                med2 = statistics.median(again)
                worse = (med - med2) if metric["better"] == "higher" else (med2 - med)
                status += f"; second median {med2:.5g}"
                if worse > bound * abs(med):
                    status += " WORSE BY MORE THAN BOUND"
                    ok = False
            print(f"{workload}\t{name}\t{len(values)}\t{med:.5g}\t{spread:.4f}\t{bound}\t{status}")
        failed = sum(r["result"]["failed"] for r in first + second if r["workload"] == workload)
        if failed:
            ok = False
            print(f"{workload}\t{failed} failed trials")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="one run per seed of one checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="range like 1-10")
    p.add_argument("--checkout", type=Path, default=ROOT)
    p.add_argument("--side", default="change", choices=("parent", "change"))
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_collect)
    p = sub.add_parser("pairs", help="alternating parent/change runs")
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_pairs)
    p = sub.add_parser("report", help="per workload and metric verdicts")
    p.add_argument("files", nargs="+", type=Path)
    p.set_defaults(func=cmd_report)
    p = sub.add_parser("steady", help="spread and repeatability of a result set")
    p.add_argument("first", type=Path)
    p.add_argument("second", type=Path, nargs="?")
    p.set_defaults(func=cmd_steady)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
