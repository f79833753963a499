#!/usr/bin/env python3
"""A/B the benchmark: a base revision against this working tree.

Run from anywhere:

    python3 scripts/ab.py --base <rev> --workload <name> --pairs N --seed0 S [--seconds 30]

The base revision is exported with `git archive` into a temporary
directory, which is removed on exit. Each side runs its own
`perfbench/run.py` with its own CARGO_TARGET_DIR: the base builds inside
the temporary directory, the working tree where run.py builds by default
(`$CARGO_TARGET_DIR`, else `.bench_build`). Pair i runs seed S + i on
both sides, base first on even pairs and change first on odd ones.

For each end-to-end metric in BENCHMARK.json the script prints each
side's median and quartiles, the change/base ratio of the medians, the
pairs the change won (the direction comes from the metric's `better`;
ties count for neither side), and the metric's verdict under the rules
a claimed change is checked against (see `verdict`: gain, unresolved,
worse than bound, or ok). It then prints, per seed, whether `hit_rate`
is equal on both sides, and each run's `failed` count. The exit code is
non-zero when any end-to-end metric's verdict is "worse than bound",
or when any run exits non-zero, reports `correct: false` or counts a
failed operation (see `exit_code`); "unresolved" passes. CI runs it
this way as its benchmark gate, against the base of the commit under
test. The script changes neither BENCHMARK.json nor perfbench/.

The rules have doctests: `python3 -m doctest scripts/ab.py`.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile


def export(root, rev, dest):
    """Writes the tree of `rev` into `dest`."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", root, "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"ab: git archive {rev} failed")


def run_side(tree, target, workload, seed, seconds):
    """Runs one benchmark process; returns (exit code, parsed result or None)."""
    env = dict(os.environ)
    if target is not None:
        env["CARGO_TARGET_DIR"] = target
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return done.returncode, result


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base, change, higher, bound):
    """One metric's verdict over paired runs.

    `base` and `change` hold the metric's values pair by pair, `higher`
    says whether a larger value is better, and `bound` is the metric's
    BENCHMARK.json bound, a fraction of the base median. The rules, in
    the order they are tried:

    - "gain": the change wins at least nine tenths of the pairs (ties
      count for neither side), and its median beats the base median by
      more than the base's interquartile range;
    - "unresolved": the base's interquartile range exceeds the bound,
      and not every change run beats every base run, so the runs spread
      too widely to tell;
    - "worse than bound": the change median is worse than the base
      median by more than the bound;
    - "ok": none of these.

    >>> base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    >>> verdict(base, [110] * 10, True, 0.25)
    'gain'
    >>> verdict(base, [110] * 8 + [90] * 2, True, 0.25)
    'ok'
    >>> verdict(base, [101] * 10, True, 0.25)
    'ok'
    >>> verdict([1.0, 2.0, 1.0, 2.0], [1.5] * 4, False, 0.25)
    'unresolved'
    >>> verdict([1.0, 2.0, 1.0, 2.0], [0.2] * 4, False, 0.25)
    'gain'
    >>> verdict([10, 10, 10, 10], [14, 14, 14, 14], False, 0.25)
    'worse than bound'
    """
    sign = 1 if higher else -1
    won = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    bq, cq = quartiles(base), quartiles(change)
    spread = bq[2] - bq[0]
    if won >= 0.9 * len(base) and sign * (cq[1] - bq[1]) > spread:
        return "gain"
    separated = min(sign * c for c in change) > max(sign * b for b in base)
    if spread > bound * abs(bq[1]) and not separated:
        return "unresolved"
    if sign * (bq[1] - cq[1]) > bound * abs(bq[1]):
        return "worse than bound"
    return "ok"


def exit_code(verdicts, checks_passed):
    """The exit code: 1 when a metric is "worse than bound" or a run
    failed its checks, else 0. "unresolved" passes, since runs that
    spread too widely to tell are no evidence of a regression.

    >>> exit_code(["ok", "gain", "unresolved", "ok", "ok", "ok"], True)
    0
    >>> exit_code(["ok", "gain", "worse than bound", "ok", "ok", "ok"], True)
    1
    >>> exit_code(["unresolved"] * 6, True)
    0
    >>> exit_code(["gain"] * 6, False)
    1
    """
    return 0 if checks_passed and "worse than bound" not in verdicts else 1


def report(spec, runs):
    """Prints the comparison; returns each end-to-end metric's verdict and
    whether every run passed its checks."""
    pairs = len(runs)
    print(f"\n{pairs} pairs; median [q1, q3] per side; ratio = change median / base median")
    print(f"{'metric':<16} {'base':>34} {'change':>34} {'ratio':>7} {'won':>6}  bound verdict")
    verdicts = []
    for m in spec["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        base = [r["base"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        bq, cq = quartiles(base), quartiles(change)
        won = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        ratio = cq[1] / bq[1] if bq[1] else float("nan")
        verdicts.append(verdict(base, change, higher, m["bound"]))
        print(f"{name:<16} {bq[1]:>12.6g} [{bq[0]:.6g}, {bq[2]:.6g}] "
              f"{cq[1]:>12.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {ratio:>7.3f} {won:>3}/{pairs}  "
              f"{m['bound']} {verdicts[-1]}")
    print("\nper seed: hit_rate base / change, failed base / change")
    ok = True
    for r in runs:
        hb = r["base"]["metrics"]["hit_rate"]["value"]
        hc = r["change"]["metrics"]["hit_rate"]["value"]
        fb, fc = r["base"]["failed"], r["change"]["failed"]
        same = "equal" if hb == hc else f"differ by {hc - hb:+.3g}"
        print(f"  seed {r['seed']}: hit_rate {hb} / {hc} ({same}); failed {fb} / {fc}")
        ok = ok and fb == 0 and fc == 0
    return verdicts, ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seed0", required=True, type=int)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    if args.pairs < 1 or args.seed0 < 0:
        parser.error("--pairs must be >= 1 and --seed0 >= 0")
    seconds = args.seconds or spec["run_seconds"]
    found = subprocess.run(["git", "-C", root, "rev-parse", "--verify", "--quiet",
                            f"{args.base}^{{commit}}"], stdout=subprocess.PIPE, text=True)
    if found.returncode != 0:
        parser.error(f"--base {args.base} is not a commit")
    rev = found.stdout.strip()

    # SIGTERM unwinds like Ctrl-C, so the temporary tree is removed either way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        base_tree = os.path.join(tmp, "base")
        export(root, rev, base_tree)
        sides = {"base": (base_tree, os.path.join(tmp, "target")), "change": (root, None)}
        print(f"base {rev[:12]} in {base_tree}; change is the working tree at {root}",
              file=sys.stderr)
        runs, all_ok = [], True
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            pair = {"seed": seed}
            for side in order:
                tree, target = sides[side]
                code, result = run_side(tree, target, args.workload, seed, seconds)
                passed = code == 0 and result is not None and result["correct"]
                print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: exit {code}"
                      f"{'' if passed else ' FAILED'}", file=sys.stderr)
                if result is None:
                    sys.exit(f"ab: {side} printed no result for seed {seed}")
                all_ok = all_ok and passed
                pair[side] = result
            runs.append(pair)
        verdicts, checks_ok = report(spec, runs)
    code = exit_code(verdicts, checks_ok and all_ok)
    print(f"\n{args.workload}: {'FAIL' if code else 'pass'}")
    sys.exit(code)


if __name__ == "__main__":
    main()
