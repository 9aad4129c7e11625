#!/usr/bin/env python3
"""Gate kernel-bench perf trajectories against their committed baselines.

Usage: check_bench_regression.py <committed.json> <fresh.json> [<committed2.json> <fresh2.json> ...]

Each argument pair is one trajectory file (see crates/bench/README.md):
`BENCH_kernels.json` (matmul + ensemble) and `BENCH_gnn_kernels.json` (DGCNN
train/score fan-outs + streamed-vs-materialized) are both gated. Every file
holds one entry per (op, dims, threads) with `speedup_vs_baseline` — blocked
kernel vs naive loop, parallel pool vs serial, or streamed training vs the
materialized path. Speedups are *relative* measurements taken on one
machine, so they transfer across runners far better than raw ns/iter; the
committed file is the floor the fresh run is diffed against.

Rules (the 1.5x floor logic, applied both absolutely and to the diff):

* HARD absolute floor: `matmul_nt` at 128x128x128 must hold >= 1.5x naive
  (the paper target; it measures >= 2.5x even on a noisy single-core box,
  so falling below 1.5x is a real regression), and
  `gnn_train_epoch_streamed` must hold >= 0.5x the materialized training
  path (streaming trades peak memory for at most a modest constant factor;
  it measures ~0.9x, so dropping below half speed means the streamed
  pipeline itself regressed). Both are same-machine ratios, so they
  transfer across runners. Hard-floor keys are only required in the pair
  whose baseline contains them.
* SOFT absolute floor: `matmul` / `matmul_tn` at 128x128x128 warn below
  1.05x (they sit in shared-runner timing noise of their quick-mode medians).
* RELATIVE floor: every entry present in both files FAILS if its fresh
  speedup drops below `committed / 1.5` *and* below the 1.5x absolute bar —
  an entry still >= 1.5x its baseline kernel is fast, not regressed, even if
  the committed number was higher. Entries whose committed speedup is < 1.0
  (e.g. parallel rows measured on a single-core box) only warn: there is no
  meaningful floor to derive from them.
* COVERAGE: a committed entry missing from the fresh run FAILS — a renamed
  or dropped kernel silently leaving the gate is exactly the rot this gate
  exists to prevent. Refresh the committed baseline deliberately instead.

When `$GITHUB_STEP_SUMMARY` is set, a one-line-per-file markdown summary
table is appended to it.

Exit code 1 on any FAIL.
"""

import json
import os
import sys

HARD_ABS = {
    ("matmul_nt", "128x128x128", 1): 1.5,
    ("gnn_train_epoch_streamed", "16x40n", 1): 0.5,
}
SOFT_ABS = {
    ("matmul", "128x128x128", 1): 1.05,
    ("matmul_tn", "128x128x128", 1): 1.05,
}
RELATIVE_SLACK = 1.5
ABS_OK_BAR = 1.5


def load(path):
    with open(path) as f:
        data = json.load(f)
    return {
        (e["op"], e["dims"], e["threads"]): e["speedup_vs_baseline"]
        for e in data["entries"]
    }


def check_pair(baseline_path, fresh_path):
    """Gates one (committed, fresh) trajectory pair.

    Returns (failed, counts) where counts is {"ok": n, "warn": n, "fail": n}.
    """
    baseline = load(baseline_path)
    fresh = load(fresh_path)
    failed = False
    counts = {"ok": 0, "warn": 0, "fail": 0}
    print(f"--- gating {fresh_path} against {baseline_path} ---")

    for key, floor in HARD_ABS.items():
        if key not in baseline:
            continue  # this pair does not carry the hard-floor kernel
        if key not in fresh:
            print(f"{key}: MISSING from fresh run  <-- FAIL")
            failed = True
            counts["fail"] += 1
        elif fresh[key] < floor:
            print(f"{key}: {fresh[key]:.2f}x < hard floor {floor}x  <-- FAIL")
            failed = True
            counts["fail"] += 1
        else:
            print(f"{key}: {fresh[key]:.2f}x >= hard floor {floor}x  ok")
            counts["ok"] += 1

    # Soft floors print advisories only; the entry is counted once by the
    # shared relative loop below.
    for key, floor in SOFT_ABS.items():
        if key in fresh and fresh[key] < floor:
            print(f"{key}: {fresh[key]:.2f}x < soft floor {floor}x  (warn only)")

    # Hard-floor keys already failed above when missing — don't count the
    # same absence twice in the summary.
    missing = sorted(set(baseline) - set(fresh) - set(HARD_ABS))
    for key in missing:
        # A committed entry the bench no longer emits means that kernel is
        # no longer being diffed; refresh the baseline deliberately instead.
        print(f"{key}: in committed baseline but MISSING from fresh run  <-- FAIL")
        failed = True
        counts["fail"] += 1

    shared = sorted(set(baseline) & set(fresh))
    if not shared:
        print("no overlapping entries between baseline and fresh run  <-- FAIL")
        failed = True
        counts["fail"] += 1
    for key in shared:
        if key in HARD_ABS:
            # Already gated (and counted once) by its absolute floor above.
            continue
        base, now = baseline[key], fresh[key]
        if base < 1.0:
            if now < base / RELATIVE_SLACK:
                print(
                    f"{key}: {now:.2f}x vs committed {base:.2f}x "
                    f"(committed < 1.0x: warn only)"
                )
                counts["warn"] += 1
            else:
                counts["ok"] += 1
            continue
        floor = base / RELATIVE_SLACK
        if now < floor and now < ABS_OK_BAR:
            print(
                f"{key}: {now:.2f}x < {floor:.2f}x "
                f"(committed {base:.2f}x / {RELATIVE_SLACK})  <-- FAIL"
            )
            failed = True
            counts["fail"] += 1
        elif now < floor:
            print(
                f"{key}: {now:.2f}x below committed-derived floor {floor:.2f}x "
                f"but still >= {ABS_OK_BAR}x absolute  (warn only)"
            )
            counts["warn"] += 1
        else:
            print(f"{key}: {now:.2f}x (committed {base:.2f}x)  ok")
            counts["ok"] += 1

    return failed, counts


def write_step_summary(rows):
    """Appends a one-line-per-file markdown table to $GITHUB_STEP_SUMMARY."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = [
        "### Kernel perf gate",
        "",
        "| trajectory | entries ok | warn | fail | verdict |",
        "|---|---|---|---|---|",
    ]
    for name, counts, failed in rows:
        verdict = ":x: regression" if failed else ":white_check_mark: green"
        lines.append(
            f"| `{name}` | {counts['ok']} | {counts['warn']} "
            f"| {counts['fail']} | {verdict} |"
        )
    with open(path, "a") as f:
        f.write("\n".join(lines) + "\n")


def main():
    args = sys.argv[1:]
    if len(args) < 2 or len(args) % 2 != 0:
        print(__doc__)
        return 2
    any_failed = False
    summary_rows = []
    for baseline_path, fresh_path in zip(args[::2], args[1::2]):
        failed, counts = check_pair(baseline_path, fresh_path)
        any_failed = any_failed or failed
        summary_rows.append((os.path.basename(fresh_path), counts, failed))
    write_step_summary(summary_rows)
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
