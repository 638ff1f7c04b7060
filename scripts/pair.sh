#!/usr/bin/env bash
# Paired benchmark runs of two revisions of this repository.
#
#   scripts/pair.sh <parent> <change> [--pairs N] [--aligned]
#                   [--workloads w,...] [--seed S] [--seconds T] [--dir DIR]
#
# Each side is a `git archive` of its revision, unpacked into a work
# directory (vendor/ is in the tree, so this runs offline), and builds its
# own benchmark/ into its own target directory; the repository's checkout,
# its .git and its benchmark/ are only read. Each pair runs every workload
# once per side with `--trace 0` (each side's benchmark binary, as its
# benchmark/run.sh runs it), the side that goes first alternating from
# pair to pair, and bfs_exhaust always runs in the same batch.
#
# The report is one table per workload. Per end-to-end metric: each side's
# median [q1, q3] over the pairs (the quartiles of Python's
# `statistics.quantiles`, as the benchmark's own summaries), how many pairs
# the change was ahead in, the ratio of the medians (change / parent) and
# a flag:
#   outside  each side's median lies outside the other side's [q1, q3]
#   DIFFERS  a count metric (targets_per_request, target_recall,
#            sim_makespan_s, failed_share) took a value on one side that
#            it never took on the other
# Read `outside` with the ahead count: two sides drawn from one normal
# distribution get it on about one metric in nine at 6 pairs and one in
# fourteen at 10 (simulated). A last line per workload states its cost per
# request (1 / requests_per_s) as a ratio to bfs_exhaust's in the same
# pair, per side.
#
# Options:
#   --pairs N        pairs to run (default 8)
#   --aligned        build both sides with -C llvm-args=-align-all-functions=6,
#                    so a code-placement shift cannot pass for a change
#   --workloads LIST comma-separated workloads (default: every workload the
#                    change side's BENCHMARK.json declares)
#   --seed S         benchmark --seed (default 1)
#   --seconds T      benchmark --seconds per run (default 3)
#   --dir DIR        keep the exports, builds and every run's JSON result in
#                    DIR and reuse the builds on the next call (default: a
#                    fresh temporary directory, removed on exit). Results
#                    are kept per seed, in DIR/results/seed-S: a call
#                    replaces only the runs of its own --seed.
#
# Example:
#   scripts/pair.sh HEAD~1 HEAD --workloads serve_refresh --pairs 10
set -euo pipefail

usage() {
    sed -n '2,/^set -euo/p' "${BASH_SOURCE[0]}" | sed '$d' | sed 's/^# \{0,1\}//'
}

pairs=8
aligned=0
workloads=""
seed=1
seconds=3
dir=""
revs=()
while [ $# -gt 0 ]; do
    case "$1" in
        -h | --help) usage; exit 0 ;;
        --pairs) pairs="$2"; shift 2 ;;
        --aligned) aligned=1; shift ;;
        --workloads) workloads="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --dir) dir="$2"; shift 2 ;;
        -*) echo "pair: unknown option $1" >&2; usage >&2; exit 2 ;;
        *) revs+=("$1"); shift ;;
    esac
done
if [ "${#revs[@]}" -ne 2 ]; then
    usage >&2
    exit 2
fi
case "$pairs" in
    '' | *[!0-9]* | 0 | 1) echo "pair: --pairs needs a whole number of at least 2" >&2; exit 2 ;;
esac

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent_sha="$(git -C "$repo" rev-parse --verify "${revs[0]}^{commit}")"
change_sha="$(git -C "$repo" rev-parse --verify "${revs[1]}^{commit}")"

if [ -n "$dir" ]; then
    mkdir -p "$dir"
    work="$(cd "$dir" && pwd)"
else
    work="$(mktemp -d "${TMPDIR:-/tmp}/pair.XXXXXX")"
    trap 'rm -rf "$work"' EXIT
fi

rustflags="${RUSTFLAGS:-}"
if [ "$aligned" = 1 ]; then
    rustflags="${rustflags:+$rustflags }-C llvm-args=-align-all-functions=6"
fi

# Builds `sha`'s benchmark into $work/<side>/target, unless it is built
# there already with the same flags. Both sides are unpacked at one path,
# $work/tree, in turn: the source path feeds the crates' symbol hashes, so
# one commit built at two paths links into two differently laid-out
# binaries, while built at one path it links into the same bytes. `tar -m`
# stamps the files with the current time, so cargo never takes another
# revision's build for this one.
prepare() {
    local side="$1" sha="$2"
    local root="$work/$side"
    local stamp="$sha $rustflags"
    if [ "$(cat "$root/built" 2>/dev/null)" = "$stamp" ]; then
        return
    fi
    echo "pair: building $side ($sha) ..." >&2
    rm -rf "$work/tree" "$root/built"
    mkdir -p "$work/tree" "$root"
    git -C "$repo" archive "$sha" | tar -x -m -C "$work/tree"
    CARGO_TARGET_DIR="$root/target" RUSTFLAGS="$rustflags" \
        cargo build --release --offline --quiet --manifest-path "$work/tree/benchmark/Cargo.toml" >&2
    cp "$work/tree/BENCHMARK.json" "$root/BENCHMARK.json"
    echo "$stamp" > "$root/built"
}

prepare parent "$parent_sha"
prepare change "$change_sha"

if [ -z "$workloads" ]; then
    workloads="$(python3 -c 'import json, sys
print(",".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
        "$work/change/BENCHMARK.json")"
fi
case ",$workloads," in
    *,bfs_exhaust,*) ;;
    *) workloads="bfs_exhaust,$workloads" ;;
esac
IFS=, read -r -a wl <<< "$workloads"

results="$work/results/seed-$seed"
rm -rf "$results"
mkdir -p "$results"

# One run of one side: the last stdout line of its benchmark binary, run
# as its benchmark/run.sh runs it.
run_side() {
    local side="$1" workload="$2" pair="$3"
    local out="$results/$side.$workload.$pair.json"
    "$work/$side/target/release/sb-benchmark" --out "$work/$side/out" --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1 > "$out"
    if ! grep -q '"correct":true' "$out"; then
        echo "pair: $side $workload pair $pair did not report a correct run:" >&2
        cat "$out" >&2
        exit 1
    fi
}

for ((p = 0; p < pairs; p++)); do
    if [ $((p % 2)) = 0 ]; then order=(parent change); else order=(change parent); fi
    echo "pair: pair $((p + 1))/$pairs, ${order[0]} first" >&2
    for w in "${wl[@]}"; do
        run_side "${order[0]}" "$w" "$p"
        run_side "${order[1]}" "$w" "$p"
    done
done

python3 - "$results" "$work/change/BENCHMARK.json" "$pairs" "$workloads" \
    "$parent_sha" "$change_sha" "$aligned" "$seed" "$seconds" <<'EOF'
import json, statistics, sys

results, manifest, pairs, workloads, parent, change, aligned, seed, seconds = sys.argv[1:]
pairs = int(pairs)
better = {m["name"]: m["better"] for m in json.load(open(manifest))["end_to_end"]}
COUNTS = ("targets_per_request", "target_recall", "sim_makespan_s", "failed_share")

def runs(side, workload):
    out = []
    for p in range(pairs):
        with open(f"{results}/{side}.{workload}.{p}.json") as f:
            out.append({k: v["value"] for k, v in json.load(f)["metrics"].items()})
    return out

def summary(v):
    q1, med, q3 = statistics.quantiles(v, n=4)
    return q1, med, q3

def fmt(x):
    return f"{x:.6g}"

print(f"parent {parent[:12]}  change {change[:12]}  pairs {pairs}  seed {seed}  "
      f"seconds {seconds}  aligned {'yes' if aligned == '1' else 'no'}")
bfs = {side: runs(side, "bfs_exhaust") for side in ("parent", "change")}
for w in workloads.split(","):
    a, b = runs("parent", w), runs("change", w)
    print(f"\n### {w}\n")
    print("| metric | parent median [q1, q3] | change median [q1, q3] | change ahead | ratio | flag |")
    print("|---|---|---|---|---|---|")
    for m in a[0]:
        va, vb = [r[m] for r in a], [r[m] for r in b]
        qa, qb = summary(va), summary(vb)
        ahead = "-"
        if m in better:
            sign = -1 if better[m] == "lower" else 1
            ahead = f"{sum(sign * (y - x) > 0 for x, y in zip(va, vb))}/{pairs}"
        ratio = fmt(qb[1] / qa[1]) if qa[1] else "-"
        flag = ""
        if m in COUNTS and set(va) != set(vb):
            flag = "DIFFERS"
        elif not qa[0] <= qb[1] <= qa[2] and not qb[0] <= qa[1] <= qb[2]:
            flag = "outside"
        print(f"| {m} | {fmt(qa[1])} [{fmt(qa[0])}, {fmt(qa[2])}] "
              f"| {fmt(qb[1])} [{fmt(qb[0])}, {fmt(qb[2])}] | {ahead} | {ratio} | {flag} |")
    if w != "bfs_exhaust":
        cost = {}
        for side, rs in (("parent", a), ("change", b)):
            per = [base["requests_per_s"] / r["requests_per_s"] for base, r in zip(bfs[side], rs)]
            q1, med, q3 = summary(per)
            cost[side] = f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}]"
        print(f"\nper-request cost / bfs_exhaust's, same pair: "
              f"parent {cost['parent']}, change {cost['change']}")
EOF
