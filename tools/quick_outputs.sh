#!/usr/bin/env bash
# Records every quick runtime surface of the repository, so that two
# checkouts can be compared with `diff -r`:
#
#   tools/quick_outputs.sh OUTDIR
#
# Builds the workspace in release mode, then runs
#   * every sumq-bench binary with --quick,
#   * multidomain_churn --quick --seed 42, plain and with --latency,
#     --rebirth, --adaptive, --adaptive --latency, --zipf and --reconcile,
#   * every root-crate example.
# Each run works in its own directory under OUTDIR, which holds its
# stdout (`stdout.txt`), its exit code (`exit_code`) and any BENCH_*.json
# it wrote; stderr passes through. Host wall-clock fields are masked
# with `#`: the incr_ms and full_ms columns of the --reconcile table and
# CSV, and the *_micros keys of BENCH_reconcile.json. With that masking,
# `diff -r` of two checkouts' OUTDIRs is empty when no output moved.
# Honors CARGO_TARGET_DIR.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
mkdir -p "$1"
out="$(cd "$1" && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac

(cd "$root" && cargo build --release --offline --workspace --bins --examples -q)

# Masks the two host-time columns of the reconcile table and its CSV.
# Table cells are re-joined with single spaces, since their widths follow
# the masked values.
mask_reconcile_stdout() {
    awk '
        /^ *n +drift +stale +incr_merged/ { tbl = 1; $1 = $1; print; next }
        /^n,drift,stale,incr_merged,/ { csv = 1; print; next }
        /^$/ { tbl = 0; csv = 0; print; next }
        tbl && /^-+$/ { print "-"; next }
        tbl && NF == 11 { $8 = "#"; $10 = "#"; print; next }
        csv && split($0, f, ",") == 11 {
            f[8] = "#"; f[10] = "#"
            line = f[1]
            for (i = 2; i <= 11; i++) line = line "," f[i]
            print line
            next
        }
        { print }
    ' "$1" > "$1.masked" && mv "$1.masked" "$1"
}

# run NAME PROGRAM [ARGS...]: runs PROGRAM in OUTDIR/NAME.
run() {
    local name="$1"
    shift
    local dir="$out/$name"
    rm -rf "$dir"
    mkdir -p "$dir"
    local code=0
    (cd "$dir" && "$@" > stdout.txt) || code=$?
    echo "$code" > "$dir/exit_code"
    echo "$name: exit $code" >&2
}

for src in "$root"/crates/bench/src/bin/*.rs; do
    bin="$(basename "$src" .rs)"
    run "bin_$bin" "$target/release/$bin" --quick
done

churn="$target/release/multidomain_churn"
run churn_plain "$churn" --quick --seed 42
run churn_latency "$churn" --quick --seed 42 --latency
run churn_rebirth "$churn" --quick --seed 42 --rebirth
run churn_adaptive "$churn" --quick --seed 42 --adaptive
run churn_adaptive_latency "$churn" --quick --seed 42 --adaptive --latency
run churn_zipf "$churn" --quick --seed 42 --zipf
run churn_reconcile "$churn" --quick --seed 42 --reconcile
mask_reconcile_stdout "$out/churn_reconcile/stdout.txt"
sed -i 's/"\([a-z_]*_micros\)": [0-9]*/"\1": #/g' "$out/churn_reconcile/BENCH_reconcile.json"

for src in "$root"/examples/*.rs; do
    ex="$(basename "$src" .rs)"
    run "example_$ex" "$target/release/examples/$ex"
done
