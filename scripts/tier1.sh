#!/usr/bin/env bash
# Tier-1 verification: the plain Release build + full test suite, the
# quickstart and web_archive_indexing examples run end to end (work dirs
# under build/, so an example that can no longer open the index it built
# fails here), a `hetindex_cli compact` of the quickstart index that must
# re-fold a cmp-identical index.seg and then pass `hetindex_cli verify`, a
# live directory ingested with and then without positions (mixed merges),
# the hetbench benchmark tree and its harness self-test, then
# two sanitizer legs over the concurrency- and memory-critical tests:
#   - ThreadSanitizer on the threaded pipeline/observability/segment/live/
#     search/cluster tests (metric emission from parser threads, shared
#     SegmentReader lookups, snapshot readers racing live flushes,
#     deletes and compaction, the SearchService pool racing the live
#     writer, and the ShardRouter fan-out racing shard writers)
#   - ASan+UBSan on the binary-format and serving tests (run files,
#     segments, query path, MaxScore executor and caches), the robustness
#     tests (damaged run files, containers and dictionaries), the util tests
#     (the slice-by-8 CRC32's word loads at every alignment) and the property
#     tests (LzFuzz, the decoder fuzz test) to catch overruns and UB in the
#     decoders, the checksum and the mmap reader
#   - a fault-injection leg: the crash-consistency harness (trace-prefix
#     replay of flush/delete/update/compaction commits + injected
#     ENOSPC/EINTR/fsync faults, docs/DURABILITY.md) under ASan+UBSan,
#     once with the fixed seed and once with a randomized
#     HETINDEX_CRASH_SEED (printed, so failures replay)
#   - a bench leg (plain tree; the sanitizer trees build with
#     HETINDEX_BUILD_BENCH=OFF): bench_block_pruning emits
#     BENCH_pruning.json (pruned-vs-exhaustive latency and blocks skipped,
#     docs/SERVING.md), bench_search_qps emits BENCH_search.json
#     (per-class p50/p99 for the mixed ranked/AND/phrase/NEAR workload,
#     docs/QUERIES.md), bench_live_ingest emits BENCH_ingest.json
#     (ingest docs/s with and without concurrent memtable search load,
#     docs/LIVE_INDEXING.md), and bench_cluster_scaling emits
#     BENCH_cluster.json (router QPS/p99 vs shard count per partition
#     strategy, docs/CLUSTER.md). The leg then fails if any BENCH_*.json
#     carries a bench name that does not belong to its filename
#     (stale-artifact guard). bench_ablation_regroup runs once at a small
#     HETINDEX_SCALE and fails the leg if the regrouped and stream-order
#     serial indexers disagree on the term count (its shape checks only
#     print). Last, short hetbench runs (hetbench/README.md)
#     drive three workloads end to end, each failing on any output check:
#     build_batch (every rebuilt index.seg byte-identical to the first,
#     verify_index passes, pruned results equal exhaustive ones),
#     cluster_doc4 (every router answer complete from all 4 shards, 64
#     ranked queries identical to a single-node writer) and live_churn (no
#     answer shows a document deleted before the query was sent, during
#     ingest or after compaction)
#
# Each leg's wall-clock is reported in the summary at the end.
#
#   scripts/tier1.sh [--no-tsan] [--no-asan] [--no-faults] [--no-bench]
set -euo pipefail
cd "$(dirname "$0")/.."

run_tsan=1
run_asan=1
run_faults=1
run_bench=1
for arg in "$@"; do
  [[ "$arg" == "--no-tsan" ]] && run_tsan=0
  [[ "$arg" == "--no-asan" ]] && run_asan=0
  [[ "$arg" == "--no-faults" ]] && run_faults=0
  [[ "$arg" == "--no-bench" ]] && run_bench=0
done

# Per-leg wall-clock accounting, printed as a summary before "tier1: OK".
leg_names=()
leg_seconds=()
leg_start=0
leg_begin() { leg_start=$SECONDS; }
leg_end() {
  leg_names+=("$1")
  leg_seconds+=($(( SECONDS - leg_start )))
}

leg_begin
cmake -B build -S .
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"
rm -rf build/example-runs
./build/examples/quickstart build/example-runs/quickstart
./build/examples/web_archive_indexing build/example-runs/web_archive
# The fold is deterministic end to end: re-folding the quickstart's run
# files gives a byte-identical index.seg, and the directory still verifies.
qs_index=build/example-runs/quickstart/index
cp "$qs_index/index.seg" build/example-runs/quickstart-index.seg
./build/examples/hetindex_cli compact "$qs_index"
cmp build/example-runs/quickstart-index.seg "$qs_index/index.seg"
./build/examples/hetindex_cli verify "$qs_index"
# A live directory ingested with positions, then again without them and
# with deletes: its compactions fold windows that mix positional and plain
# parts of a term and must exit 0.
mixed_dir=build/example-runs/mixed-live
./build/examples/hetindex_cli generate "$mixed_dir/corpus" --preset wikipedia --mb 2
./build/examples/hetindex_cli live "$mixed_dir/corpus" "$mixed_dir/index" --positions
./build/examples/hetindex_cli live "$mixed_dir/corpus" "$mixed_dir/index" --delete-every 5
# The benchmark compiles against the public request/response types, so it
# is built (and its harness self-test run) here too: an API change that
# breaks hetbench fails tier-1 instead of the next benchmark run.
cmake -B build-hetbench -S hetbench
cmake --build build-hetbench -j "$(nproc)"
ctest --test-dir build-hetbench --output-on-failure
leg_end "build+ctest"

if [[ "$run_tsan" == 1 ]]; then
  leg_begin
  cmake -B build-tsan -S . -DHETINDEX_SANITIZE=thread \
        -DHETINDEX_BUILD_BENCH=OFF -DHETINDEX_BUILD_EXAMPLES=OFF \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "$(nproc)" --target test_pipeline test_obs test_segment test_live test_search_service test_block_max test_query_ast test_cluster test_parse test_ingest_faults
  ctest --test-dir build-tsan --output-on-failure -R '^(test_pipeline|test_obs|test_segment|test_live|test_search_service|test_block_max|test_query_ast|test_cluster|test_parse|test_ingest_faults)$'
  leg_end "tsan"
fi

if [[ "$run_asan" == 1 ]]; then
  leg_begin
  cmake -B build-asan -S . -DHETINDEX_SANITIZE=address \
        -DHETINDEX_BUILD_BENCH=OFF -DHETINDEX_BUILD_EXAMPLES=OFF \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "$(nproc)" --target test_segment test_postings test_codec test_query_ops test_query_ast test_live test_search_service test_block_max test_cluster test_ingest_faults test_property test_util test_robustness
  ctest --test-dir build-asan --output-on-failure -R '^(test_segment|test_postings|test_codec|test_query_ops|test_query_ast|test_live|test_search_service|test_block_max|test_cluster|test_ingest_faults|test_property|test_util|test_robustness)$'
  leg_end "asan"
fi

if [[ "$run_faults" == 1 ]]; then
  leg_begin
  # Reuses the ASan+UBSan tree: fault paths shake out lifetime bugs
  # (double-close, use-after-unmap) that a plain build would miss.
  cmake -B build-asan -S . -DHETINDEX_SANITIZE=address \
        -DHETINDEX_BUILD_BENCH=OFF -DHETINDEX_BUILD_EXAMPLES=OFF \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "$(nproc)" --target test_crash_consistency
  # Fixed seed first (the regression baseline), then one randomized seed to
  # keep growing coverage of torn-write offsets. The harness prints the
  # seed, so a CI failure is replayed with HETINDEX_CRASH_SEED=<seed>.
  HETINDEX_CRASH_SEED=42 ctest --test-dir build-asan --output-on-failure -R '^test_crash_consistency$'
  random_seed=$(( (RANDOM << 15) | RANDOM ))
  echo "fault leg: randomized HETINDEX_CRASH_SEED=$random_seed"
  HETINDEX_CRASH_SEED=$random_seed ctest --test-dir build-asan --output-on-failure -R '^test_crash_consistency$'
  leg_end "faults"
fi

if [[ "$run_bench" == 1 ]]; then
  leg_begin
  # Smoke benches on the plain tree built above. Each fails (exit 1) on a
  # degenerate measurement and leaves its JSON in the repo root for trend
  # tooling: block-max pruning must actually skip blocks, the mixed-class
  # query workload must answer queries in every class, and live ingest
  # must sustain nonzero docs/s with and without memtable search load.
  HETINDEX_BENCH_JSON="$PWD/BENCH_pruning.json" ./build/bench/bench_block_pruning
  echo "bench leg: wrote BENCH_pruning.json"
  HETINDEX_BENCH_JSON="$PWD/BENCH_search.json" ./build/bench/bench_search_qps
  echo "bench leg: wrote BENCH_search.json"
  HETINDEX_BENCH_JSON="$PWD/BENCH_ingest.json" ./build/bench/bench_live_ingest
  echo "bench leg: wrote BENCH_ingest.json"
  HETINDEX_BENCH_JSON="$PWD/BENCH_cluster.json" ./build/bench/bench_cluster_scaling
  echo "bench leg: wrote BENCH_cluster.json"

  # Guard against stale artifacts: each BENCH_*.json must carry the bench
  # name its producer stamps (a mismatch means a bench wrote to the wrong
  # file, or a committed artifact predates a bench rename — both have
  # happened). The mapping below is the single source of truth.
  declare -A expected_bench=(
    [BENCH_pruning.json]="block_pruning"
    [BENCH_search.json]="search_qps"
    [BENCH_ingest.json]="live_ingest"
    [BENCH_cluster.json]="cluster_scaling"
  )
  for f in "${!expected_bench[@]}"; do
    want="${expected_bench[$f]}"
    got=$(sed -n 's/.*"bench": *"\([a-z_]*\)".*/\1/p' "$f" | head -1)
    if [[ "$got" != "$want" ]]; then
      echo "bench leg: FAIL — $f carries bench \"$got\", expected \"$want\" (stale artifact?)"
      exit 1
    fi
  done
  echo "bench leg: all BENCH_*.json bench fields match their filenames"

  # Step 5 regrouping ablation (§III.C): exits 1 when "terms agree" reads NO.
  HETINDEX_SCALE=0.125 ./build/bench/bench_ablation_regroup
  echo "bench leg: bench_ablation_regroup terms agree"

  # End-to-end smoke runs on the hetbench tree built above (nonzero exit on
  # any failed output check). live_churn runs longer: its p99 needs 1,000
  # query samples at 200 QPS.
  ./build-hetbench/hetbench --workload build_batch --seed 1 --seconds 3 --trace 0 \
      --work-dir build-hetbench/smoke
  echo "bench leg: hetbench build_batch smoke run passed"
  ./build-hetbench/hetbench --workload cluster_doc4 --seed 1 --seconds 3 --trace 0 \
      --work-dir build-hetbench/smoke
  echo "bench leg: hetbench cluster_doc4 smoke run passed"
  ./build-hetbench/hetbench --workload live_churn --seed 1 --seconds 8 --trace 0 \
      --work-dir build-hetbench/smoke
  echo "bench leg: hetbench live_churn smoke run passed"
  leg_end "bench"
fi

echo
echo "tier1 leg summary:"
for i in "${!leg_names[@]}"; do
  printf '  %-12s %4ds\n' "${leg_names[$i]}" "${leg_seconds[$i]}"
done
echo "tier1: OK"
