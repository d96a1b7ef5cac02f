#!/usr/bin/env bash
#
# CI gate: strict warnings everywhere, plus the concurrency-heavy
# subsystems' tests under ThreadSanitizer, plus a metrics sidecar smoke
# run validated against the checked-in schema, plus the SIMD
# determinism gate (campaign JSON byte-identical across
# -DDIDT_SIMD=ON/OFF and --jobs 1/4, Monte Carlo legs included; the
# closed-loop bench CSVs across -DDIDT_SIMD=ON/OFF), plus the didt_serve service
# smoke (scripts/serve_smoke.sh: a daemon replay reproduces a batch
# campaign byte for byte and drains cleanly on SIGTERM).
#
#   scripts/check.sh            # full strict build + all tests + TSan + smoke
#   scripts/check.sh --tsan-only  # just the TSan runner/obs-test pass
#
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}
TSAN_ONLY=0
[[ "${1:-}" == "--tsan-only" ]] && TSAN_ONLY=1

if [[ $TSAN_ONLY -eq 0 ]]; then
    echo "=== strict build (-Wall -Wextra -Werror) + full test suite ==="
    cmake -B build-ci -S . -DDIDT_WERROR=ON
    cmake --build build-ci -j "$JOBS"
    ctest --test-dir build-ci --output-on-failure -j "$JOBS"

    echo "=== metrics sidecar smoke run + schema validation ==="
    SMOKE_DIR=$(mktemp -d)
    trap 'rm -rf "$SMOKE_DIR"' EXIT
    build-ci/tools/didt_campaign --jobs 2 --benchmarks gzip,mcf \
        --impedances 1.0,1.2 --instructions 30000 --window 128 \
        --levels 6 --quiet \
        --json "$SMOKE_DIR/campaign.json" \
        --metrics-out "$SMOKE_DIR/metrics.json" \
        --trace-out "$SMOKE_DIR/trace.json"
    build-ci/tools/didt_metrics_check \
        --schema schemas/didt-metrics-v1.json \
        --input "$SMOKE_DIR/metrics.json"

    echo "=== scalar-fallback build (-DDIDT_SIMD=OFF) + simd label ==="
    cmake -B build-scalar -S . -DDIDT_WERROR=ON -DDIDT_SIMD=OFF
    cmake --build build-scalar -j "$JOBS" --target simd_test didt_campaign \
        table2_scheme_comparison extension_adaptive_control \
        extension_chip_desync
    ctest --test-dir build-scalar -L simd --output-on-failure -j "$JOBS"

    echo "=== campaign JSON byte-identity: SIMD on/off x jobs 1/4 ==="
    CAMPAIGN_ARGS=(--benchmarks gzip,mcf --impedances 1.0,1.2
                   --instructions 30000 --window 128 --levels 6 --quiet)
    build-ci/tools/didt_campaign --jobs 1 "${CAMPAIGN_ARGS[@]}" \
        --json "$SMOKE_DIR/simd_j1.json"
    build-ci/tools/didt_campaign --jobs 4 "${CAMPAIGN_ARGS[@]}" \
        --json "$SMOKE_DIR/simd_j4.json"
    build-scalar/tools/didt_campaign --jobs 1 "${CAMPAIGN_ARGS[@]}" \
        --json "$SMOKE_DIR/scalar_j1.json"
    build-scalar/tools/didt_campaign --jobs 4 "${CAMPAIGN_ARGS[@]}" \
        --json "$SMOKE_DIR/scalar_j4.json"
    SUMS=$(md5sum "$SMOKE_DIR"/simd_j1.json "$SMOKE_DIR"/simd_j4.json \
                  "$SMOKE_DIR"/scalar_j1.json "$SMOKE_DIR"/scalar_j4.json |
           awk '{print $1}' | sort -u | wc -l)
    if [[ "$SUMS" -ne 1 ]]; then
        echo "FAIL: campaign JSON differs across SIMD on/off or jobs 1/4" >&2
        md5sum "$SMOKE_DIR"/simd_j1.json "$SMOKE_DIR"/simd_j4.json \
               "$SMOKE_DIR"/scalar_j1.json "$SMOKE_DIR"/scalar_j4.json >&2
        exit 1
    fi
    echo "campaign JSON identical across SIMD on/off and jobs 1/4"

    echo "=== no-correlation, chip-mix and chunked-MC legs: SIMD on/off x jobs 1/4 ==="
    # The estimated side is shared per (workload, core count) group, so
    # the correlation-off estimate and the multi-core-count grid take
    # their own paths through it: each must give one set of bytes. The
    # measured side runs in chunks of up to 8 networks, one per SIMD
    # lane: 13 draws fill neither a chunk nor a vector, and a single
    # benchmark puts every chunk of the campaign in one group.
    NOCORR_ARGS=("${CAMPAIGN_ARGS[@]}" --no-correlation)
    MIX_ARGS=(--mix int4 --cores 1,2 --impedances 1.0,1.2
              --instructions 30000 --window 128 --levels 6 --quiet)
    MC13_ARGS=("${CAMPAIGN_ARGS[@]}" --mc-draws 13 --mc-seed 7
               --mc-sigma 0.08)
    MC1B_ARGS=(--benchmarks mcf --impedances 1.0,1.1,1.2,1.35,1.5
               --instructions 30000 --window 128 --levels 6 --quiet
               --mc-draws 13 --mc-seed 7 --mc-sigma 0.08)
    for leg in nocorr mix mc13 mc1b; do
        case $leg in
            nocorr) LEG_ARGS=("${NOCORR_ARGS[@]}") ;;
            mix) LEG_ARGS=("${MIX_ARGS[@]}") ;;
            mc13) LEG_ARGS=("${MC13_ARGS[@]}") ;;
            mc1b) LEG_ARGS=("${MC1B_ARGS[@]}") ;;
        esac
        for build in build-ci build-scalar; do
            for jobs in 1 4; do
                "$build"/tools/didt_campaign --jobs "$jobs" \
                    "${LEG_ARGS[@]}" \
                    --json "$SMOKE_DIR/${leg}_${build}_j$jobs.json"
            done
        done
        for other in build-ci_j4 build-scalar_j1 build-scalar_j4; do
            cmp "$SMOKE_DIR/${leg}_build-ci_j1.json" \
                "$SMOKE_DIR/${leg}_${other}.json"
        done
    done
    grep -q '"use_correlation": false' "$SMOKE_DIR/nocorr_build-ci_j1.json"
    grep -q '"yield_curve"' "$SMOKE_DIR/mc1b_build-ci_j1.json"
    echo "no-correlation, int4 x cores 1,2 and 13-draw MC JSON identical" \
         "across SIMD on/off and jobs 1/4"

    echo "=== sampled-campaign byte-identity: SIMD on/off x jobs 1/4 ==="
    # Sampling must be deterministic too: the same sampled sweep gives
    # the same bytes regardless of worker count or kernel dispatch, and
    # its spec JSON records the sampling dimensions.
    SAMPLE_ARGS=("${CAMPAIGN_ARGS[@]}" --sample-detail 4096
                 --sample-skip 28672 --sample-warmup 512)
    build-ci/tools/didt_campaign --jobs 1 "${SAMPLE_ARGS[@]}" \
        --json "$SMOKE_DIR/sampled_j1.json"
    build-ci/tools/didt_campaign --jobs 4 "${SAMPLE_ARGS[@]}" \
        --json "$SMOKE_DIR/sampled_j4.json"
    build-scalar/tools/didt_campaign --jobs 4 "${SAMPLE_ARGS[@]}" \
        --json "$SMOKE_DIR/sampled_scalar.json"
    cmp "$SMOKE_DIR/sampled_j1.json" "$SMOKE_DIR/sampled_j4.json"
    cmp "$SMOKE_DIR/sampled_j1.json" "$SMOKE_DIR/sampled_scalar.json"
    grep -q '"sample_skip": 28672' "$SMOKE_DIR/sampled_j1.json"
    # And sampling OFF must leave the campaign JSON untouched: the
    # sampled run's existence must not perturb the unsampled bytes.
    if grep -q 'sample_' "$SMOKE_DIR/simd_j1.json"; then
        echo "FAIL: sampling-off campaign JSON mentions sampling" >&2
        exit 1
    fi
    echo "sampled campaign JSON identical across SIMD on/off and jobs 1/4"

    echo "=== closed-loop byte-identity: SIMD on/off ==="
    # The one closed-loop driver under every scheme the benches run:
    # analog, full-convolution, damping and wavelet (Table 2), adaptive,
    # and a 4-core chip with no, lockstep and staggered control. The
    # per-cycle feedback leaves no room for a kernel to differ by a
    # bit, so each CSV must match across the two builds.
    for build in build-ci build-scalar; do
        "$build"/bench/table2_scheme_comparison --instructions 20000 \
            --jobs 2 --csv "$SMOKE_DIR/table2_$build.csv" > /dev/null
        "$build"/bench/extension_adaptive_control --instructions 20000 \
            --csv "$SMOKE_DIR/adaptive_$build.csv" > /dev/null
        "$build"/bench/extension_chip_desync --instructions 20000 \
            --csv "$SMOKE_DIR/desync_$build.csv" > /dev/null
    done
    for leg in table2 adaptive desync; do
        cmp "$SMOKE_DIR/${leg}_build-ci.csv" \
            "$SMOKE_DIR/${leg}_build-scalar.csv"
    done
    grep -q '^chip-staggered,' "$SMOKE_DIR/desync_build-ci.csv"
    echo "closed-loop CSVs identical across SIMD on/off"

    echo "=== fault-injection smoke: failed cells recorded, byte-identical ==="
    # A campaign with an injected cell fault and a dead disk cache must
    # still exit 0, mark exactly the faulted cell in the JSON, and stay
    # byte-identical across worker counts.
    FAIL_SPEC='campaign.cell=key:mcf@1.2;repo.disk_write=always'
    build-ci/tools/didt_campaign --jobs 1 "${CAMPAIGN_ARGS[@]}" \
        --failpoints "$FAIL_SPEC" --json "$SMOKE_DIR/fault_j1.json"
    build-ci/tools/didt_campaign --jobs 4 "${CAMPAIGN_ARGS[@]}" \
        --failpoints "$FAIL_SPEC" --json "$SMOKE_DIR/fault_j4.json"
    cmp "$SMOKE_DIR/fault_j1.json" "$SMOKE_DIR/fault_j4.json"
    grep -q '"failed_cells": 1' "$SMOKE_DIR/fault_j1.json"
    grep -q 'injected fault (campaign.cell): mcf@1.2' \
        "$SMOKE_DIR/fault_j1.json"
    echo "faulted campaign JSON identical across jobs 1/4, 1 failed cell"

    echo "=== bad spec flags on the campaign benches: exit 1, not a signal ==="
    # The benches that build a campaign spec from their own flags
    # validate it as didt_campaign does: an impossible spec is a usage
    # error (exit 1), never an uncaught exception (exit 134).
    for bad in "fig09_emergency_estimate --threshold 1.05" \
               "extension_mc_yield --draws 200000" \
               "extension_mc_yield --impedance 0"; do
        rc=0
        # shellcheck disable=SC2086  # $bad is a binary plus its flags
        build-ci/bench/$bad > /dev/null 2>&1 || rc=$?
        if [[ $rc -ne 1 ]]; then
            echo "FAIL: bench/$bad exited $rc, want 1" >&2
            exit 1
        fi
    done
    echo "bad bench spec flags exit 1"

    echo "=== Monte Carlo campaign byte-identity: jobs 1/4, off = seed bytes ==="
    # The variation-aware draw axis must be as deterministic as the
    # nominal path: an MC sweep gives the same bytes at any worker
    # count, and MC off must not leak a single mc_ field into the JSON.
    MC_ARGS=("${CAMPAIGN_ARGS[@]}" --mc-draws 16 --mc-seed 7
             --mc-sigma 0.08)
    build-ci/tools/didt_campaign --jobs 1 "${MC_ARGS[@]}" \
        --json "$SMOKE_DIR/mc_j1.json"
    build-ci/tools/didt_campaign --jobs 4 "${MC_ARGS[@]}" \
        --json "$SMOKE_DIR/mc_j4.json"
    cmp "$SMOKE_DIR/mc_j1.json" "$SMOKE_DIR/mc_j4.json"
    grep -q '"yield_curve"' "$SMOKE_DIR/mc_j1.json"
    if grep -q 'mc_\|monte_carlo' "$SMOKE_DIR/simd_j1.json"; then
        echo "FAIL: MC-off campaign JSON mentions Monte Carlo" >&2
        exit 1
    fi
    echo "MC campaign JSON identical across jobs 1/4; MC-off bytes clean"

    echo "=== service byte-identity smoke (didt_serve / didt_client) ==="
    BUILD_DIR=build-ci scripts/serve_smoke.sh
fi

echo "=== ThreadSanitizer pass over runner + obs + refactor + simd + verify + serve + simfast + mc tests ==="
cmake -B build-tsan -S . -DDIDT_WERROR=ON -DDIDT_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-tsan -j "$JOBS" --target runner_test determinism_test \
      obs_test refactor_test simd_test verify_test serve_test \
      fuzz_replay_test simfast_test mc_test
ctest --test-dir build-tsan \
      -L 'runner|obs|refactor|simd|verify|serve|cmp|simfast|mc' \
      --output-on-failure -j "$JOBS"

echo "=== all checks passed ==="
