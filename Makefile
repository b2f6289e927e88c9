# Benchmark budget
#
# The gated set below runs serial kernels only (shapes below the tensor
# package's parallel threshold) with a fixed iteration count and -cpu=1,
# so allocs/op and B/op are deterministic on any runner: any change is a
# code change, and CI's bench-budget job hard-fails on it. ns/op is
# machine-dependent and only warned about. See internal/benchdiff.
#
# After an intentional allocation change, regenerate and commit the
# baseline in the same PR:
#
#	make bench-baseline && git add BENCH_BASELINE.json

BENCH_GATED := ^(BenchmarkMatMulDenseSerial|BenchmarkMatMulSkipBSerial|BenchmarkMatMulTransASkipBSerial|BenchmarkIm2Col|BenchmarkCol2Im|BenchmarkConvForwardBackward|BenchmarkConvVGG11|BenchmarkLinearForwardBackward|BenchmarkNetworkInfer|BenchmarkInferVGG11|BenchmarkQuantizeInto|BenchmarkQuantize|BenchmarkFabricStep)$$
BENCH_PKGS  := ./internal/tensor/ ./internal/nn/ ./internal/reram/ ./internal/arch/
BENCH_FLAGS := -run '^$$' -cpu=1 -benchtime=50x -benchmem
# Extra remapd-benchdiff flags for the budget diff (CI passes -github).
BENCHDIFF_FLAGS :=

.PHONY: test lint wire-golden bench-gated bench-baseline bench-budget

test:
	go build ./...
	go test ./...

# Static-analysis gate: the determinism suite plus the invariant-analysis
# rules (hotpath-alloc, workspace-owner, wire-stability, unchecked-error)
# over the whole module, with the analysis worker pool at full width. The
# timeout enforces the <30s budget the parallel runner is sized for.
lint:
	go build -o remapd-lint.bin ./cmd/remapd-lint
	timeout 30 ./remapd-lint.bin -format github ./...

# Regenerate the wire-stability golden field-set snapshots after an
# intentional wire-format change (bump ProtoVersion/SchemaVersion first,
# then commit the updated goldens with the change).
wire-golden:
	go run ./cmd/remapd-lint -write-wire-golden ./...

bench-gated:
	go test $(BENCH_FLAGS) -bench '$(BENCH_GATED)' $(BENCH_PKGS) | tee bench-gated.out

bench-baseline: bench-gated
	go run ./cmd/remapd-benchdiff -render -in bench-gated.out > BENCH_BASELINE.json
	cat BENCH_BASELINE.json

bench-budget: bench-gated
	go run ./cmd/remapd-benchdiff -render -in bench-gated.out > BENCH_CURRENT.json
	go run ./cmd/remapd-benchdiff $(BENCHDIFF_FLAGS) -baseline BENCH_BASELINE.json -current BENCH_CURRENT.json
