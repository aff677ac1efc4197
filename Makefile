GO ?= go

.PHONY: build test vet race verify bench bench-batch bench-smoke fuzz-smoke fig3c-smoke aggregate-smoke failover-smoke overload-smoke stream-smoke crash experiments

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the full test suite under the race detector; the batched
# pipeline tests exercise concurrent AccessBatch/Access interleavings,
# parallel per-shard batch fan-out, and server shutdown draining.
race:
	$(GO) test -race ./...

# verify is the fast CI gate: static checks plus the plain test suite.
# The race-checked suite runs as its own CI job (make race) so a data
# race and a logic failure are reported separately.
verify: vet test

bench:
	$(GO) test -bench . -benchtime 1x ./...

# bench-batch compares the one-frame batch pipeline against the
# concurrent single-access fallback over a simulated WAN link.
bench-batch:
	$(GO) test -run XXX -bench 'Batch64' -benchtime 10x .

# bench-smoke is the CI benchmark smoke check: one short pass over the
# kernel and hot-path benchmarks, checking they still run. End-to-end
# performance is measured by the repository benchmark (e2ebench/,
# BENCHMARK.json).
bench-smoke:
	$(GO) test -run XXX -bench 'Kernel1KiB|LBLBuildRequest|SealLabel|OpenLabel' -benchtime 5x ./internal/core/ ./internal/crypto/secretbox/

# fuzz-smoke runs each internal/core fuzz target for 15 seconds: hostile
# server payloads (the unified LBL access decoder, its continuation
# frames, TEE and loader payloads) and record parsing must give errors,
# never panics. Minimizing each new interesting input is capped at one
# second so the budget goes to exploring.
fuzz-smoke:
	for t in $$($(GO) test -list 'Fuzz.*' ./internal/core/ | grep '^Fuzz'); do \
		$(GO) test -run XXX -fuzz "^$$t$$" -fuzztime 15s -fuzzminimizetime 1s ./internal/core/ || exit 1; \
	done

# fig3c-smoke runs the Fig 3c experiment in quick mode: at every value
# size a traced, instrumented LBL workload must have stage-histogram
# means summing to the end-to-end mean within 10%, a complete
# cross-process trace whose stage spans sum to its root span within 1%,
# and zero obliviousness shape violations while tracing is on
# (DESIGN.md §8, §13). The experiment self-audits; a zero exit is the
# assertion.
fig3c-smoke:
	$(GO) run ./cmd/ortoa-bench -experiment fig3c -quick

# aggregate-smoke runs the cross-session aggregation experiment in
# quick mode: 64 single-key sessions through the coalescing window vs
# the per-request path over a simulated London link (DESIGN.md §12).
aggregate-smoke:
	$(GO) run ./cmd/ortoa-bench -experiment aggregate -quick

# failover-smoke runs the multi-proxy high-availability experiment in
# quick mode: proxy-count scaling plus the kill-and-adopt drill — one
# proxy is crash-killed mid-workload, survivors adopt its counter
# ranges through the epoch fence, and the experiment self-audits that
# no acknowledged write was lost and no obliviousness shape violation
# occurred (DESIGN.md §14). A zero exit is the assertion.
failover-smoke:
	$(GO) run ./cmd/ortoa-bench -experiment failover -quick

# overload-smoke runs the overload-shedding experiment in quick mode:
# an admission-limited 2-proxy cluster is offered 10x its provisioned
# concurrency, and the experiment self-audits that goodput stays >=70%
# of measured capacity, accepted-request p99 stays bounded, no
# acknowledged write is lost, and the shape auditor records zero
# length violations — shedding is operation-type invisible
# (DESIGN.md §15). A zero exit is the assertion.
overload-smoke:
	$(GO) run ./cmd/ortoa-bench -experiment overload -quick

# stream-smoke runs the chunk-streaming experiment in quick mode:
# monolithic vs streamed access requests over a link calibrated so one
# table costs about one build time on the wire. The experiment
# self-audits — it fails unless streaming beats monolithic by the gate
# factor, every streamed request frame stays within the chunk budget,
# the mid-stream fault drill loses no acknowledged write, and the
# shape auditors record zero length violations (DESIGN.md §16). A zero
# exit is the assertion.
stream-smoke:
	$(GO) run ./cmd/ortoa-bench -experiment stream -quick

# crash runs the kill/restart durability experiment at full scale:
# 50 seeded crash/recovery cycles under the group-commit WAL, the
# SyncNever rollback/reconciliation phase, and the never-vs-group-
# commit throughput bound (DESIGN.md §10). The experiment self-audits;
# a zero exit is the assertion.
crash:
	$(GO) run ./cmd/ortoa-bench -experiment crash

experiments:
	$(GO) run ./cmd/ortoa-bench -quick
