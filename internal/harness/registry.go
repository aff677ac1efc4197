package harness

import (
	"fmt"
	"io"
	"sort"
)

// An Experiment regenerates one table or figure of the paper.
type Experiment struct {
	ID          string
	Description string
	Run         func(Options) (*Table, error)
}

// Experiments lists every reproducible result, in the paper's order.
var Experiments = []Experiment{
	{"table2", "datacenter RTT configuration (Table 2)", Table2},
	{"fig2a", "ORTOA vs 2RTT across server locations (Fig 2a)", Fig2a},
	{"fig2b", "increasing concurrency (Fig 2b)", Fig2b},
	{"fig2c", "varying write percentage (Fig 2c)", Fig2c},
	{"fig2d", "varying database size (Fig 2d)", Fig2d},
	{"fig3a", "scaling proxy/server pairs (Fig 3a)", Fig3a},
	{"fig3b", "varying value size vs baseline (Fig 3b)", Fig3b},
	{"fig3c", "LBL latency breakdown, modeled and measured per stage from metrics and one cross-process trace (Fig 3c)", Fig3c},
	{"fig3d", "EU server, 300B objects (Fig 3d)", Fig3d},
	{"fig4", "real-world datasets (Fig 4)", Fig4},
	{"fhe-noise", "FHE noise growth to failure (§3.3)", FHENoise},
	{"cost", "dollar-cost model (§6.3.3)", CostModel},
	{"fig6", "storage/communication overhead factors (appendix Fig 6)", Fig6Factors},
	{"ablation-lbl", "LBL variant ablation (§10, extension)", LBLModeAblation},
	{"ablation-tee", "TEE transition-cost sensitivity (§6.2.1, extension)", EnclaveCostAblation},
	{"ablation-fhe-relin", "FHE-ORTOA with vs without relinearization (extension)", FHERelinAblation},
	{"ablation-zipf", "LBL-ORTOA under Zipfian key skew (extension)", ZipfAblation},
	{"batch", "batched access pipeline vs concurrent singles (extension)", BatchPipeline},
	{"aggregate", "cross-session aggregation window vs per-request proxying (extension)", Aggregate},
	{"chaos", "mixed workload under injected transport faults (robustness extension)", Chaos},
	{"failover", "multi-proxy kill-and-adopt drill with epoch-fenced ownership (robustness extension)", Failover},
	{"overload", "overload shedding: goodput and bounded latency at 10x offered load (robustness extension)", Overload},
	{"crash", "repeated kill/restart under durable-on-ack group commit (robustness extension)", Crash},
	{"attack-snapshot", "multi-snapshot adversary vs plain store and ORTOA (§1)", SnapshotAttack},
	{"oram-rounds", "one-round vs two-round tree ORAM (§8 sketch)", ORAMRounds},
	{"stream", "chunk-streamed table build pipelined against the wire vs monolithic (perf extension)", Stream},
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, error) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, len(Experiments))
	for i, e := range Experiments {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (have %v)", id, ids)
}

// RunAll executes every experiment and renders results to w.
func RunAll(w io.Writer, opt Options) error {
	for _, e := range Experiments {
		t, err := e.Run(opt)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}
