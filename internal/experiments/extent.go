package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"corropt/internal/faults"
	"corropt/internal/optics"
	"corropt/internal/rngutil"
	"corropt/internal/sim"
	"corropt/internal/stats"
	"corropt/internal/topology"
	"corropt/internal/traffic"
)

func init() {
	register("fig1", "packets lost per day to corruption vs congestion across 15 DCNs", fig1)
	register("tab1", "distribution of links with corruption/congestion across loss buckets", analytic(tab1))
}

// closWithPods builds a Clos with the standard pod shape and the given pod
// count, for the size sweep of Figure 1 and the §3 measurement scenarios.
func closWithPods(pods int) (*topology.Topology, error) {
	return topology.NewClos(topology.ClosConfig{
		Pods: pods, ToRsPerPod: 10, AggsPerPod: 8,
		Spines: 16, SpineUplinksPerAgg: 8, BreakoutSize: 4,
	}) // 144 links per pod
}

// fig1 reproduces Figure 1: for 15 data centers sorted by size, the mean
// and standard deviation of packets lost per day to corruption, normalized
// by the mean daily congestion losses of the same DCN. The paper finds the
// normalized corruption loss hovers around 1 (the dashed parity line):
// corruption loses about as many packets as congestion on switch-to-switch
// links, even with the production mitigation running.
func fig1(cfg Config) (*plan, error) {
	root := rngutil.New(cfg.Seed).Split("fig1")
	const pps = 1e6 // packets/s at full utilization; cancels in normalization

	// Corruption losses under the production-style mitigation: switch-local
	// disabling, 50% repair accuracy, and — crucially — a 15-minute
	// detection latency: even with mitigation deployed, every new
	// corrupting link burns application traffic for up to one SNMP poll
	// before the controller reacts, which is the dominant corruption-loss
	// channel §2 measures. One replay per DCN.
	replays := make([]sim.Replay, 15)
	for dcn := range replays {
		e, err := fig1DCN(cfg.Seed, cfg.Scale, dcn)
		if err != nil {
			return nil, err
		}
		replays[dcn] = sim.Replay{Topo: e.topo, Tech: optics.EvalTech(), Config: sim.Config{
			Policy:         sim.PolicySwitchLocal,
			Capacity:       0.75,
			FixedAccuracy:  0.5,
			DetectionDelay: 15 * time.Minute,
			Penalty:        lossWeighted,
			Seed:           e.simSeed,
		}, Trace: e.trace, Horizon: e.horizon}
	}

	finish := func(results []*sim.Result) (*Report, error) {
		r := &Report{
			ID:     "fig1",
			Title:  "Corruption vs congestion losses per day across 15 DCNs (normalized by mean congestion)",
			Header: []string{"dcn", "links", "corruption_mean_norm", "corruption_std_norm"},
		}
		for dcn, rp := range replays {
			topo := rp.Topo
			corrDaily := make([]float64, fig1Days)
			for d := 0; d < fig1Days && d < len(results[dcn].PenaltyPerDay); d++ {
				// Penalty·seconds × mean utilization × line rate = packets.
				corrDaily[d] = results[dcn].PenaltyPerDay[d] * 0.5 * pps
			}

			// Congestion losses from the traffic model, hourly sampled over
			// the prone directions only (others lose nothing).
			tm := traffic.New(topo, root.SplitIndex("dcn", dcn).Split("traffic"))
			congDaily := make([]float64, fig1Days)
			for _, l := range tm.CongestedLinks() {
				for _, dir := range []topology.Direction{topology.Up, topology.Down} {
					if !tm.Prone(l, dir) {
						continue
					}
					for h := 0; h < fig1Days*24; h++ {
						at := time.Duration(h) * time.Hour
						loss := tm.LossRate(l, dir, at)
						if loss == 0 {
							continue
						}
						congDaily[h/24] += loss * tm.Utilization(l, dir, at) * pps * 3600
					}
				}
			}

			meanCong := stats.Mean(congDaily)
			if meanCong == 0 {
				meanCong = 1 // degenerate tiny fabric; avoid division by zero
			}
			norm := make([]float64, fig1Days)
			for i := range corrDaily {
				norm[i] = corrDaily[i] / meanCong
			}
			r.AddRow(fmt.Sprintf("dcn-%02d", dcn+1), fmt.Sprintf("%d", topo.NumLinks()),
				fmtF(stats.Mean(norm)), fmtF(stats.StdDev(norm)))
		}
		r.AddNote("paper: normalized corruption losses cluster around the parity line (1.0) across DCNs")
		r.AddNote("substitution: production SNMP counters -> synthetic fault/traffic models calibrated to Table 1")
		return r, nil
	}
	return &plan{replays: replays, finish: finish}, nil
}

// fig1Days is Figure 1's window, the paper's three weeks of data.
const fig1Days = 21

// lossWeighted is fig1's penalty: packets lost = corruption rate × traffic
// actually on the link. Loss-sensitive transports back off on lossy links
// (§1: 0.01% loss halves TCP CUBIC's throughput; §3 notes senders slow down
// without fixing anything), so a link's carried traffic follows the 1/√loss
// law: full utilization up to ~1e-6 loss, collapsing beyond. Encoding that
// in the penalty makes PenaltyPerDay the effective corrupted-packet
// fraction integral.
func lossWeighted(f float64) float64 {
	if f <= 0 {
		return 0
	}
	backoff := math.Sqrt(1e-6 / f)
	if backoff > 1 {
		backoff = 1
	}
	return f * backoff
}

// tab1 reproduces Table 1: among links experiencing corruption and links
// experiencing congestion over one week, the share of each loss-rate
// bucket. The shapes to match: congestion is overwhelmingly mild (92.44% in
// [1e-8,1e-5)) while corruption is heavy-tailed (12.67% at 1e-3 or worse).
func tab1(cfg Config) (*Report, error) {
	r := &Report{
		ID:     "tab1",
		Title:  "Normalized distribution of links with corruption and congestion per loss bucket",
		Header: []string{"loss_bucket", "links_w_corruption", "links_w_congestion", "paper_corruption", "paper_congestion"},
	}
	topo, err := DCN(cfg.Scale)
	if err != nil {
		return nil, err
	}
	rng := rngutil.New(cfg.Seed).Split("tab1")
	week := 7 * 24 * time.Hour

	// Corruption: mean worst-direction rate per link over the week, from
	// the ground-truth fault process (time-weighted by fault activity).
	inj, err := faults.NewInjector(topo, optics.EvalTech(), faults.InjectorConfig{FaultsPerLinkPerDay: 20 * FaultRate(cfg.Scale)}, rng.Split("faults"))
	if err != nil {
		return nil, err
	}
	st := faults.NewState(topo, optics.EvalTech())
	// Apply every fault of the week; rates are stable (§3), so each
	// link's mean rate over the week is rate × activeFraction. Faults are
	// not repaired within the observation week (repairs average 2 days
	// and most links corrupt already when the week starts in steady
	// state), so active time runs from fault start to week end.
	meanRate := make(map[topology.LinkID]float64)
	for _, f := range inj.Generate(week) {
		st.Apply(f)
		frac := float64(week-f.Start) / float64(week)
		for _, l := range f.Links() {
			meanRate[l] += st.WorstRate(l) * frac
		}
		st.Clear(f.ID)
	}
	var corrRates []float64
	for _, v := range meanRate {
		corrRates = append(corrRates, v)
	}
	// Bucketization below is order-free, but sort anyway so the collected
	// values never depend on map iteration order.
	sort.Float64s(corrRates)

	// Congestion: mean worst-direction loss per congested link, sampled
	// every 15 minutes.
	tm := traffic.New(topo, rng.Split("traffic"))
	var congRates []float64
	for _, l := range tm.CongestedLinks() {
		worst := 0.0
		for _, dir := range []topology.Direction{topology.Up, topology.Down} {
			if !tm.Prone(l, dir) {
				continue
			}
			sum := 0.0
			n := 7 * 96
			for i := 0; i < n; i++ {
				sum += tm.LossRate(l, dir, time.Duration(i)*15*time.Minute)
			}
			if m := sum / float64(n); m > worst {
				worst = m
			}
		}
		congRates = append(congRates, worst)
	}

	buckets := stats.Table1Buckets()
	corrShares := stats.BucketShares(corrRates, buckets)
	congShares := stats.BucketShares(congRates, buckets)
	paperCorr := []string{"47.23%", "18.43%", "21.66%", "12.67%"}
	paperCong := []string{"92.44%", "6.35%", "0.99%", "0.22%"}
	for i, b := range buckets {
		r.AddRow(b.String(),
			fmt.Sprintf("%.2f%%", 100*corrShares[i]),
			fmt.Sprintf("%.2f%%", 100*congShares[i]),
			paperCorr[i], paperCong[i])
	}
	r.AddNote("shape to match: corruption heavy-tailed (last bucket ~13%% vs congestion ~0.2%%)")
	return r, nil
}
