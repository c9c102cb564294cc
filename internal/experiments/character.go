package experiments

import (
	"fmt"
	"math"
	"time"

	"corropt/internal/faults"
	"corropt/internal/optics"
	"corropt/internal/rngutil"
	"corropt/internal/stats"
	"corropt/internal/telemetry"
	"corropt/internal/topology"
	"corropt/internal/traffic"
)

func init() {
	register("fig2", "stability of corruption vs congestion loss rate (example link + CV CDF)", analytic(fig2))
	register("fig3", "correlation of loss rate with utilization (scatter + Pearson CDF)", analytic(fig3))
	register("fig4", "spatial locality of corrupting vs congested links", analytic(fig4))
	register("fig5", "asymmetry: bidirectional corruption vs congestion", analytic(fig5))
}

// charSetup builds the shared measurement scenario of §3: a DCN with a
// steady population of corrupting links (ground truth applied, no
// mitigation — the study observes links while they corrupt) and the
// congestion traffic model, monitored for one week at 15-minute polls.
type charScenario struct {
	topo       *topology.Topology
	state      *faults.State
	tm         *traffic.Model
	col        *telemetry.Collector
	corrupting []topology.LinkID
}

func newCharScenario(cfg Config, name string) (*charScenario, error) {
	// The measurement study wants a steady population of corrupting links
	// large enough for CDFs but sparse enough that faults rarely overlap
	// on one link (overlap would manufacture bidirectionality §3 rules
	// out). A ~1%-per-week per-link fault probability on a fabric of a
	// few thousand links achieves both.
	pods := map[Scale]int{ScaleSmall: 12, ScaleMedium: 60, ScaleLarge: 140}[cfg.Scale]
	if pods == 0 {
		pods = 12
	}
	topo, err := closWithPods(pods)
	if err != nil {
		return nil, err
	}
	rng := rngutil.New(cfg.Seed).Split(name)
	st := faults.NewState(topo, optics.EvalTech())
	inj, err := faults.NewInjector(topo, optics.EvalTech(), faults.InjectorConfig{FaultsPerLinkPerDay: 0.004}, rng.Split("faults"))
	if err != nil {
		return nil, err
	}
	// The week's faults, all active from the start: §3 shows corruption
	// rates are stable, so the steady-state population is what matters.
	for _, f := range inj.Generate(7 * 24 * time.Hour) {
		st.Apply(f)
	}
	tm := traffic.New(topo, rng.Split("traffic"))
	col := telemetry.NewCollector(st, tm, nil, telemetry.Config{Seed: rng.Split("telemetry").Seed()})

	s := &charScenario{topo: topo, state: st, tm: tm, col: col}
	s.corrupting = st.CorruptingLinks(1e-8)
	col.Watch(s.corrupting...)
	col.Watch(tm.CongestedLinks()...)
	for i := 0; i < 7*96; i++ {
		col.Poll(time.Duration(i) * 15 * time.Minute)
	}
	return s, nil
}

// corruptionSeries extracts the worst corrupting direction's measured rate
// series of link l.
func (s *charScenario) corruptionSeries(l topology.LinkID) ([]float64, topology.Direction) {
	dir := topology.Up
	if s.state.CorruptionRate(l, topology.Down) > s.state.CorruptionRate(l, topology.Up) {
		dir = topology.Down
	}
	var out []float64
	for _, o := range s.col.Series(l) {
		out = append(out, o.CorruptionRate[dir])
	}
	return out, dir
}

// congestionSeries extracts one prone direction's loss and utilization
// series of link l; ok is false when no direction is prone.
func (s *charScenario) congestionSeries(l topology.LinkID) (loss, util []float64, ok bool) {
	var dir topology.Direction
	switch {
	case s.tm.Prone(l, topology.Up):
		dir = topology.Up
	case s.tm.Prone(l, topology.Down):
		dir = topology.Down
	default:
		return nil, nil, false
	}
	for _, o := range s.col.Series(l) {
		loss = append(loss, o.CongestionRate[dir])
		util = append(util, o.Util[dir])
	}
	return loss, util, true
}

// fig2 reproduces Figure 2: corruption loss rate is stable over time while
// congestion varies by orders of magnitude. Output: one example link of
// each kind (2a) and the CDF of per-link coefficients of variation (2b).
func fig2(cfg Config) (*Report, error) {
	r := &Report{
		ID:     "fig2",
		Title:  "Stability of loss rates: example series and CV CDF",
		Header: []string{"series", "x", "y"},
	}
	s, err := newCharScenario(cfg, "fig2")
	if err != nil {
		return nil, err
	}
	// 2a: the first heavily corrupting link and the first congested link.
	for _, l := range s.corrupting {
		series, _ := s.corruptionSeries(l)
		if stats.Mean(series) < 1e-5 {
			continue
		}
		for i, v := range series {
			if i%8 == 0 { // 2-hour grid keeps the report readable
				r.AddRow("example-corruption", fmt.Sprintf("%dh", i/4), fmtF(v))
			}
		}
		break
	}
	for _, l := range s.tm.CongestedLinks() {
		loss, _, ok := s.congestionSeries(l)
		if !ok || stats.Mean(loss) < 1e-6 {
			continue
		}
		for i, v := range loss {
			if i%8 == 0 {
				r.AddRow("example-congestion", fmt.Sprintf("%dh", i/4), fmtF(v))
			}
		}
		break
	}

	// 2b: CV CDFs.
	var corrCV, congCV []float64
	for _, l := range s.corrupting {
		series, _ := s.corruptionSeries(l)
		corrCV = append(corrCV, stats.CoefficientOfVariation(series))
	}
	for _, l := range s.tm.CongestedLinks() {
		if loss, _, ok := s.congestionSeries(l); ok {
			congCV = append(congCV, stats.CoefficientOfVariation(loss))
		}
	}
	for _, pt := range stats.NewCDF(corrCV).Points(25) {
		r.AddRow("cv-cdf-corruption", fmtF(pt[0]), fmtF(pt[1]))
	}
	for _, pt := range stats.NewCDF(congCV).Points(25) {
		r.AddRow("cv-cdf-congestion", fmtF(pt[0]), fmtF(pt[1]))
	}
	p80corr, _ := stats.Quantile(corrCV, 0.8)
	p80cong, _ := stats.Quantile(congCV, 0.8)
	r.AddNote("80th-percentile CV: corruption %.2f, congestion %.2f (paper: corruption < 4, congestion more than 2x larger)", p80corr, p80cong)
	return r, nil
}

// fig3 reproduces Figure 3: congestion loss correlates with utilization
// (mean Pearson ≈ 0.62 against log loss) while corruption does not (mean ≈
// 0.19, 85% of links within ±0.5).
func fig3(cfg Config) (*Report, error) {
	r := &Report{
		ID:     "fig3",
		Title:  "Correlation between utilization and loss rate",
		Header: []string{"series", "x", "y"},
	}
	s, err := newCharScenario(cfg, "fig3")
	if err != nil {
		return nil, err
	}
	logFloor := func(v float64) float64 {
		if v < 1e-9 {
			v = 1e-9
		}
		return math.Log10(v)
	}

	// 3a scatter: one corrupting link and one congested link.
	for _, l := range s.corrupting {
		series, dir := s.corruptionSeries(l)
		if stats.Mean(series) < 1e-5 {
			continue
		}
		for i, o := range s.col.Series(l) {
			if i%8 == 0 {
				r.AddRow("scatter-corruption", fmtF(o.Util[dir]), fmtF(series[i]))
			}
		}
		break
	}
	for _, l := range s.tm.CongestedLinks() {
		loss, util, ok := s.congestionSeries(l)
		if !ok || stats.Mean(loss) < 1e-6 {
			continue
		}
		for i := range loss {
			if i%8 == 0 {
				r.AddRow("scatter-congestion", fmtF(util[i]), fmtF(loss[i]))
			}
		}
		break
	}

	// 3b: Pearson CDFs between utilization and log loss rate.
	var corrR, congR []float64
	for _, l := range s.corrupting {
		series, dir := s.corruptionSeries(l)
		var utils, logLoss []float64
		for i, o := range s.col.Series(l) {
			utils = append(utils, o.Util[dir])
			logLoss = append(logLoss, logFloor(series[i]))
		}
		if p, err := stats.Pearson(utils, logLoss); err == nil {
			corrR = append(corrR, p)
		}
	}
	for _, l := range s.tm.CongestedLinks() {
		loss, util, ok := s.congestionSeries(l)
		if !ok {
			continue
		}
		var logLoss []float64
		for _, v := range loss {
			logLoss = append(logLoss, logFloor(v))
		}
		if p, err := stats.Pearson(util, logLoss); err == nil {
			congR = append(congR, p)
		}
	}
	for _, pt := range stats.NewCDF(corrR).Points(25) {
		r.AddRow("pearson-cdf-corruption", fmtF(pt[0]), fmtF(pt[1]))
	}
	for _, pt := range stats.NewCDF(congR).Points(25) {
		r.AddRow("pearson-cdf-congestion", fmtF(pt[0]), fmtF(pt[1]))
	}
	within := 0
	for _, v := range corrR {
		if v > -0.5 && v < 0.5 {
			within++
		}
	}
	frac := 0.0
	if len(corrR) > 0 {
		frac = float64(within) / float64(len(corrR))
	}
	r.AddNote("mean Pearson: corruption %.2f (paper 0.19), congestion %.2f (paper 0.62); %.0f%% of corrupting links within ±0.5 (paper 85%%)",
		stats.Mean(corrR), stats.Mean(congR), 100*frac)
	return r, nil
}

// fig4 reproduces Figure 4: the locality ratio — the fraction of switches
// containing the worst x% of lossy links, divided by the same fraction
// under a uniformly random placement. Congestion clusters (ratio ≈ 0.2);
// corruption barely does (ratio ≈ 0.8).
func fig4(cfg Config) (*Report, error) {
	r := &Report{
		ID:     "fig4",
		Title:  "Spatial locality: affected-switch fraction vs random placement",
		Header: []string{"worst_percent", "corruption_ratio", "congestion_ratio"},
	}
	s, err := newCharScenario(cfg, "fig4")
	if err != nil {
		return nil, err
	}
	rng := rngutil.New(cfg.Seed).Split("fig4-baseline")

	// Rank corrupting links by severity; congested links by mean loss.
	corrupting := append([]topology.LinkID(nil), s.corrupting...)
	sortByRate := func(ls []topology.LinkID, rate func(topology.LinkID) float64) {
		for i := 1; i < len(ls); i++ {
			for j := i; j > 0 && rate(ls[j]) > rate(ls[j-1]); j-- {
				ls[j], ls[j-1] = ls[j-1], ls[j]
			}
		}
	}
	sortByRate(corrupting, s.state.WorstRate)
	congested := append([]topology.LinkID(nil), s.tm.CongestedLinks()...)
	congMean := make(map[topology.LinkID]float64)
	for _, l := range congested {
		if loss, _, ok := s.congestionSeries(l); ok {
			congMean[l] = stats.Mean(loss)
		}
	}
	sortByRate(congested, func(l topology.LinkID) float64 { return congMean[l] })

	ratio := func(links []topology.LinkID) float64 {
		if len(links) == 0 {
			return math.NaN()
		}
		affected := len(s.topo.SwitchesWithLinks(links))
		// Random baseline: average over 20 uniform placements of the
		// same number of links.
		sum := 0
		const reps = 20
		for rep := 0; rep < reps; rep++ {
			random := make([]topology.LinkID, len(links))
			for i := range random {
				random[i] = topology.LinkID(rng.Intn(s.topo.NumLinks()))
			}
			sum += len(s.topo.SwitchesWithLinks(random))
		}
		return float64(affected) / (float64(sum) / reps)
	}

	for pct := 10; pct <= 100; pct += 10 {
		nc := len(corrupting) * pct / 100
		ng := len(congested) * pct / 100
		r.AddRow(fmt.Sprintf("%d", pct), fmtF(ratio(corrupting[:nc])), fmtF(ratio(congested[:ng])))
	}
	r.AddNote("paper: corruption ratio ≈ 0.8 (weak locality), congestion ≈ 0.2 (strong locality); worst corrupting links are the most scattered")
	return r, nil
}

// fig5 reproduces Figure 5: corruption is asymmetric — only 8.2% of
// corrupting links corrupt both directions, versus 72.7% of congested
// links losing both ways. The scatter pairs each bidirectional link's two
// rates.
func fig5(cfg Config) (*Report, error) {
	r := &Report{
		ID:     "fig5",
		Title:  "Asymmetry of corruption vs congestion",
		Header: []string{"series", "rate_one_direction", "rate_other_direction"},
	}
	s, err := newCharScenario(cfg, "fig5")
	if err != nil {
		return nil, err
	}

	corrBidi, scatterBudget := 0, 50
	for _, l := range s.corrupting {
		if s.state.Bidirectional(l, 1e-8) {
			corrBidi++
			if scatterBudget > 0 {
				r.AddRow("corruption", fmtF(s.state.CorruptionRate(l, topology.Up)), fmtF(s.state.CorruptionRate(l, topology.Down)))
				scatterBudget--
			}
		}
	}
	congested := s.tm.CongestedLinks()
	congBidi := 0
	scatterBudget = 50
	for _, l := range congested {
		if s.tm.Prone(l, topology.Up) && s.tm.Prone(l, topology.Down) {
			congBidi++
			if scatterBudget > 0 {
				var up, down []float64
				for _, o := range s.col.Series(l) {
					up = append(up, o.CongestionRate[topology.Up])
					down = append(down, o.CongestionRate[topology.Down])
				}
				r.AddRow("congestion", fmtF(stats.Mean(up)), fmtF(stats.Mean(down)))
				scatterBudget--
			}
		}
	}
	corrFrac, congFrac := 0.0, 0.0
	if len(s.corrupting) > 0 {
		corrFrac = float64(corrBidi) / float64(len(s.corrupting))
	}
	if len(congested) > 0 {
		congFrac = float64(congBidi) / float64(len(congested))
	}
	r.AddNote("bidirectional: corruption %.1f%% (paper 8.2%%), congestion %.1f%% (paper 72.7%%)", 100*corrFrac, 100*congFrac)
	return r, nil
}
