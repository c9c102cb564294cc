// Command corroptd is the CorrOpt controller daemon: it listens for
// corruption reports and activation notifications on the control-plane TCP
// port, answers with fast-checker decisions, and runs the optimizer on
// every activation (the Figure 13 workflow).
//
// Usage:
//
//	corroptd -addr 127.0.0.1:7070 -capacity 0.75 -pods 8
//	corroptd -addr 127.0.0.1:7070 -topology dc.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"corropt"
	"corropt/internal/core"
	"corropt/internal/topology"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7070", "control-plane listen address")
		capacity  = flag.Float64("capacity", 0.75, "per-ToR capacity constraint")
		pods      = flag.Int("pods", 8, "pods in the built-in Clos topology")
		topoFile  = flag.String("topology", "", "load the topology from this JSON file instead")
		threshold = flag.Float64("threshold", corropt.DefaultDetectionThreshold, "corruption detection threshold")
		stateFile = flag.String("state", "", "persist disabled-link state to this file across restarts")
		agentTTL  = flag.Duration("agent-timeout", 10*time.Minute,
			"mark agents silent for this long as stale and re-optimize (0 disables the sweep)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "corroptd: ", log.LstdFlags)

	var topo *corropt.Topology
	var err error
	if *topoFile != "" {
		f, err2 := os.Open(*topoFile)
		if err2 != nil {
			logger.Fatal(err2)
		}
		topo, err = topology.Read(f)
		f.Close()
	} else {
		topo, err = corropt.NewClos(corropt.ClosConfig{
			Pods: *pods, ToRsPerPod: 12, AggsPerPod: 4,
			Spines: 32, SpineUplinksPerAgg: 8, BreakoutSize: 4,
		})
	}
	if err != nil {
		logger.Fatal(err)
	}

	net, err := corropt.NewNetwork(topo, *capacity)
	if err != nil {
		logger.Fatal(err)
	}
	if *stateFile != "" {
		if f, err := os.Open(*stateFile); err == nil {
			if err := net.LoadState(f); err != nil {
				f.Close()
				logger.Fatalf("restore state: %v", err)
			}
			f.Close()
			logger.Printf("restored state from %s: %d links disabled", *stateFile, net.NumDisabled())
		} else if !os.IsNotExist(err) {
			logger.Fatal(err)
		}
	}
	// The threshold is outside input: the error-returning constructor, not
	// corropt.NewEngine, which panics on what this one rejects.
	engine, err := core.NewPolicyEngine(net, core.PolicyCorrOpt, core.EngineConfig{DetectionThreshold: *threshold})
	if err != nil {
		logger.Fatal(err)
	}
	ctl, err := corropt.NewController(*addr, engine)
	if err != nil {
		logger.Fatal(err)
	}
	fmt.Printf("corroptd: serving %d links (%d ToRs, %d switches) on %v, capacity %.0f%%\n",
		topo.NumLinks(), len(topo.ToRs()), topo.NumSwitches(), ctl.Addr(), *capacity*100)

	// Liveness sweep: agents that go silent are marked stale and the
	// optimizer re-runs, so the mitigation loop degrades gracefully instead
	// of wedging on activations that are never coming.
	sweepStop := make(chan struct{})
	var sweepWG sync.WaitGroup
	if *agentTTL > 0 {
		sweepWG.Add(1)
		go func() {
			defer sweepWG.Done()
			ticker := time.NewTicker(*agentTTL / 2)
			defer ticker.Stop()
			for {
				select {
				case <-sweepStop:
					return
				case <-ticker.C:
					if stale := ctl.SweepStale(*agentTTL); len(stale) > 0 {
						logger.Printf("liveness sweep: %d agent(s) stale: %v", len(stale), stale)
					}
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Println("shutting down")
	close(sweepStop)
	sweepWG.Wait()
	if err := ctl.Close(); err != nil {
		logger.Fatal(err)
	}
	if *stateFile != "" {
		f, err := os.Create(*stateFile)
		if err != nil {
			logger.Fatal(err)
		}
		if err := net.SaveState(f); err != nil {
			f.Close()
			logger.Fatal(err)
		}
		if err := f.Close(); err != nil {
			logger.Fatal(err)
		}
		logger.Printf("saved state to %s (%d links disabled)", *stateFile, net.NumDisabled())
	}
}
