// Command turbinectl inspects and edits a Turbine job store snapshot —
// the JSON file written by `turbine -snapshot` (or by any program using
// jobstore.Snapshot). It demonstrates the Job Service's operational
// surface: hierarchical configuration layers, validated updates, oncall
// overrides, and quarantine management, all with read-modify-write
// consistency.
//
// Usage:
//
//	turbinectl -store jobs.json list
//	turbinectl -store jobs.json show scuba/t0001
//	turbinectl -store jobs.json scale scuba/t0001 16      # oncall override
//	turbinectl -store jobs.json release scuba/t0001 v7    # package release
//	turbinectl -store jobs.json maxtasks scuba/t0001 128
//	turbinectl -store jobs.json clear-oncall scuba/t0001
//	turbinectl -store jobs.json quarantine                # list quarantined
//	turbinectl -store jobs.json unquarantine scuba/t0001
//	turbinectl -store jobs.json shards                    # shard topology + leases
//	turbinectl -store jobs.json feed 4                    # spec-feed seam dry run
//	turbinectl -store jobs.json feed -transport=tcp 4     # same, over real sockets
//	turbinectl -store jobs.json serve-feed :7600          # stand-alone feed server
//	turbinectl -store jobs.json plan scuba/t0001          # dry-run the syncer
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strconv"
	"time"

	"repro/internal/config"
	"repro/internal/jobservice"
	"repro/internal/jobstore"
	"repro/internal/simclock"
	"repro/internal/statesyncer"
	"repro/internal/taskservice"
)

func main() {
	storePath := flag.String("store", "jobs.json", "path to a job store snapshot")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	store := jobstore.New()
	if err := store.LoadFile(*storePath); err != nil {
		log.Fatalf("load store %s: %v", *storePath, err)
	}
	svc := jobservice.New(store)

	mutated := false
	switch args[0] {
	case "list":
		fmt.Printf("%-28s %-6s %-9s %-10s %s\n", "JOB", "TASKS", "PACKAGE", "QUARANTINE", "STOPPED")
		for _, name := range store.ExpectedNames() {
			cfg, _, err := svc.Desired(name)
			if err != nil {
				fmt.Printf("%-28s <undecodable: %v>\n", name, err)
				continue
			}
			_, quarantined := store.Quarantined(name)
			fmt.Printf("%-28s %-6d %-9s %-10v %v\n", name, cfg.TaskCount,
				cfg.Package.Version, quarantined, cfg.Stopped)
		}
	case "show":
		name := requireArg(args, 1, "job name")
		e, err := store.GetExpected(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("job %s (expected version %d)\n", name, e.Version)
		for _, l := range config.Layers() {
			doc := e.Layers[l]
			if doc == nil || len(doc) == 0 {
				fmt.Printf("  %-12s (empty)\n", l)
				continue
			}
			fmt.Printf("  %-12s %d keys\n", l, len(doc))
			for _, ch := range config.Diff(config.Doc{}, doc) {
				fmt.Printf("    %s = %v\n", ch.Path, ch.To)
			}
		}
		if r, ok := store.GetRunning(name); ok {
			fmt.Printf("  running realizes expected version %d\n", r.Version)
		} else {
			fmt.Println("  not running yet")
		}
	case "scale":
		name := requireArg(args, 1, "job name")
		n := requireInt(args, 2, "task count")
		if err := svc.SetTaskCount(name, config.LayerOncall, n); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("oncall override: %s -> %d tasks\n", name, n)
		mutated = true
	case "release":
		name := requireArg(args, 1, "job name")
		version := requireArg(args, 2, "package version")
		if err := svc.SetPackageVersion(name, version); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("release: %s -> package %s\n", name, version)
		mutated = true
	case "maxtasks":
		name := requireArg(args, 1, "job name")
		n := requireInt(args, 2, "cap")
		if err := svc.SetMaxTaskCount(name, n); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("oncall override: %s maxTaskCount=%d\n", name, n)
		mutated = true
	case "clear-oncall":
		name := requireArg(args, 1, "job name")
		if err := svc.ClearLayer(name, config.LayerOncall); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("oncall layer cleared for %s\n", name)
		mutated = true
	case "quarantine":
		qs := svc.Quarantined()
		if len(qs) == 0 {
			fmt.Println("no quarantined jobs")
			break
		}
		for _, q := range qs {
			fmt.Printf("%s: %s\n", q.Name, q.Reason)
		}
	case "unquarantine":
		name := requireArg(args, 1, "job name")
		if err := svc.ClearQuarantine(name); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("quarantine cleared for %s; the State Syncer will retry it next round\n", name)
		mutated = true
	case "shards":
		leases := store.ShardLeases()
		n := len(leases)
		if len(args) > 1 {
			n = requireInt(args, 1, "shard count")
		}
		if n <= 0 {
			fmt.Println("no shard leases in the store (single-syncer deployment); pass a shard count to preview a topology")
			break
		}
		byShard := make(map[int]jobstore.ShardLease, len(leases))
		for _, l := range leases {
			byShard[l.Shard] = l
		}
		// Per-slice job and diverged counts give the store-visible round
		// picture: what each shard owns and what it still has to drive.
		jobs := make([]int, n)
		for _, name := range store.ExpectedNames() {
			jobs[statesyncer.SliceOfName(name, n)]++
		}
		now := time.Now()
		fmt.Printf("%-6s %-13s %-6s %-8s %-14s %-6s %s\n",
			"SHARD", "STRIPES", "JOBS", "DIVERGED", "HOLDER", "EPOCH", "LEASE")
		var diverged []string
		for k := 0; k < n; k++ {
			lo, hi := statesyncer.ShardStripeRange(k, n)
			diverged = store.DivergedRangeInto(lo, hi, diverged[:0])
			holder, epoch, lease := "-", "-", "unclaimed"
			if l, ok := byShard[k]; ok {
				holder = l.Holder
				epoch = strconv.FormatInt(l.Epoch, 10)
				if l.Live(now) {
					lease = fmt.Sprintf("live, expires in %s", l.Expires.Sub(now).Round(time.Second))
				} else {
					lease = fmt.Sprintf("expired %s ago (stealable)", now.Sub(l.Expires).Round(time.Second))
				}
			}
			fmt.Printf("%-6d %-13s %-6d %-8d %-14s %-6s %s\n",
				k, fmt.Sprintf("[%d,%d)", lo, hi), jobs[k], len(diverged), holder, epoch, lease)
		}
	case "serve-feed":
		// Stand-alone spec-feed server: bind the loaded store's feed to a
		// real TCP listener and block. Remote Task Services (or `feed
		// -transport=tcp -dial=<addr>` from another terminal) connect with
		// DialFeed and speak the exact frames the loopback transport
		// round-trips in process.
		addr := "127.0.0.1:7600"
		if len(args) > 1 {
			addr = args[1]
		}
		feed := jobservice.NewSpecFeed(store)
		feed.SetSubscriberTTL(simclock.NewReal(), 15*time.Minute)
		lis, err := net.Listen("tcp", addr)
		if err != nil {
			log.Fatal(err)
		}
		fl := jobservice.ServeFeed(feed, lis, jobservice.ListenerOptions{})
		fmt.Printf("serving spec feed for %s on %s (%d running jobs, journal head %d)\n",
			*storePath, fl.Addr(), len(store.RunningNames()), store.JournalHead())
		fmt.Printf("subscribe with: turbinectl -store <file> feed -transport=tcp -dial=%s\n", fl.Addr())
		select {}
	case "feed":
		// Spec-feed dry run: stand up the Job Service's feed server over
		// the loaded store, subscribe n remote Task Services, and report
		// the seam's operational counters. A loaded snapshot burns a
		// journal sequence exactly like a Restore, so every subscriber
		// demonstrates the real remote-bootstrap path: one resync
		// redirect, one chunk walk, then incremental deltas.
		//
		// -transport=loopback (default) round-trips frames in process;
		// -transport=tcp serves the same frames over real sockets — via a
		// self-contained localhost listener, or an already-running
		// `serve-feed` named by -dial. (Flags precede the count:
		// `feed -transport=tcp 4`.)
		ffs := flag.NewFlagSet("feed", flag.ExitOnError)
		transport := ffs.String("transport", "loopback", `feed transport: "loopback" or "tcp"`)
		dialAddr := ffs.String("dial", "", "with -transport=tcp, dial this serve-feed address instead of a self-contained listener")
		ffs.Parse(args[1:])
		n := 2
		if rest := ffs.Args(); len(rest) > 0 {
			n = requireInt(rest, 0, "subscriber count")
		}
		if n <= 0 {
			log.Fatal("subscriber count must be positive")
		}
		clk := simclock.NewSim(time.Now())
		var (
			feed   *jobservice.SpecFeedServer
			fl     *jobservice.FeedListener
			dials  []*taskservice.DialTransport
			mkFeed func(i int) taskservice.SpecFeed
		)
		switch *transport {
		case "loopback":
			feed = jobservice.NewSpecFeed(store)
			feed.SetSubscriberTTL(simclock.NewReal(), 15*time.Minute)
			mkFeed = func(int) taskservice.SpecFeed { return feed.Loopback() }
		case "tcp":
			addr := *dialAddr
			if addr == "" {
				feed = jobservice.NewSpecFeed(store)
				feed.SetSubscriberTTL(simclock.NewReal(), 15*time.Minute)
				lis, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					log.Fatal(err)
				}
				fl = jobservice.ServeFeed(feed, lis, jobservice.ListenerOptions{})
				addr = fl.Addr().String()
			}
			mkFeed = func(int) taskservice.SpecFeed {
				tr := taskservice.DialFeed(addr, taskservice.DialOptions{Clock: clk})
				dials = append(dials, tr)
				return tr
			}
		default:
			log.Fatalf("unknown transport %q (want loopback or tcp)", *transport)
		}
		clients := make([]*taskservice.FeedClient, n)
		for i := range clients {
			clients[i] = taskservice.NewFeedClient(mkFeed(i), fmt.Sprintf("feed-%d", i), clk, 90*time.Second, 8)
			if err := clients[i].Sync(0); err != nil {
				log.Fatalf("subscriber feed-%d: %v", i, err)
			}
		}
		head := store.JournalHead()
		fmt.Printf("journal head %d, %d running jobs, transport %s\n", head, len(store.RunningNames()), *transport)
		fmt.Printf("%-12s %-8s %-5s %-6s %-8s %-8s %-8s %-10s %s\n",
			"SUBSCRIBER", "CURSOR", "LAG", "POLLS", "RESYNCS", "APPLIED", "SKIPPED", "BYTES", "STALE")
		byName := make(map[string]jobservice.SubscriberStatus)
		if feed != nil {
			for _, s := range feed.Subscribers() {
				byName[s.Subscriber] = s
			}
		}
		for _, c := range clients {
			st := c.Stats()
			stale := "-" // server-side registry lives on the serve-feed process
			if reg, ok := byName[c.ID()]; ok {
				stale = reg.SincePoll.Round(time.Millisecond).String()
			}
			reg := byName[c.ID()]
			fmt.Printf("%-12s %-8d %-5d %-6d %-8d %-8d %-8d %-10d %s\n",
				c.ID(), c.Cursor(), reg.Lag, st.Polls, st.Resyncs, st.Applied, st.Skipped, st.Bytes, stale)
		}
		if feed != nil {
			fs := feed.Stats()
			total := fs.FrameHits + fs.FrameMisses
			rate := 0.0
			if total > 0 {
				rate = 100 * float64(fs.FrameHits) / float64(total)
			}
			fmt.Printf("frame cache: %d hits / %d misses (%.0f%% hit rate); resync redirects: %d; evicted subscribers: %d\n",
				fs.FrameHits, fs.FrameMisses, rate, fs.Resyncs, fs.Evicted)
		}
		if len(dials) > 0 {
			var d taskservice.DialStats
			for _, tr := range dials {
				s := tr.Stats()
				d.Dials += s.Dials
				d.Reconnects += s.Reconnects
				d.ConnErrors += s.ConnErrors
				d.DialErrors += s.DialErrors
				d.BackoffSkips += s.BackoffSkips
				d.TornFrames += s.TornFrames
				tr.Close()
			}
			fmt.Printf("socket: %d dials (%d reconnects, %d dial errors), %d conn errors, %d backoff skips, %d torn frames\n",
				d.Dials, d.Reconnects, d.DialErrors, d.ConnErrors, d.BackoffSkips, d.TornFrames)
		}
		if fl != nil {
			ls := fl.Stats()
			fmt.Printf("listener: %d conns accepted, %d refused, %d polls served, %d bad frames\n",
				ls.Accepted, ls.Refused, ls.Served, ls.BadFrames)
			fl.Close()
		}
	case "plan":
		name := requireArg(args, 1, "job name")
		merged, version, err := store.MergedExpected(name)
		if err != nil {
			log.Fatal(err)
		}
		syncer := statesyncer.New(store, statesyncer.NopActuator{}, simclock.NewSim(time.Now()), statesyncer.Options{})
		plan := syncer.BuildPlan(name, merged, version)
		fmt.Printf("plan for %s: %s\n", name, plan.Kind)
		for _, ch := range plan.Changes {
			fmt.Printf("  change %s: %v -> %v\n", ch.Path, ch.From, ch.To)
		}
		for i, a := range plan.Actions {
			fmt.Printf("  step %d: %s\n", i+1, a.Name)
		}
	default:
		usage()
	}

	if mutated {
		if err := store.SaveFile(*storePath); err != nil {
			log.Fatal(err)
		}
	}
}

func requireArg(args []string, i int, what string) string {
	if len(args) <= i {
		log.Fatalf("missing %s", what)
	}
	return args[i]
}

func requireInt(args []string, i int, what string) int {
	n, err := strconv.Atoi(requireArg(args, i, what))
	if err != nil {
		log.Fatalf("bad %s: %v", what, err)
	}
	return n
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: turbinectl -store <file> <command> [args]
commands:
  list                       list jobs with desired state
  show <job>                 dump a job's configuration layers
  scale <job> <n>            oncall task-count override
  release <job> <version>    package release (provisioner layer)
  maxtasks <job> <n>         oncall horizontal-scaling cap
  clear-oncall <job>         drop all oncall overrides
  quarantine                 list quarantined jobs
  unquarantine <job>         clear a job's quarantine
  shards [n]                 shard topology: stripe ranges, lease holders, pending work
  feed [flags] [n]           subscribe n remote Task Services; report cursors, lag, staleness
                             -transport=loopback|tcp  wire transport (default loopback)
                             -dial=<addr>             with tcp, join a running serve-feed
  serve-feed [addr]          serve the spec feed over TCP (default 127.0.0.1:7600); blocks
  plan <job>                 dry-run the State Syncer's execution plan`)
	os.Exit(2)
}
