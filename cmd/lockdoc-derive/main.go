// Command lockdoc-derive runs locking-rule derivation (phase 2) over an
// imported trace and prints the winning rule per data-structure member,
// optionally with the full hypothesis list.
//
// Usage:
//
//	lockdoc-derive -trace trace.lkdc [-tac 0.9] [-tco 0.1] [-type inode:ext4] [-hypotheses] [-naive] [-j N] [-cpuprofile F] [-memprofile F] [-lenient] [-max-errors N]
//	lockdoc-derive -trace trace.lkdc -follow [-interval 500ms] [-follow-polls N] [-store-dir DIR]
//
// With -follow the trace file is tailed: each poll ingests only the
// appended v2 sync blocks, re-mines only the observation groups they
// touched, and reprints the rules. With -store-dir the committed blocks
// and the compacted state are additionally persisted into a segment
// store that lockdocd -store-dir reopens without re-importing. Exit
// codes: 0 clean, 1 fatal, 3 completed with recovered corruption.
package main

import (
	"context"
	"fmt"
	"io"

	"lockdoc/internal/analysis"
	"lockdoc/internal/cli"
	"lockdoc/internal/core"
	"lockdoc/internal/db"
)

func main() { cli.Main("lockdoc-derive", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fl := cli.Flags("lockdoc-derive", stderr)
	tracePath := fl.String("trace", "trace.lkdc", "input trace file")
	tac := fl.Float64("tac", core.DefaultAcceptThreshold, "acceptance threshold t_ac")
	tco := fl.Float64("tco", 0, "cut-off threshold t_co for the hypothesis report")
	typeFilter := fl.String("type", "", "only report this type label (e.g. inode:ext4)")
	hypotheses := fl.Bool("hypotheses", false, "print every hypothesis, not only the winner")
	naive := fl.Bool("naive", false, "use the naive highest-support selection strategy")
	jsonOut := fl.Bool("json", false, "emit machine-readable JSON instead of text")
	var derive cli.DeriveFlags
	derive.Register(fl)
	var ingest cli.IngestFlags
	ingest.Register(fl)
	var follow cli.FollowFlags
	follow.Register(fl)
	var obsf cli.ObsFlags
	obsf.Register(fl)
	if err := cli.Parse(fl, args); err != nil {
		return err
	}
	if ctx, err = obsf.Start(ctx, stderr); err != nil {
		return err
	}
	defer func() {
		if e := obsf.Finish(stderr); err == nil {
			err = e
		}
	}()
	stopProf, err := derive.StartProfiles()
	if err != nil {
		return err
	}
	defer func() {
		if e := stopProf(); err == nil {
			err = e
		}
	}()

	opt := derive.Apply(core.Options{AcceptThreshold: *tac, CutoffThreshold: *tco, Naive: *naive})
	opt.Metrics = core.NewMetrics(obsf.Registry())
	render := func(d *db.DB, results []core.Result) error {
		if *jsonOut {
			if *typeFilter != "" {
				kept := make([]core.Result, 0, len(results))
				for _, r := range results {
					if r.Group != nil && r.Group.TypeLabel() == *typeFilter {
						kept = append(kept, r)
					}
				}
				results = kept
			}
			return analysis.WriteRulesJSON(stdout, d, results, *hypotheses)
		}
		for _, res := range results {
			if res.Winner == nil {
				continue
			}
			label := res.Group.TypeLabel()
			if *typeFilter != "" && label != *typeFilter {
				continue
			}
			fmt.Fprintf(stdout, "%-24s %-26s %s  %-60s sa=%-7d sr=%.4f\n",
				label, res.Group.MemberName(), res.Group.AccessType(),
				d.SeqString(res.Winner.Seq), res.Winner.Sa, res.Winner.Sr)
			if *hypotheses {
				fmt.Fprintf(stdout, "    winner: %s\n", res.Reason)
				for _, h := range core.Ranked(res.Hypotheses) {
					fmt.Fprintf(stdout, "    %-72s sa=%-7d sr=%.4f\n", d.SeqString(h.Seq), h.Sa, h.Sr)
				}
			}
		}
		return nil
	}

	if follow.Follow {
		first := true
		return cli.Follow(ctx, *tracePath, cli.Options{Ingest: ingest, Obs: obsf.Registry()}, follow, opt,
			func(view *db.DB, results []core.Result, stats core.StreamStats, appended int) error {
				if !first {
					fmt.Fprintf(stdout, "\n--- %s: +%d event(s), %d/%d group(s) re-mined ---\n",
						*tracePath, appended, stats.Delta.Remined, stats.Delta.Groups)
				}
				first = false
				return render(view, results)
			})
	}

	d, results, _, err := cli.StreamDerive(ctx, *tracePath, cli.Options{Ingest: ingest, Obs: obsf.Registry()}, opt)
	if err != nil {
		return err
	}
	if err := render(d, results); err != nil {
		return err
	}
	return cli.RecoveredFromDB(d)
}
