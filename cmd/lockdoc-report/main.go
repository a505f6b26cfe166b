// Command lockdoc-report runs the complete LockDoc pipeline in-process —
// boot the simulated kernel, run the benchmark mix, post-process the
// trace, derive locking rules — and prints every table and figure of the
// paper's evaluation (Sec. 7).
//
// With -trace, the analysis sections are produced from an archived
// trace file instead of a fresh synthetic run; combined with -lenient
// this makes recovered-corruption ingests (exit code 3) inspectable
// after the fact: the report opens with the ingestion statistics —
// drop counters and every corruption the reader resynchronized past.
//
// Usage:
//
//	lockdoc-report [-seed N] [-scale N] [-tac F] [-details]
//	lockdoc-report -trace trace.lkdc [-tac F] [-doc TYPE] [-j N] [-cpuprofile F] [-memprofile F] [-lenient] [-max-errors N]
//	lockdoc-report -trace trace.lkdc -follow [-interval 500ms] [-follow-polls N] [-store-dir DIR]
//
// With -follow (valid only together with -trace) the report sections
// are re-rendered after every appended trace chunk, re-mining only the
// observation groups the append touched.
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"lockdoc/internal/analysis"
	"lockdoc/internal/cli"
	"lockdoc/internal/core"
	"lockdoc/internal/db"
	"lockdoc/internal/fs"
	"lockdoc/internal/lockdep"
	"lockdoc/internal/locsrc"
	"lockdoc/internal/relation"
	"lockdoc/internal/report"
	"lockdoc/internal/trace"
	"lockdoc/internal/workload"
)

func main() { cli.Main("lockdoc-report", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fl := cli.Flags("lockdoc-report", stderr)
	seed := fl.Int64("seed", 42, "deterministic run seed")
	scale := fl.Int("scale", 2, "workload scale factor")
	tac := fl.Float64("tac", core.DefaultAcceptThreshold, "acceptance threshold t_ac")
	details := fl.Bool("details", false, "dump every derived rule")
	tracePath := fl.String("trace", "", "report on this archived trace instead of a fresh synthetic run")
	docType := fl.String("doc", "inode:ext4", "type label for the generated-documentation figure")
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
	out := stdout
	if *tracePath != "" {
		return reportTrace(ctx, out, *tracePath, *tac, *docType, *details, derive, ingest, follow, obsf)
	}
	if follow.Follow {
		return fmt.Errorf("-follow requires -trace: only an on-disk trace file can grow")
	}

	// Figure 1 needs no trace: it scans the synthetic kernel source
	// corpus across versions.
	fmt.Fprintln(out, "== Figure 1: lock usage and kernel size across versions ==")
	locsrc.RenderFigure1(out, *seed)
	fmt.Fprintln(out)

	// The clock-counter example feeds Tab. 1 and 2.
	var clockBuf bytes.Buffer
	cw, err := trace.NewWriter(&clockBuf)
	if err != nil {
		return err
	}
	if _, err := workload.RunClockExample(cw, *seed, 1000); err != nil {
		return err
	}
	cr, err := trace.NewReader(bytes.NewReader(clockBuf.Bytes()))
	if err != nil {
		return err
	}
	clockDB, err := db.Import(cr, db.Config{})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "== Tables 1 and 2: the clock-counter example ==")
	report.Table1(out, clockDB)
	fmt.Fprintln(out)
	if g, ok := clockDB.Group("clock", "", "minutes", true); ok {
		res := core.Derive(ctx, clockDB, g, core.Options{AcceptThreshold: *tac})
		report.Table2(out, clockDB, res)
	}
	fmt.Fprintln(out)

	// The full benchmark mix.
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		return err
	}
	opt := workload.Options{Seed: *seed, Scale: *scale, PreemptEvery: 97}
	sys, err := workload.Run(w, opt)
	if err != nil {
		return err
	}
	r, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	stats, err := trace.Collect(r)
	if err != nil {
		return err
	}
	r2, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	d, err := db.Import(r2, fs.DefaultConfig())
	if err != nil {
		return err
	}

	fmt.Fprintln(out, "== Table 3: code coverage ==")
	report.Table3(out, sys.K, []string{"fs", "fs/ext4", "fs/jbd2", "fs/proc", "fs/sysfs", "mm", "net"})
	fmt.Fprintln(out)

	fmt.Fprintln(out, "== Sec. 7.2: trace statistics ==")
	report.TraceStats(out, stats, d)
	fmt.Fprintln(out)

	fmt.Fprintln(out, "== Ingestion statistics ==")
	report.IngestStats(out, d)
	fmt.Fprintln(out)

	checks, err := analysis.CheckAll(d, fs.DocumentedRules())
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "== Table 4: locking-rule checking ==")
	report.Table4(out, analysis.Summarize(checks))
	fmt.Fprintln(out)

	fmt.Fprintln(out, "== Table 5: detailed check results for struct inode ==")
	report.Table5(out, checks, "inode")
	fmt.Fprintln(out)

	deriveOpt := derive.Apply(core.Options{AcceptThreshold: *tac})
	deriveOpt.Metrics = core.NewMetrics(obsf.Registry())
	results, err := core.DeriveAll(ctx, d, deriveOpt)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "== Table 6: locking-rule mining ==")
	report.Table6(out, analysis.SummarizeMining(d, results))
	fmt.Fprintln(out)

	fmt.Fprintln(out, "== Figure 7: acceptance-threshold sweep ==")
	sweep, err := analysis.ThresholdSweep(ctx, d, 0.70, 1.00, 0.05)
	if err != nil {
		return err
	}
	report.Figure7(out, sweep, false)
	fmt.Fprintln(out)
	report.Figure7(out, sweep, true)
	fmt.Fprintln(out)

	fmt.Fprintln(out, "== Figure 8: generated documentation ==")
	report.Figure8(out, d, results, "inode:ext4")
	fmt.Fprintln(out)

	viols := analysis.FindViolations(d, results)
	fmt.Fprintln(out, "== Table 7: locking-rule violations ==")
	report.Table7(out, analysis.SummarizeViolations(d, viols))
	fmt.Fprintln(out)

	fmt.Fprintln(out, "== Table 8: violation examples ==")
	report.Table8(out, analysis.Examples(d, viols, 12))
	fmt.Fprintln(out)

	// Extensions beyond the paper's evaluation: the Sec. 8 future-work
	// relation miner and the Sec. 3.2 lockdep baseline.
	fmt.Fprintln(out, "== Extension: object interrelations (Sec. 8 future work) ==")
	rr, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	miner, err := relation.Mine(rr)
	if err != nil {
		return err
	}
	miner.Render(out, 0.5)
	fmt.Fprintln(out)

	fmt.Fprintln(out, "== Extension: lock-order analysis (lockdep baseline) ==")
	lr, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	graph, err := lockdep.Build(lr)
	if err != nil {
		return err
	}
	graph.Render(out, 8)

	if *details {
		fmt.Fprintln(out)
		fmt.Fprintln(out, "== All derived rules ==")
		for _, res := range results {
			if res.Winner == nil {
				continue
			}
			fmt.Fprintf(out, "%-24s %-24s %s  ->  %s (sa=%d, sr=%.3f)\n",
				res.Group.TypeLabel(), res.Group.MemberName(), res.Group.AccessType(),
				d.SeqString(res.Winner.Seq), res.Winner.Sa, res.Winner.Sr)
		}
		fmt.Fprintln(out)
		fmt.Fprintln(out, "== All documented-rule checks ==")
		for _, cres := range checks {
			fmt.Fprintf(out, "%-40s %-44s sa=%-8d sr=%.3f %s\n",
				cres.Spec.Label(), cres.Spec.RuleString(), cres.Sa, cres.Sr, cres.Verdict)
		}
	}
	return nil
}

// reportTrace renders the trace-derived report sections from an
// archived trace file. The synthetic-run sections (Fig. 1, the clock
// example, coverage) need a live kernel and are skipped. In follow
// mode the sections re-render after every appended chunk, with only
// the dirtied observation groups re-mined.
func reportTrace(ctx context.Context, out io.Writer, path string, tac float64, docType string, details bool,
	derive cli.DeriveFlags, ingest cli.IngestFlags, follow cli.FollowFlags, obsf cli.ObsFlags) error {
	opt := derive.Apply(core.Options{AcceptThreshold: tac})
	opt.Metrics = core.NewMetrics(obsf.Registry())
	if follow.Follow {
		first := true
		return cli.Follow(ctx, path, cli.Options{Ingest: ingest, Obs: obsf.Registry()}, follow, opt,
			func(view *db.DB, results []core.Result, stats core.StreamStats, appended int) error {
				if !first {
					fmt.Fprintf(out, "\n--- %s: +%d event(s), %d/%d group(s) re-mined ---\n",
						path, appended, stats.Delta.Remined, stats.Delta.Groups)
				}
				first = false
				return renderTraceSections(out, path, view, results, docType, details)
			})
	}
	d, results, _, err := cli.StreamDerive(ctx, path, cli.Options{Ingest: ingest, Obs: obsf.Registry()}, opt)
	if err != nil {
		return err
	}
	if err := renderTraceSections(out, path, d, results, docType, details); err != nil {
		return err
	}
	return cli.RecoveredFromDB(d)
}

// renderTraceSections writes the report sections shared by the one-shot
// and follow variants of -trace mode.
func renderTraceSections(out io.Writer, path string, d *db.DB, results []core.Result,
	docType string, details bool) error {
	fmt.Fprintf(out, "== Ingestion statistics for %s ==\n", path)
	report.IngestStats(out, d)
	fmt.Fprintln(out)

	checks, err := analysis.CheckAll(d, fs.DocumentedRules())
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "== Table 4: locking-rule checking ==")
	report.Table4(out, analysis.Summarize(checks))
	fmt.Fprintln(out)

	fmt.Fprintln(out, "== Table 6: locking-rule mining ==")
	report.Table6(out, analysis.SummarizeMining(d, results))
	fmt.Fprintln(out)

	for _, label := range d.TypeLabels() {
		if label == docType {
			fmt.Fprintln(out, "== Figure 8: generated documentation ==")
			report.Figure8(out, d, results, docType)
			fmt.Fprintln(out)
			break
		}
	}

	viols := analysis.FindViolations(d, results)
	fmt.Fprintln(out, "== Table 7: locking-rule violations ==")
	report.Table7(out, analysis.SummarizeViolations(d, viols))
	fmt.Fprintln(out)

	fmt.Fprintln(out, "== Table 8: violation examples ==")
	report.Table8(out, analysis.Examples(d, viols, 12))

	if details {
		fmt.Fprintln(out)
		fmt.Fprintln(out, "== All derived rules ==")
		for _, res := range results {
			if res.Winner == nil {
				continue
			}
			fmt.Fprintf(out, "%-24s %-24s %s  ->  %s (sa=%d, sr=%.3f)\n",
				res.Group.TypeLabel(), res.Group.MemberName(), res.Group.AccessType(),
				d.SeqString(res.Winner.Seq), res.Winner.Sa, res.Winner.Sr)
		}
	}
	return nil
}
