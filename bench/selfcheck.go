package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"

	"lockdoc/internal/blk"
	"lockdoc/internal/cli"
	"lockdoc/internal/trace"
	"lockdoc/internal/workload"
)

// selfcheck renders the clock and blk examples through the benchmark's
// own pipeline wrappers, phased and fused, and compares the output with
// the goldens the repository's end-to-end tests pin. It proves that the
// references the workloads check against are the program's real output.
func selfcheck(ctx context.Context, testdata string) error {
	dir, err := os.MkdirTemp("", "lockdoc-selfcheck-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cases := []struct {
		name   string
		gen    func(*trace.Writer) error
		opts   cli.Options
		labels []string
	}{
		{"clock", func(w *trace.Writer) error {
			_, err := workload.RunClockExample(w, 42, 1000)
			return err
		}, cli.Options{NoFilter: true}, []string{"clock"}},
		{"blk", func(w *trace.Writer) error {
			_, err := blk.RunExample(w, 42, 60)
			return err
		}, cli.Options{}, []string{"bio", "blk_plug", "elevator_queue", "gendisk", "hd_struct", "request", "request_queue"}},
	}
	for _, c := range cases {
		want, err := os.ReadFile(filepath.Join(testdata, c.name+"_doc.golden"))
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		w, err := trace.NewWriterOptions(&buf, trace.WriterOptions{Version: trace.FormatV2, SyncInterval: 64})
		if err != nil {
			return err
		}
		if err := c.gen(w); err != nil {
			return fmt.Errorf("%s example: %w", c.name, err)
		}
		path := filepath.Join(dir, c.name+".lkdc")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
		p, err := phased(ctx, path, c.opts)
		if err != nil {
			return err
		}
		f, _, _, err := fused(ctx, path, c.opts)
		if err != nil {
			return err
		}
		for _, r := range []struct {
			name string
			r    rendering
		}{{"phased", p}, {"fused", f}} {
			var got bytes.Buffer
			for _, l := range c.labels {
				got.WriteString(r.r.docs[l])
			}
			if !bytes.Equal(got.Bytes(), want) {
				return fmt.Errorf("%s documentation from the %s pipeline differs from %s_doc.golden:\n%s", c.name, r.name, c.name, got.Bytes())
			}
		}
	}
	return nil
}
