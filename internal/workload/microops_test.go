package workload

import (
	"io"
	"testing"

	"lockdoc/internal/kernel"
	"lockdoc/internal/trace"
)

func findFunc(k *kernel.Kernel, name string) *kernel.FuncInfo {
	for _, f := range k.Funcs() {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// TestGeneratorTargetsExist keeps the generator target lists in sync
// with the function corpus: a typo here would silently pin the table
// against functions that do not exist.
func TestGeneratorTargetsExist(t *testing.T) {
	w, err := trace.NewWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sys := Boot(w, Options{Seed: 1, Scale: 1, PreemptEvery: 0})
	for _, g := range generators() {
		for _, target := range g.targets {
			if findFunc(sys.K, target) == nil {
				t.Errorf("generator %q targets unknown function %q", g.name, target)
			}
		}
	}
}

// TestGeneratorsHitTargets runs every micro op once in one booted
// system: each must reach every function it targets and release every
// object it allocated.
func TestGeneratorsHitTargets(t *testing.T) {
	w, err := trace.NewWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sys := Boot(w, Options{Seed: 42, Scale: 1, PreemptEvery: 0})
	gens := generators()
	sys.K.Go("micro-ops", func(c *kernel.Context) {
		for i, g := range gens {
			g.run(c, sys, i)
		}
	})
	sys.K.Sched.Run()
	if _, err := sys.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if n := sys.K.LiveAllocations(); n != 0 {
		t.Errorf("micro ops leaked %d allocations", n)
	}
	for _, g := range gens {
		for _, target := range g.targets {
			if fn := findFunc(sys.K, target); fn != nil && !fn.Hit() {
				t.Errorf("generator %q target %q still cold", g.name, target)
			}
		}
	}
}
