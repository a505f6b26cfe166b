package core

import (
	"reflect"
	"testing"
)

func TestContextKey(t *testing.T) {
	got := ContextKey("inode", "i_size", "w", "EM(i_rwsem in inode)")
	want := "inode.i_size w @ EM(i_rwsem in inode)"
	if got != want {
		t.Fatalf("ContextKey = %q, want %q", got, want)
	}
}

func TestContextSetOps(t *testing.T) {
	a := ContextSet{}
	a.put("x")
	a.put("y")
	b := ContextSet{}
	b.put("x")
	b.put("y")
	b.put("z")
	if diff := a.Diff(b); !reflect.DeepEqual(diff, []string{"z"}) {
		t.Errorf("a.Diff(b) = %v, want [z]", diff)
	}
	if diff := b.Diff(a); len(diff) != 0 {
		t.Errorf("b.Diff(a) = %v, want empty", diff)
	}
	if n := a.Add(b); n != 1 {
		t.Errorf("a.Add(b) added %d contexts, want 1", n)
	}
	if n := a.Add(b); n != 0 {
		t.Errorf("second a.Add(b) added %d contexts, want 0", n)
	}
	if got := a.Sorted(); !reflect.DeepEqual(got, []string{"x", "y", "z"}) {
		t.Errorf("Sorted = %v", got)
	}
}

// put is a test helper: insert one raw key.
func (s ContextSet) put(k string) { s[k] = struct{}{} }
