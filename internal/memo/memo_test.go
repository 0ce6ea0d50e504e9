package memo

import (
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSlotMethodSet is the compile-time half of the publish discipline
// made visible: the only ways into a slot are Load and CompareAndSwap.
// Adding Store or Swap — the operations the deleted memodisc analyzer
// reported — fails here, and the pointer inside stays unexported so no
// caller can reach around the type.
func TestSlotMethodSet(t *testing.T) {
	typ := reflect.TypeOf((*Slot[int])(nil))
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	sort.Strings(got)
	if want := []string{"CompareAndSwap", "Load"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("*Slot[T] method set = %v, want exactly %v", got, want)
	}
	for i := 0; i < typ.Elem().NumField(); i++ {
		if f := typ.Elem().Field(i); f.IsExported() {
			t.Errorf("Slot field %s is exported; the pointer must be reachable through the two methods only", f.Name)
		}
	}
}

func TestSlotPublishOnce(t *testing.T) {
	var s Slot[int]
	if s.Load() != nil {
		t.Fatal("zero Slot is not empty")
	}
	a, b := new(int), new(int)
	if !s.CompareAndSwap(nil, a) {
		t.Fatal("first publish into an empty slot lost")
	}
	if s.CompareAndSwap(nil, b) {
		t.Fatal("second publish against nil replaced a published value")
	}
	if s.Load() != a {
		t.Fatal("loser's re-read does not see the winner")
	}
	if !s.CompareAndSwap(a, b) || s.Load() != b {
		t.Fatal("publish against the current value did not take")
	}
}

// TestLazyMethodSet: the only way into a Lazy is Get. There is no setter
// to replace a value readers already share, no peek that could race a
// build, and the Once and the value stay unexported.
func TestLazyMethodSet(t *testing.T) {
	typ := reflect.TypeOf((*Lazy[int])(nil))
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	if want := []string{"Get"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("*Lazy[T] method set = %v, want exactly %v", got, want)
	}
	for i := 0; i < typ.Elem().NumField(); i++ {
		if f := typ.Elem().Field(i); f.IsExported() {
			t.Errorf("Lazy field %s is exported; the value must be reachable through Get only", f.Name)
		}
	}
}

// TestLazyBuildsOnce races 64 first callers (run under -race by make
// verify-race): build runs once and everyone gets the value it returned.
func TestLazyBuildsOnce(t *testing.T) {
	var (
		l      Lazy[*int]
		builds atomic.Int32
		wg     sync.WaitGroup
		got    [64]*int
	)
	build := func() *int {
		builds.Add(1)
		return new(int)
	}
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = l.Get(build)
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1", n)
	}
	for g, p := range got {
		if p == nil || p != got[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p", g, p, got[0])
		}
	}
}

func TestLazyFilledNeverBuilds(t *testing.T) {
	v := new(int)
	l := Filled(v)
	for i := 0; i < 2; i++ {
		if got := l.Get(func() *int { t.Error("build called on a filled Lazy"); return nil }); got != v {
			t.Fatalf("filled Lazy returned %p, want %p", got, v)
		}
	}
}
