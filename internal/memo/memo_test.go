package memo

import (
	"reflect"
	"sort"
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
